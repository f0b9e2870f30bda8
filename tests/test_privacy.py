import math
from fractions import Fraction

import pytest

from mosaichash import (
    HashFamily,
    JointSource,
    affine,
    iid_extend,
    pa_joint,
    renyi2_conditional,
    run_pa,
    security_distance,
    theorem_bound,
    theorem_radicand,
    toeplitz,
    transversal,
    uniform_source,
)
from mosaichash.errors import (
    AlphabetMismatch,
    BudgetExceeded,
    NegativeRadicand,
    NotRegular,
    ZeroMassKeyValue,
)
from oracles import oracle_renyi_inner, oracle_security_distance
from util import flip_source, relabel_points


def test_joint_source_validation():
    with pytest.raises(ValueError):
        JointSource([0, 1], [0], [[Fraction(1, 2)], [Fraction(1, 4)]])
    with pytest.raises(ValueError):
        JointSource([0], [0, 1], [[Fraction(3, 2), Fraction(-1, 2)]])
    with pytest.raises(AlphabetMismatch):
        JointSource([0, 1], [0], [[Fraction(1)]])


def test_joint_source_drops_zero_mass_letters():
    with pytest.warns(UserWarning):
        src = JointSource(
            [0, 1], ["z", "dead"],
            [[Fraction(1, 2), 0], [Fraction(1, 2), 0]],
        )
    assert src.z_labels == ("z",)
    assert src.z_marginal() == [1]


def test_joint_source_json_roundtrip():
    src = flip_source(3, Fraction(1, 4))
    src2 = JointSource.from_json(src.to_json())
    assert src2.x_labels == src.x_labels
    assert src2.p == src.p


def test_renyi2_uniform():
    src = uniform_source(range(8))
    h2, inner = renyi2_conditional(src)
    assert inner == Fraction(1, 8)
    assert h2 == pytest.approx(3.0)


def test_renyi2_flip_quarter():
    h2, inner = renyi2_conditional(flip_source(2, Fraction(1, 4)))
    assert inner == Fraction(5, 8)
    assert h2 == pytest.approx(-math.log2(5 / 8))
    assert inner == oracle_renyi_inner(flip_source(2, Fraction(1, 4)))


def test_iid_extend():
    src = flip_source(2, Fraction(1, 4))
    assert iid_extend(src, 1) is src
    src2 = iid_extend(src, 2)
    assert src2.x_size == 4 and src2.z_size == 4
    _, inner = renyi2_conditional(src)
    _, inner2 = renyi2_conditional(src2)
    assert inner2 == inner * inner  # collision sum multiplies under products
    _, inner3 = renyi2_conditional(iid_extend(src, 3))
    assert inner3 == inner**3
    with pytest.raises(ValueError):
        iid_extend(src, 0)
    with pytest.raises(BudgetExceeded):
        iid_extend(src, 3, budget=10)


def test_pa_joint_point_mass():
    f = affine(2, 2)
    x0 = f.x_labels[2]
    p = [[Fraction(1) if x == x0 else Fraction(0)] for x in f.x_labels]
    src = JointSource(f.x_labels, ["z0"], p)
    joint = pa_joint(src, f)
    # mass sits uniformly on the |S| pairs (s, f(x0, s))
    for si, s in enumerate(f.s_labels):
        for ai, a in enumerate(f.a_labels):
            expect = Fraction(1, f.s_size) if f.evaluate(x0, s) == a else 0
            assert joint.p[0][si][ai] == expect
    assert joint.independence_verified


def test_pa_joint_alphabet_mismatch():
    src = uniform_source([0, 1])
    with pytest.raises(AlphabetMismatch):
        pa_joint(src, affine(2, 2))


def test_security_distance_matches_oracle():
    src = flip_source(2, Fraction(1, 4))
    src2 = iid_extend(src, 2)
    f = relabel_points(affine(2, 2), src2.x_labels)
    joint = pa_joint(src2, f)
    dist, witness = security_distance(joint)
    assert dist == oracle_security_distance(src2, f)
    assert witness[0] != witness[1]


def test_security_distance_zero_mass_key():
    f = HashFamily("c", [0, 1], [0, 1], [0, 1], lambda x, s: 0)
    joint = pa_joint(uniform_source([0, 1]), f)
    with pytest.raises(ZeroMassKeyValue):
        security_distance(joint)


def test_theorem_radicand_and_bound():
    rad = theorem_radicand(Fraction(1, 3), 2, Fraction(1, 4))
    assert rad == Fraction(2, 3) * 2 * Fraction(1, 4) + Fraction(2, 3) - 1
    assert theorem_bound(Fraction(1, 2), 2, Fraction(1, 2)) == pytest.approx(
        2 * math.sqrt(0.5)
    )
    with pytest.raises(NegativeRadicand):
        theorem_bound(0, 2, Fraction(1, 4))


def test_run_pa_uniform_collapses_to_zero():
    f = affine(2, 3)
    res = run_pa(uniform_source(f.x_labels), f)
    assert res.security_distance == 0
    assert res.radicand == 0
    assert res.theorem_bound == 0.0
    assert res.independence_verified
    assert res.key_marginal == [Fraction(1, 2), Fraction(1, 2)]
    d = res.to_dict()
    assert d["security_distance"] == "0/1"


def test_run_pa_rejects_irregular_family():
    f = toeplitz(2, 1, 2)  # the zero seed breaks (ACFU1)
    with pytest.raises(NotRegular):
        run_pa(uniform_source(f.x_labels), f)


def test_run_pa_single_value_family():
    f = HashFamily("one", [0, 1], [0, 1], ["a"], lambda x, s: "a")
    res = run_pa(uniform_source([0, 1]), f)
    assert res.security_distance == 0
    assert res.security_distance**2 <= 4 * res.radicand


def test_run_pa_bound_dominates_correlated_source():
    src = iid_extend(flip_source(3, Fraction(3, 8)), 2)
    f = relabel_points(transversal(3), src.x_labels)
    res = run_pa(src, f)
    assert res.security_distance**2 <= 4 * res.radicand
    assert res.security_distance == oracle_security_distance(src, f)
