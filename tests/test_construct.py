import random
from fractions import Fraction

import pytest

import mosaichash.construct as construct
from mosaichash import (
    HashFamily,
    Quasigroup,
    affine,
    balanced_epsilon,
    concatenate,
    concatenation_bound,
    cyclic_quasigroup,
    double_extension,
    double_extension_parts,
    field_for_order,
    field_multiply,
    group_quasigroup,
    krawczyk_lift,
    min_epsilon,
    point_extension,
    quasigroup_build,
    regularity_check,
    seed_extension,
    toeplitz,
    transversal,
)
from mosaichash.errors import (
    CarrierMismatch,
    DomainMismatch,
    NotBalanced,
    NotHomomorphic,
    NotLatinSquare,
    TheoremViolation,
)
from mosaichash.families import field_group
from util import random_latin, random_regular_table, random_table


def test_cyclic_quasigroup():
    q = cyclic_quasigroup(3)
    assert q.mul(1, 2) == 0
    assert q.div(0, 2) == 1  # 1 o 2 = 0
    for a in range(3):
        for b in range(3):
            assert q.mul(q.div(a, b), b) == a


def test_latin_square_validation():
    with pytest.raises(NotLatinSquare):
        Quasigroup([0, 1], [[0, 0], [1, 0]])  # repeated entry in a row
    with pytest.raises(NotLatinSquare):
        Quasigroup([0, 1], [[0, 1], [0, 1]])  # repeated entry in a column
    with pytest.raises(NotLatinSquare):
        Quasigroup([0, 0], [[0, 0], [0, 0]])
    with pytest.raises(NotLatinSquare):
        Quasigroup([0, 1], [[0, 1]])


def test_quasigroup_json_roundtrip():
    q = random_latin(random.Random(2), ["a", "b", "c"])
    q2 = Quasigroup.from_json(q.to_json())
    for a in q.labels:
        for b in q.labels:
            assert q2.mul(a, b) == q.mul(a, b)


def test_quasigroup_build():
    assert quasigroup_build("cyclic", n=4).mul(3, 2) == 1
    q = quasigroup_build("elementary_abelian", p=2, m=2)
    assert q.mul((1, 0), (1, 1)) == (0, 1)
    q2 = quasigroup_build("table", labels=[0, 1], rows=[[1, 0], [0, 1]])
    assert q2.mul(0, 0) == 1
    with pytest.raises(NotLatinSquare):
        quasigroup_build("nosuch")


def test_seed_extension_regular_and_carrier_check():
    rng = random.Random(4)
    g = random_table(rng, 4, 3, 2)
    f = seed_extension(g, cyclic_quasigroup(2))
    assert f.s_size == g.s_size * 2
    assert regularity_check(f).regular  # (ACFU1) holds for any g
    with pytest.raises(CarrierMismatch):
        seed_extension(g, cyclic_quasigroup(3))


def test_point_extension_warns_on_irregular_input():
    f = HashFamily("c", [0, 1], [0, 1], [0, 1], lambda x, s: 0)
    with pytest.warns(UserWarning):
        point_extension(f, cyclic_quasigroup(2))
    g = transversal(2)
    fx = point_extension(g, cyclic_quasigroup(2))
    assert fx.x_size == g.x_size * 2
    assert regularity_check(fx).regular


def test_concatenation_bound_formula():
    assert concatenation_bound(Fraction(1, 2), Fraction(1, 3), 2) == Fraction(2, 3)
    assert concatenation_bound(1, 1, 3) == 3


def test_concatenate_domain_mismatch():
    f1 = affine(2, 2)  # values in F_2
    f2 = transversal(3)  # points are pairs
    with pytest.raises(DomainMismatch):
        concatenate(f1, f2)


def test_concatenate_respects_bound():
    rng = random.Random(6)
    f1 = random_regular_table(rng, 4, 4, 2)
    f2 = random_regular_table(rng, 2, 4, 2)
    eps1 = min_epsilon(f1, "ASU")[0]
    eps2 = min_epsilon(f2, "ACFU")[0]
    f = concatenate(f1, f2)
    assert f.s_size == 16 and f.x_size == 4
    assert min_epsilon(f, "ACFU")[0] <= concatenation_bound(eps1, eps2, 2)


def test_balanced_epsilon_values():
    g = field_multiply(2, 3, 1, exclude_zero=True)
    eps, (y, y2, b) = balanced_epsilon(g)
    assert eps == Fraction(4, 7)
    diff = sum(
        1
        for h in g.s_labels
        if (g.evaluate(y, h)[0] - g.evaluate(y2, h)[0]) % 2 == b[0]
    )
    assert Fraction(diff, g.s_size) == eps
    plain = random_table(random.Random(1), 3, 4, 2)
    with pytest.raises(NotBalanced):
        balanced_epsilon(plain)


def test_balanced_epsilon_of_one_point_family_is_zero():
    field = field_for_order(3)
    f = HashFamily("one point", [0], field.elements(), field.elements(),
                   lambda x, s: s, a_group=field_group(field))
    assert balanced_epsilon(f) == (Fraction(0), None)


def test_krawczyk_lift_is_asu():
    g = toeplitz(2, 1, 2)
    lifted, eps = krawczyk_lift(g)
    assert eps == Fraction(1, 2)
    assert min_epsilon(lifted, "ASU")[0] <= eps
    assert lifted.s_size == g.s_size * g.a_size
    with pytest.raises(NotBalanced):
        krawczyk_lift(g, eps=Fraction(1, 4))  # tighter than g can deliver


def test_krawczyk_lift_raises_when_the_lift_misses_its_guarantee(monkeypatch):
    real = construct.min_epsilon

    def inflated(f, hash_class, budget):
        eps, w = real(f, hash_class, budget)
        return (eps + Fraction(1, 8), w) if hash_class == "ASU" else (eps, w)

    monkeypatch.setattr(construct, "min_epsilon", inflated)
    with pytest.raises(TheoremViolation):
        krawczyk_lift(toeplitz(2, 1, 2))


def test_krawczyk_lift_needs_linearity():
    rng = random.Random(8)
    plain = random_table(rng, 3, 4, 2)
    with pytest.raises(NotHomomorphic):
        krawczyk_lift(plain)


def test_double_extension_equals_both_extensions():
    a = field_multiply(3, 1, 1)  # a(y, h) = y * h over F_3
    f = double_extension(a)
    g1, g2 = double_extension_parts(a)
    grp = a.a_group
    q = group_quasigroup(grp)
    via_seed = seed_extension(g1, q)
    via_point = point_extension(g2, q)
    for x in f.x_labels:
        for s in f.s_labels:
            assert f.evaluate(x, s) == via_seed.evaluate(x, s)
            (y, b), (h, c) = x, s
            assert f.evaluate(x, s) == via_point.evaluate((y, b), (h, c))
    assert min_epsilon(f, "ACFU")[0] == balanced_epsilon(a)[0]


def test_double_extension_rejects_trivially_balanced():
    grp_labels = [0, 1]
    a = HashFamily(
        "id", [0, 1], ["h"], grp_labels, lambda y, h: y,
        a_group=affine(2, 1).a_group,
    )
    with pytest.raises(NotBalanced):
        double_extension(a)
    f = double_extension(a, allow_trivial=True)
    assert f.x_size == 4 and f.s_size == 2
