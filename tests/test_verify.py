import random
from collections import Counter
from fractions import Fraction

import pytest

from mosaichash import (
    HashFamily,
    affine,
    balanced_epsilon,
    classify,
    dual_affine,
    field_multiply,
    min_epsilon,
    optimal_epsilon,
    regularity_check,
    seed_lower_bounds,
    toeplitz,
    transversal,
)
from mosaichash.errors import (
    InfeasibleEpsilon,
    NotHomomorphic,
    NotRegular,
    TrivialDomain,
)
from mosaichash import verify
from mosaichash.families import Group
from mosaichash.verify import rational_str
from oracles import (
    oracle_balanced_epsilon,
    oracle_eps_acfu,
    oracle_eps_asu,
    oracle_eps_au,
    oracle_regular,
    oracle_witness,
)
from util import random_regular_table, random_table


def test_constant_family_is_not_regular():
    f = HashFamily("c", [0, 1], [0, 1], [0, 1], lambda x, s: 0)
    rep = regularity_check(f)
    assert not rep.regular
    assert rep.counts[(0, 0)] == 2 and rep.counts[(0, 1)] == 0


def test_regularity_of_builtins():
    for f in (affine(2, 2), transversal(3), dual_affine(2, 2)):
        rep = regularity_check(f)
        assert rep.regular
        assert rep.block_size == f.s_size // f.a_size
        assert oracle_regular(f)
    # the zero seed maps everything to zero, so Toeplitz hashing is irregular
    assert not regularity_check(toeplitz(2, 1, 2)).regular


def test_min_epsilon_rejects_irregular_for_acfu_asu():
    f = HashFamily("c", [0, 1], [0, 1], [0, 1], lambda x, s: 0)
    for cls in ("ACFU", "ASU"):
        with pytest.raises(NotRegular):
            min_epsilon(f, cls)
    with pytest.raises(ValueError):
        min_epsilon(f, "XXX")


def test_min_epsilon_builtins_match_oracles():
    for f in (affine(2, 2), dual_affine(2, 2), transversal(2), toeplitz(2, 1, 2)):
        assert min_epsilon(f, "AU")[0] == oracle_eps_au(f)
        if regularity_check(f).regular:
            assert min_epsilon(f, "ACFU")[0] == oracle_eps_acfu(f)
            assert min_epsilon(f, "ASU")[0] == oracle_eps_asu(f)


def _cyclic_group(n):
    return Group(range(n), lambda a, b: (a + b) % n, lambda a: -a % n, 0)


@pytest.mark.parametrize("block", [1, verify._BLOCK])  # one x' per count, or all
def test_epsilons_and_witnesses_match_oracles(monkeypatch, block):
    monkeypatch.setattr(verify, "_BLOCK", block)
    fams = [affine(2, 2), dual_affine(2, 2), transversal(2), toeplitz(2, 1, 2),
            field_multiply(2, 3, 1)]
    rng = random.Random(23)
    for _ in range(30):
        nx, na = rng.randrange(2, 7), rng.randrange(2, 5)
        f = random_regular_table(rng, nx, na * rng.randrange(1, 4), na)
        f.x_group, f.a_group = _cyclic_group(nx), _cyclic_group(na)
        fams.append(f)
    for f in fams:
        for cls in ("AU", "ACFU", "ASU", "BALANCED"):
            want = oracle_witness(f, cls)
            if want is None:
                err = NotHomomorphic if cls == "BALANCED" else NotRegular
                with pytest.raises(err):
                    min_epsilon(f, cls)
            else:
                assert min_epsilon(f, cls) == want, (f.name, cls)
        assert balanced_epsilon(f) == oracle_balanced_epsilon(f), f.name


def test_classify_evaluates_each_entry_once():
    base = affine(3, 2)
    calls = Counter()

    def fn(x, s):
        calls[x, s] += 1
        return base.evaluate(x, s)

    f = HashFamily("counted", base.x_labels, base.s_labels, base.a_labels, fn,
                   x_group=base.x_group, a_group=base.a_group)
    assert classify(f).regular
    assert calls == Counter({(x, s): 1 for x in f.x_labels for s in f.s_labels})


def test_epsilon_ordering_on_random_regular_tables():
    rng = random.Random(11)
    for _ in range(25):
        na = rng.randrange(2, 4)
        f = random_regular_table(rng, rng.randrange(2, 6), na * rng.randrange(1, 4), na)
        au = min_epsilon(f, "AU")[0]
        acfu = min_epsilon(f, "ACFU")[0]
        asu = min_epsilon(f, "ASU")[0]
        assert au <= acfu <= asu
        assert au >= 0 and asu <= 1


def test_witnesses_attain_their_counts():
    f = transversal(3)
    eps, (x, y) = min_epsilon(f, "AU")
    hits = sum(1 for s in f.s_labels if f.evaluate(x, s) == f.evaluate(y, s))
    assert Fraction(hits, f.s_size) == eps
    eps, (x, y, a) = min_epsilon(f, "ACFU")
    hits = sum(
        1 for s in f.s_labels if f.evaluate(x, s) == a and f.evaluate(y, s) == a
    )
    assert Fraction(hits * f.a_size, f.s_size) == eps


def test_balanced_epsilon_field_multiply():
    # with the zero seed, half the differences land on zero
    g = field_multiply(2, 3, 1)
    assert min_epsilon(g, "BALANCED")[0] == Fraction(1, 2)
    g2 = field_multiply(2, 3, 1, exclude_zero=True)
    assert min_epsilon(g2, "BALANCED")[0] == Fraction(4, 7)


def test_balanced_requires_homomorphism():
    rng = random.Random(3)
    f = random_table(rng, 3, 4, 2)  # no group structure declared
    with pytest.raises(NotHomomorphic):
        min_epsilon(f, "BALANCED")


def test_single_point_domain():
    f = HashFamily("one", [0], [0, 1], [0, 1], lambda x, s: s)
    assert min_epsilon(f, "AU") == (Fraction(0), None)


def test_optimal_epsilon():
    assert optimal_epsilon(4, 2) == Fraction(1, 3)
    assert optimal_epsilon(9, 3) == Fraction(1, 4)
    assert optimal_epsilon(8, 2) == Fraction(3, 7)
    with pytest.raises(TrivialDomain):
        optimal_epsilon(4, 4)
    with pytest.raises(TrivialDomain):
        optimal_epsilon(4, 1)


def test_seed_lower_bounds_exact_values():
    rep = seed_lower_bounds(4, 2, Fraction(1, 3))
    assert rep.lb_variance == 4
    assert rep.lb_simple == 6
    assert rep.lb_ocfu == 6
    assert rep.lb_au == 3
    assert rep.lb_asu_variance is None  # denominator vanishes at optimal eps
    assert rep.lb_asu_simple == 6
    assert not rep.variance_applies  # 1/3 > (4 - 4)/(4 - 2) = 0
    rep2 = seed_lower_bounds(6, 2, Fraction(1, 2))
    assert rep2.lb_variance == 4
    assert rep2.variance_applies  # 1/2 <= (6 - 4)/(6 - 2)
    assert rep2.lb_ocfu is None  # 1/2 is not optimal for (6, 2)


def test_seed_lower_bounds_collapse_at_eps_one():
    # every bound collapses to |A| at eps = 1
    for X, A in ((5, 2), (7, 3), (10, 4)):
        rep = seed_lower_bounds(X, A, 1)
        assert rep.lb_simple == A
        assert rep.lb_asu_simple == A
        assert rep.lb_variance == A


def test_seed_lower_bounds_infeasible():
    with pytest.raises(InfeasibleEpsilon):
        seed_lower_bounds(4, 2, Fraction(1, 4))  # below the optimum 1/3
    with pytest.raises(InfeasibleEpsilon):
        seed_lower_bounds(4, 2, 2)


def test_classify_affine():
    rep = classify(affine(2, 2))
    assert rep.regular and rep.block_size == 3
    assert rep.eps_au == rep.eps_acfu == Fraction(1, 3)
    assert rep.ocfu and rep.ou
    assert rep.equality["ocfu"] and rep.equality["simple"]
    assert not rep.equality["variance"]
    d = rep.to_dict()
    assert d["eps_acfu"] == "1/3"


def test_classify_dual_affine():
    rep = classify(dual_affine(2, 2))
    assert rep.eps_acfu == Fraction(1, 2)
    assert not rep.ocfu
    assert rep.equality["variance"] and rep.equality["simple"]


def test_classify_irregular_marks_not_regular():
    f = HashFamily("c", [0, 1], [0, 1], [0, 1], lambda x, s: 0)
    d = classify(f).to_dict()
    assert d["eps_acfu"] == "NotRegular"
    assert d["eps_asu"] == "NotRegular"


def test_rational_str():
    assert rational_str(Fraction(3, 7)) == "3/7"
    assert rational_str(2) == "2/1"
    assert rational_str(None) is None
