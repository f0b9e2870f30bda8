import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from mosaichash import (
    FunctionTable,
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
    BudgetExceeded,
    InfeasibleEpsilon,
    NotAnAutomorphism,
    NotHomomorphic,
    NotRegular,
    TrivialDomain,
)
from mosaichash import _count, verify
from mosaichash.families import Group, cyclic_group, vector_group
from mosaichash.fields import field_new
from mosaichash.verify import rational_str
from oracles import (
    _oracle_homomorphic,
    oracle_balanced_epsilon,
    oracle_eps_acfu,
    oracle_eps_asu,
    oracle_eps_au,
    oracle_regular,
    oracle_witness,
)
from util import KERNELS, force_kernel, planted_cyclic_table, random_regular_table, random_table


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
    return Group(range(n), [[(a + b) % n for b in range(n)] for a in range(n)], 0)


def _linear_out_of_order(n, name="linear"):
    """f(x, s) = x * s mod n over Z_n, its points and values listed out of group order."""
    xs, values = [*range(1, n), 0], list(range(n))[::-1]
    rows = [[values.index(x * s % n) for s in range(n)] for x in xs]
    f = FunctionTable(xs, range(n), values, rows).to_family(name)
    f.x_group = f.a_group = _cyclic_group(n)
    return f


ONE_HOT = _count.ONE_HOT  # as shipped, read before a test patches it


def _spy_on_products(monkeypatch):
    """The list of one-hot operands that _count builds from here on."""
    real, built = _count.one_hot, []
    monkeypatch.setattr(_count, "one_hot", lambda *a: built.append(a[0].shape) or real(*a))
    return built


@pytest.mark.parametrize("kernel, block, gram", [
    (None, _count.PAIR_BLOCK, None),  # as shipped: each side of ONE_HOT
    ("bincount", 1, None), ("bincount", _count.PAIR_BLOCK, None),  # one x' per count, or all
    # tiles of all rows; of one row, one x' and one seed; of two representatives of three
    ("product", _count.PAIR_BLOCK, None), ("product", _count.PAIR_BLOCK, 1),
    ("product", _count.PAIR_BLOCK, 64)])
def test_epsilons_and_witnesses_match_oracles(monkeypatch, kernel, block, gram):
    monkeypatch.setattr(_count, "PAIR_BLOCK", block)
    if kernel:
        force_kernel(monkeypatch, kernel, gram)
    built = _spy_on_products(monkeypatch)
    fams = [affine(2, 2), dual_affine(2, 2), transversal(2), toeplitz(2, 1, 2),
            field_multiply(2, 3, 1), *(_linear_out_of_order(n) for n in (3, 4, 5))]
    # 9 rows with representatives 0, 3 and 6: 64 entries hold the tile (0, 3) of 8 rows x' each
    fams.append(planted_cyclic_table(random.Random(5), 3, 3, 2, 2))
    fams[-1].a_group = _cyclic_group(2)
    doubled = HashFamily("2x != x + x", [0, 1], range(3), range(3), lambda x, s: x * s % 3,
                         x_group=_cyclic_group(2), a_group=_cyclic_group(3))
    fams.append(doubled)  # linear on every pair but (1, 1): f(1 + 1) = 0 != 2 f(1)
    rng = random.Random(23)
    for _ in range(30):
        nx, na = rng.randrange(2, 7), rng.randrange(2, 5)
        f = random_regular_table(rng, nx, na * rng.randrange(1, 4), na)
        f.x_group, f.a_group = _cyclic_group(nx), _cyclic_group(na)
        fams.append(f)
    rng = random.Random(29)
    for _ in range(20):
        k, na = rng.randrange(2, 4), rng.randrange(2, 4)
        f = planted_cyclic_table(rng, k, rng.randrange(2, 4), na * rng.randrange(1, 3), na)
        f.a_group = _cyclic_group(na)
        fams.append(f)
    # value sets as large as the seed set or larger, regular and irregular
    rng = random.Random(41)
    for na, ns in ((5, 1), (6, 2), (33, 1), (40, 2), (33, 33)):
        build = random_regular_table if ns == na else random_table
        f = build(rng, rng.randrange(2, 5), ns, na)
        f.x_group, f.a_group = _cyclic_group(f.x_size), _cyclic_group(na)
        fams.append(f)
    for na in (ONE_HOT, ONE_HOT + 1):  # regular, on each side of the crossover
        f = random_regular_table(rng, 2 * na, na, na)
        f.x_group, f.a_group = _cyclic_group(f.x_size), _cyclic_group(na)
        fams.append(f)
    late = 0  # planted class maxima first reached in a later orbit representative
    for f in fams:
        for cls in ("AU", "ACFU", "ASU", "BALANCED"):
            want = oracle_witness(f, cls)
            if want is None:
                err = NotHomomorphic if cls == "BALANCED" else NotRegular
                with pytest.raises(err):
                    min_epsilon(f, cls)
            else:
                assert min_epsilon(f, cls) == want, (f.name, cls)
                late += f.name == "planted" and cls != "BALANCED" and want[1][0] != f.x_labels[0]
        assert balanced_epsilon(f) == oracle_balanced_epsilon(f), f.name
    assert late > 0
    assert bool(built) == (kernel != "bincount")


def _outcome(f, cls):
    try:
        return min_epsilon(f, cls)
    except NotRegular:
        return NotRegular


LADDER = [*((affine, (q, 2)) for q in (2, 3, 4, 5, 7, 8)), (affine, (4, 3)),
          (transversal, (8, None, True)), (transversal, (16, None, True)),
          (field_multiply, (2, 6, 3)),
          *((dual_affine, (q, t)) for q, t in ((2, 2), (3, 2), (4, 2), (8, 2), (16, 2), (2, 4)))]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("build, args", LADDER, ids=[f"{b.__name__}{a}" for b, a in LADDER])
def test_orbit_scan_equals_the_full_scan_of_a_fresh_table(monkeypatch, build, args, kernel):
    force_kernel(monkeypatch, kernel)
    f = build(*args)
    small = f.x_size <= 9
    T = f.to_table()
    fresh = FunctionTable(T.x_labels, T.s_labels, T.a_labels, T.array).to_family()
    assert f.automorphisms and not fresh.automorphisms
    for cls in ("AU", "ACFU", "ASU"):
        got = _outcome(f, cls)
        assert got == _outcome(fresh, cls), (f.name, cls)
        if small:
            assert got == oracle_witness(f, cls), (f.name, cls)


def _linear_family(rng, x_group, a_group, n_seeds, value):
    """value(x, s) as a table, its points and values listed in a shuffled order."""
    xs, values = list(x_group.labels), list(a_group.labels)
    rng.shuffle(xs)
    rng.shuffle(values)
    rows = [[values.index(value(x, s)) for s in range(n_seeds)] for x in xs]
    f = FunctionTable(xs, range(n_seeds), values, rows).to_family("linear")
    f.x_group, f.a_group = x_group, a_group
    return f


def _random_linear_family(rng):
    """A homomorphism per seed from Z_n to Z_m, or from F_2^t to F_2^r."""
    if rng.random() < 0.5:
        n, m = rng.randrange(1, 9), rng.randrange(1, 7)
        scales = [c for c in range(m) if c * n % m == 0]  # x -> c x is well defined on Z_n
        cs = [rng.choice(scales) for _ in range(rng.randrange(1, 5))]
        return _linear_family(rng, cyclic_group(range(n)), cyclic_group(range(m)), len(cs),
                              lambda x, s: x * cs[s] % m)
    t, r = rng.randrange(1, 4), rng.randrange(1, 3)
    ms = [[[rng.randrange(2) for _ in range(t)] for _ in range(r)]
          for _ in range(rng.randrange(1, 4))]
    f2 = field_new(2)

    def value(x, s):
        return tuple(sum(a * b for a, b in zip(row, x)) % 2 for row in ms[s])
    return _linear_family(rng, vector_group(f2, t), vector_group(f2, r), len(ms), value)


def test_linearity_check_agrees_with_the_oracle_on_random_tables():
    rng = random.Random(37)
    linear = 0
    for n in range(400):
        f = _random_linear_family(rng)
        if n % 3 == 0:  # perturb one entry
            rows = f.to_table().array.copy()
            rows[rng.randrange(f.x_size), rng.randrange(f.s_size)] = rng.randrange(f.a_size)
            g = FunctionTable(f.x_labels, f.s_labels, f.a_labels, rows).to_family("perturbed")
            g.x_group, g.a_group = f.x_group, f.a_group
            f = g
        want = _oracle_homomorphic(f)
        linear += want
        assert verify._homomorphic_in_x(f, f.to_table().array) == want
    assert 200 < linear < 400


@pytest.mark.parametrize("build, args", [(field_multiply, (2, 6, 3)), (toeplitz, (3, 2, 3)),
                                         (toeplitz, (2, 2, 4))])
def test_linearity_check_reads_at_most_log2_points(build, args):
    f = build(*args)
    T = f.to_table().array
    calls = Counter()
    op = f.x_group._op

    def counted(i, j):
        calls["op"] += 1
        return op(i, j)
    f.x_group._op = counted
    assert verify._homomorphic_in_x(f, T)
    assert 1 <= calls["op"] <= np.log2(f.x_size)


def test_a_wrong_automorphism_raises_before_any_epsilon():
    f = transversal(4, include_infinity=True)
    *good, (pi, sigma, tau) = f.automorphisms
    swapped = pi[[0, 2, 1, *range(3, len(pi))]]  # pi after the transposition (1 2)
    for bad in (swapped, np.zeros_like(pi)):
        f.automorphisms = (*good, (bad, sigma, tau))
        for cls in ("AU", "ACFU", "ASU"):
            with pytest.raises(NotAnAutomorphism, match=f"automorphism {len(good)} "):
                min_epsilon(f, cls)
        with pytest.raises(NotAnAutomorphism):
            classify(f)


def test_an_irregular_family_with_automorphisms_gets_au_only():
    f = field_multiply(2, 4, 2)  # the zero point is hashed to zero by every seed
    assert f.automorphisms and not regularity_check(f).regular
    for _ in range(2):  # before and after AU is counted
        for cls in ("ACFU", "ASU"):
            with pytest.raises(NotRegular):
                min_epsilon(f, cls)
        assert min_epsilon(f, "AU") == oracle_witness(f, "AU")


def test_irregular_au_counts_no_bin_per_value_pair():
    f = toeplitz(2, 16, 2)  # 4 x 131072, |A| = 65536: |A|^2 int64 bins would take 32 GiB
    T = f.to_table().array
    assert not regularity_check(f).regular
    pairs = [(i, j) for i in range(f.x_size) for j in range(i + 1, f.x_size)]
    agree = [int((T[i] == T[j]).sum()) for i, j in pairs]
    i, j = pairs[agree.index(max(agree))]
    assert min_epsilon(f, "AU") == (Fraction(max(agree), f.s_size), (f.x_labels[i], f.x_labels[j]))


@pytest.mark.parametrize("gram, shape", [(1 << 12, (64, 1 << 13)), (16, (12, 40))])
def test_pair_counts_hold_no_array_larger_than_a_few_gram_blocks(monkeypatch, gram, shape):
    """The one-hot of all 64 rows would hold 2^21 entries and the whole tile
    2^16: tiles of rows, of one row against blocks of rows x' (16 entries)
    and operands of seeds keep each near GRAM_BLOCK, and both kernels count
    every pair once, in order."""
    monkeypatch.setattr(_count, "GRAM_BLOCK", gram)
    T = np.random.default_rng(3).integers(0, 4, size=shape)
    if gram > 16:
        tracemalloc.start()
        try:
            for _ in _count.pair_counts(T, 4):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * gram
    blocks = {}
    for kernel in KERNELS:
        force_kernel(monkeypatch, kernel)
        blocks[kernel] = [(list(xs), list(ys), counts.tolist())
                          for xs, ys, counts in _count.pair_counts(T, 4)]
    pairs = lambda kernel: [p for xs, ys, _ in blocks[kernel] for p in zip(xs, ys)]
    assert pairs("product") == pairs("bincount") == list(itertools.combinations(range(len(T)), 2))
    counts = lambda kernel: [row for _, _, c in blocks[kernel] for row in c]
    assert counts("product") == counts("bincount")


def test_the_kernel_is_chosen_by_the_crossover(monkeypatch):
    """Products while |A| <= ONE_HOT and ONE_HOT_ROWS * |A| rows are scanned."""
    built = _spy_on_products(monkeypatch)
    rng = random.Random(43)
    for na, nx, product in ((ONE_HOT, 2 * ONE_HOT, True), (ONE_HOT, 2 * ONE_HOT - 1, False),
                            (ONE_HOT + 1, 4 * ONE_HOT, False)):
        built.clear()
        f = random_regular_table(rng, nx, na, na)
        assert min_epsilon(f, "ASU") == oracle_witness(f, "ASU")
        assert bool(built) == product, (na, nx)


def test_classify_builds_no_value_table_larger_than_the_family():
    """|A|^2 = 2^32 entries against |X||S| = 2^19: the linearity check
    evaluates the value group's operation at the entries it reads."""
    f = toeplitz(2, 16, 2)
    tracemalloc.start()
    try:
        rep = classify(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    T = f.to_table().array
    nonzero = [i for i, x in enumerate(f.x_labels) if x != f.x_group.zero]
    hits = max(int(np.bincount(T[i], minlength=f.a_size).max()) for i in nonzero)
    assert rep.eps_balanced == Fraction(hits, f.s_size) == Fraction(1, f.a_size)
    assert not rep.regular and rep.eps_au == min_epsilon(f, "AU")[0]


def test_balanced_epsilon_refuses_a_difference_table_over_budget():
    f = toeplitz(2, 16, 2)
    with pytest.raises(BudgetExceeded, match=r"65536\^2 = 4294967296 entry .* budget 10000000"):
        balanced_epsilon(f)
    with pytest.raises(BudgetExceeded, match=r"8\^2 = 64 entry subtraction table .* budget 20"):
        balanced_epsilon(toeplitz(2, 3, 1), budget=20)  # its own 2 x 8 table fits


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
