import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mosaichash import (
    FunctionTable,
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
from mosaichash import _count, privacy
from mosaichash._count import exact
from mosaichash.errors import (
    AlphabetMismatch,
    BudgetExceeded,
    NegativeRadicand,
    NotRegular,
    TheoremViolation,
    TrivialDomain,
    ZeroMassKeyValue,
)
from oracles import oracle_p_zsa, oracle_renyi_inner, oracle_security_distance
from util import flip_source, random_regular_table, random_table, relabel_points


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


def test_renyi2_is_plus_zero_where_z_determines_x():
    src = JointSource([(0,), (1,)], [0, 1], [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    h2, inner = renyi2_conditional(src)
    assert inner == 1 and h2 == 0.0 and math.copysign(1.0, h2) == 1.0


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


def test_run_pa_rejects_an_empty_seed_set():
    f = FunctionTable(range(3), [], range(2), [[], [], []]).to_family("no seeds")
    with pytest.raises(TrivialDomain, match="empty seed set"):
        run_pa(uniform_source([0, 1, 2]), f)
    with pytest.raises(TrivialDomain, match="empty seed set"):
        pa_joint(uniform_source([0, 1, 2]), f)


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


def test_run_pa_violation_names_family_distance_radicand_and_witness(monkeypatch):
    src = iid_extend(flip_source(2, Fraction(1, 4)), 2)
    f = relabel_points(affine(2, 2), src.x_labels)
    rad = run_pa(src, f).radicand
    monkeypatch.setattr(privacy, "security_distance",
                        lambda joint: (Fraction(5, 2), ("w0", "w1")))
    with pytest.raises(TheoremViolation) as exc:
        run_pa(src, f)
    msg = str(exc.value)
    for part in (f.name, "5/2", str(rad), "('w0', 'w1')"):
        assert part in msg
    assert "Fraction" not in msg and len(msg) < 200


NAMED = [affine(2, 2), affine(3, 1), transversal(3), transversal(2, include_infinity=True)]


def random_source(rng, x_labels, nz):
    """Seeded p_XZ with zero cells and one all-zero z letter, which is dropped."""
    w = [[rng.choice([0, rng.randint(1, 20)]) for _ in range(nz)] for _ in x_labels]
    w[rng.randrange(len(w))][rng.randrange(nz)] += 1
    dead = rng.randrange(nz + 1)
    total = sum(map(sum, w))
    rows = [r[:dead] + [0] + r[dead:] for r in w]
    with pytest.warns(UserWarning):
        return JointSource(x_labels, [f"z{j}" for j in range(nz + 1)],
                           [[Fraction(v, total) for v in r] for r in rows])


def assert_matches_oracles(src, f):
    """Every integer formula equals the naive Fraction loops of tests/oracles.py."""
    joint = pa_joint(src, f)
    cells = oracle_p_zsa(src, f)
    assert joint.p == [[[cells.get((z, s, a), 0) for a in f.a_labels] for s in f.s_labels]
                       for z in src.z_labels]
    assert joint.key_marginal == [sum(v for (_, _, a), v in cells.items() if a == b)
                                  for b in f.a_labels]
    z_mass = src.z_marginal()
    dependent = [(z, a) for z, m in zip(src.z_labels, z_mass) for a in f.a_labels
                 if sum(cells.get((z, s, a), 0) for s in f.s_labels) != m / f.a_size]
    assert joint.independence_verified == (not dependent)
    assert joint.independence_witness == (dependent[0] if dependent else None)
    assert renyi2_conditional(src)[1] == oracle_renyi_inner(src)
    if all(joint.key_marginal):
        assert security_distance(joint)[0] == oracle_security_distance(src, f)
    return joint


@pytest.mark.parametrize("seed", range(30))
def test_integer_joint_matches_oracles_on_random_sources(seed):
    rng = random.Random(seed)
    na = rng.randint(1, 3)
    if seed % 2:
        f = NAMED[seed // 2 % len(NAMED)]
    else:
        f = random_regular_table(rng, rng.randint(2, 6), na * rng.randint(1, 3), na)
    src = random_source(rng, f.x_labels, rng.randint(1, 4))
    assert src.num.dtype == np.int64 and 1 <= src.z_size <= 4
    assert assert_matches_oracles(src, f).independence_verified  # (ACFU1) holds
    if seed % 3 == 0:  # irregular tables: the dependence witness and zero-mass keys
        g = random_table(rng, f.x_size, rng.randint(1, 4), rng.randint(2, 3))
        assert_matches_oracles(JointSource(g.x_labels, src.z_labels, src.p), g)


def test_iid_extend_is_the_hand_product():
    src = random_source(random.Random(5), [0, 1, 2], 2)
    for n in (2, 3, 5):  # 5 = 0b101 takes both branches of the repeated squaring
        ext = iid_extend(src, n)
        xs = list(itertools.product(range(src.x_size), repeat=n))
        zs = list(itertools.product(range(src.z_size), repeat=n))
        assert ext.x_labels == tuple(tuple(src.x_labels[i] for i in ix) for ix in xs)
        assert ext.z_labels == tuple(tuple(src.z_labels[j] for j in jz) for jz in zs)
        assert ext.p == [[math.prod(src.p[i][j] for i, j in zip(ix, jz)) for jz in zs]
                         for ix in xs]


def test_denominators_beyond_int64_take_python_ints():
    rng = random.Random(11)
    f = affine(2, 2)
    den = 3**45  # above 2^64
    w = [[rng.randrange(den // 12) for _ in range(3)] for _ in f.x_labels]
    w[0][0] += den - sum(map(sum, w))  # the counts sum to den
    src = JointSource(f.x_labels, "abc", [[Fraction(v, den) for v in r] for r in w])
    assert src.den == den and src.num.dtype == object
    joint = assert_matches_oracles(src, f)
    assert joint.num.dtype == object
    back = JointSource.from_json(src.to_json())
    assert back.p == src.p and back.num.dtype == object
    assert_matches_oracles(back, f)
    # an i.i.d. power whose denominator den**n passes 2^63 leaves int64 too
    a, b, c = (rng.randrange(1, 3**25 // 4) for _ in range(3))
    small = JointSource([0, 1], [0, 1], [[Fraction(a, 3**25), Fraction(b, 3**25)],
                                         [Fraction(c, 3**25), Fraction(3**25 - a - b - c, 3**25)]])
    assert small.num.dtype == np.int64 and small.den**2 > 2**63
    ext = iid_extend(small, 2)
    assert ext.num.dtype == object
    assert_matches_oracles(ext, relabel_points(affine(2, 2), ext.x_labels))
    assert renyi2_conditional(ext)[1] == renyi2_conditional(small)[1] ** 2


def test_int64_counts_whose_key_sums_pass_int64():
    """Counts over 2^62 stay int64, but a key's mass over affine(2, 2) reaches
    |S|/|A| den = 3 * 2^62; those sums must not wrap."""
    rng = random.Random(13)
    f = affine(2, 2)
    den = 2**62
    w = [[rng.randrange(den // 8) for _ in range(2)] for _ in f.x_labels]
    w[0][0] += den - sum(map(sum, w))
    src = JointSource(f.x_labels, "ab", [[Fraction(v, den) for v in r] for r in w])
    assert src.den == den and src.num.dtype == np.int64
    joint = assert_matches_oracles(src, f)
    assert joint.num.dtype == np.int64 and joint.independence_verified
    assert run_pa(src, f).key_marginal == [Fraction(1, 2)] * 2
    half = 2**31
    a, b, c = (rng.randrange(1, half // 4) for _ in range(3))
    small = JointSource([0, 1], [0, 1], [[Fraction(a, half), Fraction(b, half)],
                                         [Fraction(c, half), Fraction(half - a - b - c, half)]])
    ext = iid_extend(small, 2)
    assert ext.den == den and ext.num.dtype == np.int64
    g = relabel_points(f, ext.x_labels)
    assert assert_matches_oracles(ext, g).independence_verified
    assert run_pa(ext, g).key_marginal == [Fraction(1, 2)] * 2


def test_iid_extend_refuses_a_huge_power_at_once():
    three = JointSource("abc", [0], [[Fraction(1, 3)]] * 3)
    one = JointSource(["a"], [0], [[Fraction(1)]])
    for src, n, why in ((three, 10**8, "100000000-tuple labels exceed"),
                        (one, 10**8, "100000000-tuple labels exceed"),
                        (three, 10**4, "product alphabet of 10000 factors reaches 1594323 cells,"
                                       " exceeds")):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=f"^{why} budget 1000000$"):
            iid_extend(src, n)
        assert time.perf_counter() - start < 1
    start = time.perf_counter()
    ext = iid_extend(one, 10**5)  # within budget: O(log n) Kronecker products
    assert time.perf_counter() - start < 1
    assert ext.x_labels == (("a",) * 10**5,) and ext.num.tolist() == [[1]] and ext.den == 1


def counts_source(x_labels, z_labels, w):
    """The source whose counts are the rows w, over their total."""
    total = sum(map(sum, w))
    return JointSource(x_labels, z_labels, [[Fraction(v, total) for v in r] for r in w])


def incidence_blocks(monkeypatch):
    """The shapes of the incidence blocks that _count's joint product builds from here on."""
    real, built = _count.incidence, []
    monkeypatch.setattr(_count, "incidence", lambda *a: built.append(a[0].shape) or real(*a))
    return built


@pytest.mark.parametrize("w, product", [
    ([[2**53 - 23, 2], [4, 6], [8, 1], [2, 0]], True),  # den = 2^53: float64 is exact
    ([[2**53 + 1, 2], [4, 6], [8, 1], [3, 5]], False),  # den = 2^53 + 30: float64 would round
])
def test_joint_counts_around_2_53(w, product, monkeypatch):
    """The shape is on the product's side, so den alone chooses the kernel."""
    f = affine(2, 2)
    built = incidence_blocks(monkeypatch)
    src = counts_source(f.x_labels, "ab", w)
    assert src.den == sum(map(sum, w)) and src.num.dtype == np.int64
    joint = assert_matches_oracles(src, f)
    assert joint.num.dtype == np.int64 and joint.independence_verified
    assert bool(built) is product


@pytest.mark.parametrize("bound, product, want", [
    (2**24, True, np.float32), (2**24 + 1, True, np.float64),
    (2**53, True, np.float64), (2**53 + 1, True, np.int64),
    (2**63 - 1, True, np.int64), (2**63, True, object),
    *((b, False, np.int64) for b in (2**24, 2**24 + 1, 2**53, 2**53 + 1, 2**63 - 1)),
    (2**63, False, object),
])
def test_exact_takes_the_smallest_dtype_that_holds_the_bound(bound, product, want):
    assert exact(bound, product) is want
    if want is not object:
        assert int(np.array(bound).astype(want)) == bound


@pytest.mark.parametrize("w, dtype", [
    ([[2**24 - 3], [2], [1], [0]], np.float32),  # den = 2^24: every cell fits float32
    ([[2**24 - 1], [2], [0], [0]], np.float64),  # den = 2^24 + 1: float32 rounds that cell
])
def test_joint_counts_around_2_24(w, dtype, monkeypatch):
    f = affine(2, 2)
    built = incidence_blocks(monkeypatch)
    src = counts_source(f.x_labels, "z", w)
    assert src.den == sum(map(sum, w)) and exact(src.den, product=True) is dtype
    joint = assert_matches_oracles(src, f)
    assert joint.num.dtype == np.int64 and joint.independence_verified
    assert built  # the shape is on the product's side


@pytest.mark.parametrize("m0, reduced_fits", [(3 * 2**59, True), (2**60 + 1, False)])
def test_distance_of_unequal_key_masses(m0, reduced_fits):
    """One seed, so key a carries exactly the row of x = a, and m_a is that
    row's mass.  The unreduced cross products P_0 m_1 pass 2^63; with
    g = gcd(m_0, m_1) the reduced sum, at most 2 m_0 m_1 / g, stays in int64
    for m_1 = 2^59 | m_0 and passes it for coprime masses."""
    f = FunctionTable([0, 1], ["s"], ["k0", "k1"], [[0], [1]]).to_family("split")
    m1 = 2**61 - m0
    src = counts_source(f.x_labels, "uvw", [[m0 // 3, m0 // 3, m0 - 2 * (m0 // 3)],
                                            [m1 // 5, 3 * (m1 // 5), m1 - 4 * (m1 // 5)]])
    assert src.den == 2**61 and src.num.dtype == np.int64
    joint = pa_joint(src, f)
    assert not joint.independence_verified and joint.key_marginal == [Fraction(m0, 2**61),
                                                                      Fraction(m1, 2**61)]
    assert int(src.num.max()) * m1 > 2**63
    assert (2 * m0 * m1 // math.gcd(m0, m1) < 2**63) is reduced_fits
    dist, witness = security_distance(joint)
    assert dist == oracle_security_distance(src, f) and witness == ("k0", "k1")


@pytest.mark.parametrize("block", [None, 1])  # as shipped, or one seed or one z per block
@pytest.mark.parametrize("nz, na, product", [
    (1, 2, True), (1, 3, False), (3, 6, True), (2, 5, False), (40, 64, True), (30, 65, False),
])
def test_both_joint_kernels_match_the_oracle(nz, na, product, block, monkeypatch):
    """Products while |A| <= 2|Z| and |A| <= 64, else the scatter."""
    if block:
        monkeypatch.setattr(_count, "GRAM_BLOCK", block)
        monkeypatch.setattr(_count, "PAIR_BLOCK", block)
    built = incidence_blocks(monkeypatch)
    rng = random.Random(100 * nz + na)
    f = random_table(rng, 5, 7, na)
    src = counts_source(f.x_labels, range(nz), [[rng.randint(1, 9) for _ in range(nz)]
                                               for _ in f.x_labels])
    assert src.z_size == nz
    assert_matches_oracles(src, f)
    blocks = [(5, 1)] * 7 if block else [(5, 7)]  # the product's blocks: one seed each, or all
    assert built == (blocks if product else [])


def test_pa_joint_peak_memory_stays_near_the_joint():
    """|X| = |S| = |A| = 1024 and |Z| = 2: a full one-hot table would hold
    2^30 cells, the joint holds 2^21."""
    rng = np.random.default_rng(7)
    n = 1024
    T = rng.integers(0, n, (n, n))
    f = FunctionTable(range(n), range(n), range(n), T).to_family("wide")
    src = counts_source(f.x_labels, "ab", rng.integers(1, 1000, (n, 2)).tolist())
    tracemalloc.start()
    try:
        joint = pa_joint(src, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * joint.num.nbytes + f.to_table().array.nbytes
    for s in (0, 517, n - 1):  # the seed's cells, summed directly
        cells = np.zeros((2, n), dtype=np.int64)
        for x in range(n):
            cells[:, T[x, s]] += src.num[x]
        assert np.array_equal(joint.num[:, s, :], cells)
    assert joint.num.sum() == src.den * n


def test_distance_witness_is_the_first_strict_maximum():
    f = FunctionTable([0, 1, 2], ["s"], ["k0", "k1", "k2"], [[0], [1], [2]]).to_family("id")
    third = Fraction(1, 3)
    seen = JointSource(f.x_labels, "abc", [[third if x == z else 0 for z in range(3)]
                                           for x in range(3)])
    assert security_distance(pa_joint(seen, f)) == (2, ("k0", "k1"))  # every pair is at 2
    assert security_distance(pa_joint(uniform_source(f.x_labels), f)) == (0, ("k0", "k0"))
