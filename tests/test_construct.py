import random
from fractions import Fraction

import pytest

import mosaichash
import mosaichash.construct as construct
from mosaichash import (
    Group,
    HashFamily,
    Quasigroup,
    affine,
    balanced_epsilon,
    concatenate,
    concatenation_bound,
    double_extension,
    double_extension_parts,
    field_for_order,
    field_multiply,
    field_new,
    krawczyk_lift,
    min_epsilon,
    point_extension,
    regularity_check,
    seed_extension,
    toeplitz,
    transversal,
)
from mosaichash.errors import (
    BudgetExceeded,
    CarrierMismatch,
    DomainError,
    DomainMismatch,
    NotBalanced,
    NotHomomorphic,
    NotLatinSquare,
    TheoremViolation,
    TrivialDomain,
)
from mosaichash.families import INFINITY, FunctionTable, field_group, vector_group
from oracles import (
    ref_concatenate,
    ref_double_extension,
    ref_double_extension_parts,
    ref_point_extension,
    ref_seed_extension,
    ref_transpose,
)
from util import random_latin, random_regular_table, random_table


def test_cyclic_quasigroup():
    q = mosaichash.cyclic_group(range(3))
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
    with pytest.raises(NotLatinSquare):
        Quasigroup([0, 1, 2], [[0, 1, 2], [1, 2], [2, 0, 1, 1]])  # ragged rows
    with pytest.raises(NotLatinSquare):
        Quasigroup([0, 1], [[0, 1], [1, 5]])  # a label outside the carrier
    with pytest.raises(NotLatinSquare):
        Group([0, 1], [[0, 0], [0, 0]], 0)  # a constant add
    with pytest.raises(DomainError):
        Group([0, 1], [[1, 0], [0, 1]], 0)  # 1 is the identity, not 0
    with pytest.raises(DomainError):
        Group([0, 1], [[0, 1], [1, 0]], 7)  # a zero outside the carrier
    with pytest.raises(DomainError):
        mosaichash.cyclic_group([])  # no carrier, so no zero
    with pytest.raises(NotLatinSquare, match="^carrier labels must be distinct$"):
        mosaichash.cyclic_group([0, 0])  # a formula carrier is checked like given rows
    with pytest.raises(DomainError):  # a latin square with identity 0 that is not commutative
        Group(range(5), [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]], 0)


def test_quasigroup_names_its_carrier_for_an_unhashable_label():
    with pytest.raises(NotLatinSquare, match="^carrier labels must be hashable: unhashable"):
        Quasigroup([[0], 1], [[[0], 1], [1, [0]]])


def test_quasigroup_reads_its_rows():
    rows = [["a", "b", "c"], ["c", "a", "b"], ["b", "c", "a"]]  # a o b = b, b o a = c
    q = Quasigroup("abc", rows)
    assert [[q.mul(a, b) for b in "abc"] for a in "abc"] == rows
    assert [[q.div(q.mul(a, b), b) for b in "abc"] for a in "abc"] == [[a] * 3 for a in "abc"]


def test_label_views_reject_a_label_outside_the_carrier():
    q = Quasigroup("abc", [["a", "b", "c"], ["c", "a", "b"], ["b", "c", "a"]])
    g = mosaichash.cyclic_group([0, 1])
    for op, a, b in [(q.mul, "a", "z"), (q.mul, "z", "a"), (q.div, "a", "z"), (q.div, "z", "a"),
                     (g.mul, 0, 5), (g.div, 5, 0), (g.add, 0, 5), (g.sub, 5, 0)]:
        with pytest.raises(DomainError, match="is not in the carrier"):
            op(a, b)


def test_label_views_reject_an_unhashable_label():
    g = mosaichash.cyclic_group([0, 1])
    for op, a, b in [(g.mul, [0], 1), (g.mul, 1, [0]), (g.div, [0], 1), (g.div, 1, [0]),
                     (g.add, [0], 1), (g.add, 1, [0]), (g.sub, [0], 1), (g.sub, 1, [0])]:
        with pytest.raises(DomainError, match=r"\[0\] is not in the carrier"):
            op(a, b)


def test_quasigroup_json_roundtrip():
    q = random_latin(random.Random(2), ["a", "b", "c"])
    q2 = Quasigroup.from_json(q.to_json())
    for a in q.labels:
        for b in q.labels:
            assert q2.mul(a, b) == q.mul(a, b)


def test_quasigroup_build():
    assert mosaichash.cyclic_group(range(4)).mul(3, 2) == 1
    q = vector_group(field_new(2), 2)
    assert q.mul((1, 0), (1, 1)) == (0, 1)
    q2 = Quasigroup([0, 1], [[1, 0], [0, 1]])
    assert q2.mul(0, 0) == 1


def test_seed_extension_regular_and_carrier_check():
    rng = random.Random(4)
    g = random_table(rng, 4, 3, 2)
    f = seed_extension(g, mosaichash.cyclic_group(range(2)))
    assert f.s_size == g.s_size * 2
    assert regularity_check(f).regular  # (ACFU1) holds for any g
    with pytest.raises(CarrierMismatch):
        seed_extension(g, mosaichash.cyclic_group(range(3)))


def test_point_extension_warns_on_irregular_input():
    f = HashFamily("c", [0, 1], [0, 1], [0, 1], lambda x, s: 0)
    with pytest.warns(UserWarning):
        point_extension(f, mosaichash.cyclic_group(range(2)))
    g = transversal(2)
    fx = point_extension(g, mosaichash.cyclic_group(range(2)))
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


def test_balanced_epsilon_rejects_an_empty_seed_set():
    f = FunctionTable(range(3), [], range(2), [[], [], []]).to_family("empty")
    f.a_group = mosaichash.cyclic_group(range(2))
    for build in (balanced_epsilon, double_extension):
        with pytest.raises(TrivialDomain, match="empty seed set"):
            build(f)


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
    via_seed = seed_extension(g1, grp)
    via_point = point_extension(g2, grp)
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


@pytest.mark.parametrize("use", [double_extension, double_extension_parts, balanced_epsilon])
def test_a_family_without_a_value_group_is_not_balanced(use):
    f = FunctionTable([0, 1], [0], [0, 1], [[0], [1]]).to_family()
    with pytest.raises(NotBalanced, match="has no designated group on its value set"):
        use(f)


@pytest.mark.parametrize("use", [double_extension, balanced_epsilon, krawczyk_lift,
                                 lambda f: min_epsilon(f, "BALANCED")],
                         ids=["double_extension", "balanced_epsilon", "krawczyk_lift", "BALANCED"])
def test_an_operation_on_a_foreign_carrier_raises_carrier_mismatch(use):
    f = field_multiply(3, 1, 1)  # values and points 0, 1, 2
    f.a_group = cyclic_group("abc")
    with pytest.raises(CarrierMismatch):
        use(f)
    f.a_group = cyclic_group([0, 1, 2, 3])  # a carrier larger than the value set
    with pytest.raises(CarrierMismatch):
        use(f)


# --- the index formulas against the paper's label formulas (tests/oracles.py) ---


def cyclic_group(labels):
    """Z_n on the labels, in the given order, from its rows."""
    labels = list(labels)
    n = len(labels)
    return Group(labels, [[labels[(i + j) % n] for j in range(n)] for i in range(n)], labels[0])


def table_base():
    rng = random.Random(3)
    rows = [[rng.randrange(3) for _ in range(5)] for _ in range(4)]
    f = FunctionTable(range(4), range(5), [2, 0, 1], rows).to_family("table")
    f.a_group = cyclic_group([0, 1, 2])  # group order differs from the value order
    return f


# one base of each kind, each with a group on its value set
BASES = {
    "named": lambda: field_multiply(2, 3, 2),
    "user fn": lambda: HashFamily("user", range(5), range(6), ["c", "a", "b"],
                                  lambda x, s: "abc"[(x * s + s // 3) % 3],
                                  a_group=cyclic_group("abc")),
    "to_family": table_base,
}


def assert_same_family(f, ref):
    """Labels, the whole table and evaluate on every entry all match ref."""
    (X, S, A), rows = ref
    assert (list(f.x_labels), list(f.s_labels), list(f.a_labels)) == (X, S, A)
    assert [[A[e] for e in row] for row in f.to_table().array.tolist()] == rows
    assert [[f.evaluate(x, s) for s in S] for x in X] == rows


def rotated(labels):
    return list(labels[1:]) + [labels[0]]


@pytest.mark.filterwarnings("ignore:point extension of irregular")
@pytest.mark.parametrize("kind", BASES)
def test_constructions_match_the_label_formulas(kind):
    g = BASES[kind]()
    # an isotope quasigroup whose label order is not the value order
    q = random_latin(random.Random(len(kind)), rotated(g.a_labels))
    assert q.labels != g.a_labels
    assert_same_family(seed_extension(g, q), ref_seed_extension(g, q))
    assert_same_family(point_extension(g, q), ref_point_extension(g, q))
    assert_same_family(g.transpose(), ref_transpose(g))
    assert_same_family(double_extension(g, allow_trivial=True), ref_double_extension(g))
    for part, ref in zip(double_extension_parts(g), ref_double_extension_parts(g)):
        assert_same_family(part, ref)


def second_stage(kind, f1):
    """A family on f1's values whose point order is not f1's value order."""
    points = rotated(f1.a_labels)
    if kind == "named":  # f1 = field_multiply(2,3,2): values are pairs over F_2
        return HashFamily("user2", points, range(3), [0, 1],
                          lambda y, s: (y[0] + y[1] * s) % 2)
    if kind == "user fn":
        rng = random.Random(5)
        rows = [[rng.randrange(2) for _ in range(4)] for _ in points]
        return FunctionTable(points, range(4), ["u", "v"], rows).to_family("table2")
    return field_multiply(3, 1, 1)  # points 0, 1, 2 against f1's values 2, 0, 1


@pytest.mark.parametrize("kind", BASES)
def test_concatenation_matches_the_label_formula(kind):
    f1 = BASES[kind]()
    f2 = second_stage(kind, f1)
    assert f2.x_labels != f1.a_labels and set(f2.x_labels) == set(f1.a_labels)
    assert_same_family(concatenate(f1, f2), ref_concatenate(f1, f2))


def test_seed_extension_evaluates_above_the_table_budget():
    t = transversal(64, include_infinity=True)
    q = random_latin(random.Random(12), rotated(t.a_labels))
    f = seed_extension(t, q)
    with pytest.raises(BudgetExceeded):
        f.to_table()
    # in GF(2^6) adding element indices is XOR and the element 1 has index 32
    rng = random.Random(13)
    for _ in range(200):
        h, y, s1, s2, b = rng.choice([0, 32, INFINITY]), *(rng.randrange(64) for _ in range(4))
        want = q.mul({0: s2 ^ y, 32: s2 ^ s1 ^ y, INFINITY: s1 ^ y}[h], b)
        assert f.evaluate((h, y), ((s1, s2), b)) == want
    assert f._table is None and t._table is None
