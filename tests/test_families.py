import json
import random
import time
import tracemalloc

import numpy as np
import pytest

import mosaichash.families as families
from mosaichash import (
    FunctionTable,
    HashFamily,
    affine,
    build_named,
    classify,
    dual_affine,
    field_for_order,
    field_multiply,
    seed_extension,
    toeplitz,
    transversal,
    transversal_dual_affine_relabeling,
)
from mosaichash.errors import (
    BudgetExceeded,
    DomainError,
    UnsupportedParameters,
)
from mosaichash.families import (
    DEFAULT_TABLE_BUDGET,
    INFINITY,
    cyclic_group,
    decode_label,
    field_group,
    normalized_vectors,
    vector_group,
)
from oracles import (
    RefField,
    oracle_table_json,
    ref_affine,
    ref_dual_affine,
    ref_field_multiply,
    ref_toeplitz,
    ref_transversal,
)
from util import random_table


def test_label_codec_roundtrip():
    labels = [0, "inf", (1, 2), ((0, 1), "z"), ()]
    for lab in labels:
        assert decode_label(json.loads(json.dumps(lab))) == lab
    assert json.loads(json.dumps(labels)) == [0, "inf", [1, 2], [[0, 1], "z"], []]


def test_hash_family_domain_errors():
    f = HashFamily("f", [0, 1], ["s"], [0, 1], lambda x, s: x)
    assert f.evaluate(1, "s") == 1
    with pytest.raises(DomainError):
        f.evaluate(2, "s")
    with pytest.raises(DomainError):
        f.evaluate(0, "t")
    with pytest.raises(DomainError):
        HashFamily("f", [0, 0], ["s"], [0], lambda x, s: 0)
    bad = HashFamily("f", [0, 1], ["s"], [0], lambda x, s: x)
    with pytest.raises(DomainError):
        bad.evaluate(1, "s")  # value outside the declared value set


@pytest.mark.parametrize("domains, which", [
    (([[0]], [0], [0]), "X"), (([0], [0, [1]], [0]), "S"), (([0], [0], [{}]), "A"),
], ids=["X", "S", "A"])
def test_hash_family_names_the_domain_of_an_unhashable_label(domains, which):
    with pytest.raises(DomainError, match=f"^domain {which} labels must be hashable: unhashable"):
        HashFamily("f", *domains, lambda x, s: 0)


def test_constant_family_table():
    f = HashFamily("c", [0, 1], [0, 1], ["a0", "a1"], lambda x, s: "a0")
    T = f.to_table()
    assert all(e == 0 for row in T.array.tolist() for e in row)


def test_table_budget():
    f = affine(2, 2)
    with pytest.raises(BudgetExceeded):
        f.to_table(budget=1)


@pytest.mark.parametrize("build, count, what", [
    (lambda: affine(2, 30), 2**30, "points of affine(2,30)"),
    (lambda: toeplitz(2, 20, 20), 2**39, "seeds of toeplitz(2,20,20)"),
    (lambda: transversal(4096), 4096**2, "points of transversal(4096)"),
])
def test_named_builders_refuse_a_label_set_over_the_budget_before_building_it(build, count, what):
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        build()
    assert time.perf_counter() - start < 1
    assert str(info.value) == f"{count} {what} exceed budget {DEFAULT_TABLE_BUDGET}"


def test_a_table_over_the_budget_with_label_sets_under_it_still_evaluates():
    f = transversal(64, include_infinity=True)
    assert f.x_size * f.s_size > DEFAULT_TABLE_BUDGET
    with pytest.raises(BudgetExceeded):
        f.to_table()
    assert f.evaluate((INFINITY, 1), (2, 3)) == 2 ^ 1  # s1 + y; GF(2^6) adds indices by XOR


def test_cached_table_still_checks_budget():
    f = affine(2, 2)
    assert f.to_table() is f.to_table()
    with pytest.raises(BudgetExceeded):
        f.to_table(budget=f.x_size * f.s_size - 1)


def test_function_table_json_roundtrip():
    T = transversal(2).to_table()
    T2 = FunctionTable.from_json(T.to_json())
    assert T2 == T
    f2 = T2.to_family("back")
    assert f2.evaluate((1, 0), (1, 1)) == transversal(2).evaluate((1, 0), (1, 1))


def test_function_table_validation():
    with pytest.raises(DomainError):
        FunctionTable([0, 1], [0], [0, 1], [[0]])  # wrong row count
    with pytest.raises(DomainError):
        FunctionTable([0], [0], [0, 1], [[2]])  # entry out of range


@pytest.mark.parametrize("entry", [1.0, 0.5, "a"])
def test_function_table_rejects_non_integer_entries(entry):
    text = json.dumps({"x_labels": [0, 1], "s_labels": [0, 1], "a_labels": [0, 1],
                       "rows": [[0, entry], [1, 0]]})
    with pytest.raises(DomainError, match="integers"):
        FunctionTable.from_json(text)


def test_table_family_keeps_its_table_and_classifies_without_per_entry_code(monkeypatch):
    base = affine(3, 2)
    want = classify(base).to_dict()
    T = base.to_table()
    f = T.to_family(base.name)
    assert f.to_table() is T

    def per_entry(*args):
        raise AssertionError("per-entry code ran")

    monkeypatch.setattr(HashFamily, "evaluate", per_entry)
    monkeypatch.setattr(families, "_entrywise", per_entry)
    f.x_group, f.a_group = base.x_group, base.a_group
    assert classify(f).to_dict() == want


def test_normalized_vectors_count():
    for q, t in ((2, 2), (3, 2), (2, 3), (4, 2)):
        field = field_for_order(q)
        assert len(normalized_vectors(field, t)) == (q**t - 1) // (q - 1)


def test_affine_evaluates_inner_product_plus_offset():
    f = affine(3, 2)
    field = field_for_order(3)
    assert f.x_size == 9 and f.a_size == 3 and f.s_size == 12
    h, b = (1, 2), 2
    x = (2, 2)
    expect = field.add(
        field.add(field.mul(1, 2), field.mul(2, 2)), b
    )
    assert f.evaluate(x, (h, b)) == expect


def test_dual_affine_is_transpose_of_affine():
    base = affine(2, 2)
    dual = dual_affine(2, 2)
    for s in base.s_labels:
        for x in base.x_labels:
            assert dual.evaluate(s, x) == base.evaluate(x, s)


def test_transversal_formula_and_infinity_rows():
    f = transversal(3, include_infinity=True)
    field = field_for_order(3)
    assert f.x_size == 12 and f.s_size == 9 and f.a_size == 3
    h, y, s1, s2 = 2, 1, 1, 2
    assert f.evaluate((h, y), (s1, s2)) == field.add(
        field.sub(s2, field.mul(h, s1)), y
    )
    assert f.evaluate((INFINITY, y), (s1, s2)) == field.add(s1, y)
    with pytest.raises(UnsupportedParameters):
        transversal(3, h_subset=[0, 0])
    with pytest.raises(UnsupportedParameters):
        transversal(3, h_subset=[5])


def test_transversal_variants_have_distinct_names():
    names = [transversal(5).name, transversal(5, h_subset=[0, 1, 2]).name,
             transversal(5, include_infinity=True).name,
             transversal(5, h_subset=[0, 1, 2], include_infinity=True).name]
    assert names == ["transversal(5)", "transversal(5,H=[0,1,2])", "transversal(5,inf)",
                     "transversal(5,H=[0,1,2],inf)"]
    assert transversal(5, h_subset=range(5)).name == "transversal(5)"


@pytest.mark.parametrize("build, t", [(affine, -1), (affine, 0), (dual_affine, -2)])
def test_affine_dimension_must_be_positive(build, t):
    with pytest.raises(UnsupportedParameters, match="dimension t must be positive"):
        build(2, t)


def test_toeplitz_matches_manual_matrix_product():
    f = toeplitz(2, 2, 3)
    assert f.x_size == 8 and f.s_size == 16 and f.a_size == 4
    h = (1, 0, 1, 1)  # t_{ij} = h[i - j + 2]
    x = (1, 1, 0)
    # row 0: h[2], h[1], h[0]; row 1: h[3], h[2], h[1]
    r0 = (h[2] * x[0] + h[1] * x[1] + h[0] * x[2]) % 2
    r1 = (h[3] * x[0] + h[2] * x[1] + h[1] * x[2]) % 2
    assert f.evaluate(x, h) == (r0, r1)
    with pytest.raises(UnsupportedParameters):
        toeplitz(2, 0, 3)


def test_toeplitz_table_reads_one_seed_digit_at_a_time():
    """The 4 MB table of toeplitz(2,16,2) is built without holding all 17
    seed-digit arrays over its 2^17 seeds at once."""
    f = toeplitz(2, 16, 2)
    tracemalloc.start()
    try:
        T = f.to_table().array
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    rng = random.Random(7)
    for x, s in [(rng.randrange(f.x_size), rng.randrange(f.s_size)) for _ in range(50)]:
        assert f.a_labels[T[x, s]] == f.evaluate(f.x_labels[x], f.s_labels[s])


def test_field_multiply_parameters():
    f = field_multiply(2, 3, 1, exclude_zero=True)
    assert f.x_size == 8 and f.s_size == 7 and f.a_size == 2
    assert 0 not in f.s_labels
    assert field_multiply(2, 3, 2).a_size == 4
    with pytest.raises(UnsupportedParameters):
        field_multiply(4, 2, 1)  # base must be prime
    with pytest.raises(UnsupportedParameters):
        field_multiply(2, 3, 4)


def test_build_named_dispatch():
    f = build_named("affine", q=2, t=2)
    assert f.x_size == 4
    with pytest.raises(UnsupportedParameters):
        build_named("nosuch", q=2)
    with pytest.raises(UnsupportedParameters):
        build_named("affine", q=2)  # missing t
    with pytest.raises(UnsupportedParameters):
        build_named("affine", q=6, t=2)  # not a prime power


@pytest.mark.parametrize("q", [2, 3, 4])
def test_transversal_relabeling_identifies_dual_affine(q):
    tr = transversal(q, include_infinity=True)
    da = dual_affine(q, 2)
    point_map, seed_map = transversal_dual_affine_relabeling(q)
    assert sorted(map(point_map, tr.x_labels)) == sorted(da.x_labels)
    assert sorted(map(seed_map, tr.s_labels)) == sorted(da.s_labels)
    for x in tr.x_labels:
        for s in tr.s_labels:
            assert tr.evaluate(x, s) == da.evaluate(point_map(x), seed_map(s))


def test_transpose_roundtrip():
    f = affine(2, 2)
    g = f.transpose()
    assert g.x_size == f.s_size and g.s_size == f.x_size
    for x in f.x_labels:
        for s in f.s_labels:
            assert g.evaluate(s, x) == f.evaluate(x, s)


# p = 2 and odd p, m > 1, both transversal variants, a proper H, exclude_zero, m >= 2
NAMED_CASES = [
    ("affine", ref_affine, dict(q=2, t=3)),
    ("affine", ref_affine, dict(q=3, t=2)),
    ("affine", ref_affine, dict(q=4, t=2)),
    ("affine", ref_affine, dict(q=9, t=1)),
    ("dual_affine", ref_dual_affine, dict(q=5, t=2)),
    ("dual_affine", ref_dual_affine, dict(q=4, t=2)),
    ("transversal", ref_transversal, dict(q=2)),
    ("transversal", ref_transversal, dict(q=7, include_infinity=True)),
    ("transversal", ref_transversal, dict(q=8, include_infinity=True)),
    ("transversal", ref_transversal, dict(q=4, h_subset=[3, 0], include_infinity=True)),
    ("transversal", ref_transversal, dict(q=9, h_subset=[5, 1, 7])),
    ("toeplitz", ref_toeplitz, dict(q=2, m=1, n=3)),
    ("toeplitz", ref_toeplitz, dict(q=2, m=3, n=2)),
    ("toeplitz", ref_toeplitz, dict(q=3, m=2, n=2)),
    ("toeplitz", ref_toeplitz, dict(q=4, m=2, n=1)),
    ("field_multiply", ref_field_multiply, dict(q=2, n=3, m=1)),
    ("field_multiply", ref_field_multiply, dict(q=2, n=3, m=2, exclude_zero=True)),
    ("field_multiply", ref_field_multiply, dict(q=2, n=2, m=2)),
    ("field_multiply", ref_field_multiply, dict(q=3, n=2, m=1, exclude_zero=True)),
    ("field_multiply", ref_field_multiply, dict(q=7, n=1, m=1)),
    # a prime above 64 and GF(256), where x is not primitive
    ("affine", ref_affine, dict(q=67, t=1)),
    ("dual_affine", ref_dual_affine, dict(q=67, t=1)),
    ("toeplitz", ref_toeplitz, dict(q=67, m=1, n=1)),
    ("field_multiply", ref_field_multiply, dict(q=67, n=1, m=1)),
    ("affine", ref_affine, dict(q=256, t=1)),
    ("toeplitz", ref_toeplitz, dict(q=256, m=1, n=1)),
    ("field_multiply", ref_field_multiply, dict(q=2, n=8, m=4)),
]


@pytest.mark.parametrize("kind, ref, params", NAMED_CASES,
                         ids=[f"{k}{sorted(p.items())}" for k, _, p in NAMED_CASES])
def test_named_family_matches_reference_formula(kind, ref, params):
    (X, S, A), rows = ref(**params)
    f = build_named(kind, **params)
    assert (list(f.x_labels), list(f.s_labels), list(f.a_labels)) == (X, S, A)
    assert [[f.evaluate(x, s) for s in S] for x in X] == rows
    assert [[f.a_labels[e] for e in row] for row in f.to_table().array.tolist()] == rows


def test_transversal_over_a_prime_above_the_table_size():
    f = transversal(67, h_subset=[0, 1, 66], include_infinity=True)
    T = f.to_table()
    rng = random.Random(5)
    for _ in range(500):
        x, s = rng.choice(f.x_labels), rng.choice(f.s_labels)
        (h, y), (s1, s2) = x, s
        want = (s1 + y) % 67 if h == INFINITY else (s2 - h * s1 + y) % 67
        assert f.evaluate(x, s) == T.a_labels[T.array[f.x_index[x], f.s_index[s]]] == want


def test_table_array_holds_the_entries():
    f = transversal(3, include_infinity=True)
    T = f.to_table()
    assert f.to_table().array is T.array and not T.array.flags.writeable


def test_table_json_matches_the_evaluate_oracle():
    g = field_multiply(2, 3, 1, exclude_zero=True)
    fams = [affine(2, 2), affine(3, 2), transversal(4, include_infinity=True),
            field_multiply(2, 4, 2), toeplitz(2, 2, 3), seed_extension(g, cyclic_group(g.a_labels)),
            FunctionTable([], range(3), range(2), []).to_family("no points"),
            FunctionTable(range(2), [], range(2), [[], []]).to_family("no seeds")]
    rng = random.Random(14)
    fams += [random_table(rng, rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 5))
             for _ in range(20)]
    for f in fams:
        assert f.to_table().to_json() == oracle_table_json(f), f.name


def test_function_table_equality():
    T = FunctionTable([0, 1], [(0, "s")], ["a", "b"], [[0], [1]])
    assert T == FunctionTable((0, 1), [(0, "s")], ("a", "b"), np.array([[0], [1]], dtype=np.int8))
    for other in (FunctionTable([0, 2], [(0, "s")], ["a", "b"], [[0], [1]]),
                  FunctionTable([0, 1], [(1, "s")], ["a", "b"], [[0], [1]]),
                  FunctionTable([0, 1], [(0, "s")], ["a", "c"], [[0], [1]]),
                  FunctionTable([0, 1], [(0, "s")], ["a", "b"], [[1], [1]])):
        assert T != other and not T == other
    assert (T == [[0], [1]]) is False and (T == T.array) is False


def test_function_table_keeps_its_own_copy_of_the_caller_array():
    rows = np.array([[0, 1], [1, 0]])
    T = FunctionTable([0, 1], [0, 1], [0, 1], rows)
    rows[0, 0] = 1
    assert T.array.tolist() == [[0, 1], [1, 0]] and rows.flags.writeable
    assert not np.shares_memory(T.array, rows)


def test_large_named_family_is_lazy_and_evaluates_above_budget():
    field_for_order(64)
    tracemalloc.start()
    try:
        f = transversal(64, include_infinity=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.x_size * f.s_size > DEFAULT_TABLE_BUDGET
    assert peak < f.x_size * f.s_size  # not even one byte per table entry
    with pytest.raises(BudgetExceeded):
        f.to_table()
    # in GF(2^6) adding element indices is XOR; the element 1 has index 2^5,
    # because c0 is the most significant digit, and -1 * s1 = s1
    rng = random.Random(3)
    for _ in range(200):
        h, y, s1, s2 = rng.choice([0, 32, INFINITY]), *(rng.randrange(64) for _ in range(3))
        want = {0: s2 ^ y, 32: s2 ^ s1 ^ y, INFINITY: s1 ^ y}[h]
        assert f.evaluate((h, y), (s1, s2)) == want
    assert f._table is None


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_group_formulas_are_field_addition(q):
    F, ref = field_for_order(q), RefField(q)
    add = [[ref.add(a, b) for b in range(q)] for a in range(q)]
    assert [[field_group(F).add(a, b) for b in range(q)] for a in range(q)] == add
    vectors = vector_group(F, 2)
    assert list(vectors.labels) == [(a, b) for a in range(q) for b in range(q)]
    assert [[vectors.add(u, v) for v in vectors.labels] for u in vectors.labels] == [
        [(add[u[0]][v[0]], add[u[1]][v[1]]) for v in vectors.labels] for u in vectors.labels]
    if q == ref.p:  # a prime field's addition is the cyclic group Z_q
        assert [[cyclic_group(range(q)).add(a, b) for b in range(q)] for a in range(q)] == add
    assert field_group(F).zero == vectors.zero[0] == cyclic_group(range(q)).zero == 0
