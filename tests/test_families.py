import json

import pytest

from mosaichash import (
    FunctionTable,
    HashFamily,
    affine,
    build_named,
    dual_affine,
    field_for_order,
    field_multiply,
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
    INFINITY,
    decode_label,
    encode_label,
    normalized_vectors,
)


def test_label_codec_roundtrip():
    labels = [0, "inf", (1, 2), ((0, 1), "z"), ()]
    for lab in labels:
        assert decode_label(encode_label(lab)) == lab
        assert json.loads(json.dumps(encode_label(lab))) == encode_label(lab)


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


def test_constant_family_table():
    f = HashFamily("c", [0, 1], [0, 1], ["a0", "a1"], lambda x, s: "a0")
    T = f.to_table()
    assert all(e == 0 for row in T.entries for e in row)


def test_table_budget():
    f = affine(2, 2)
    with pytest.raises(BudgetExceeded):
        f.to_table(budget=1)


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
