import numpy as np
import pytest

from mosaichash import Field, field_arith, field_for_order, field_new, truncate
from mosaichash.errors import (
    BadLength,
    NotPrime,
    ReducibleModulus,
    UnsupportedSize,
    ZeroInverse,
)
from oracles import REF_FIELDS, RefField, gf8_mul_table


def test_prime_field_matches_modular_arithmetic():
    f = field_new(5)
    for a in range(5):
        for b in range(5):
            assert f.add(a, b) == (a + b) % 5
            assert f.sub(a, b) == (a - b) % 5
            assert f.mul(a, b) == (a * b) % 5
        assert f.neg(a) == (-a) % 5


def test_canonical_moduli():
    assert field_new(2, 2).modulus == (1, 1, 1)
    assert field_new(2, 3).modulus == (1, 1, 0, 1)
    assert field_new(3, 2).modulus == (1, 0, 1)
    # x^8 + x^4 + x^3 + x + 1, under which x has order 51: the logs need another generator
    assert field_new(2, 8).modulus == (1, 1, 0, 1, 1, 0, 0, 0, 1)


def test_gf8_multiplication_matches_hand_oracle():
    f = field_new(2, 3)
    oracle = gf8_mul_table()
    for (ca, cb), cp in oracle.items():
        assert f.coeffs(f.mul(f.index(ca), f.index(cb))) == cp


def test_inverses():
    for f in (field_new(2, 3), field_new(3, 2), field_new(7)):
        for a in range(1, f.q):
            assert f.mul(a, f.inv(a)) == f.one
        with pytest.raises(ZeroInverse):
            f.inv(0)


def test_index_coeffs_roundtrip_lex_order():
    f = field_new(3, 2)
    seen = [f.coeffs(a) for a in f.elements()]
    assert seen == sorted(seen)  # index order is lex on coefficient tuples
    for a in f.elements():
        assert f.index(f.coeffs(a)) == a


def test_field_arith_on_coefficient_vectors():
    f = field_new(2, 3)
    assert field_arith(f, "add", (1, 0, 1), (1, 1, 0)) == (0, 1, 1)
    # x * x^2 = x^3 = x + 1 mod x^3 + x + 1
    assert field_arith(f, "mul", (0, 1, 0), (0, 0, 1)) == (1, 1, 0)
    assert field_arith(f, "inv", (0, 1, 0)) == field_arith(
        f, "inv", (0, 1, 0)
    )
    with pytest.raises(BadLength):
        field_arith(f, "add", (1, 0, 1))
    with pytest.raises(ValueError):
        field_arith(f, "exp", (1, 0, 1))


def test_truncate():
    f = field_new(2, 3)
    a = f.index((1, 0, 1))
    assert truncate(f, a, 2) == (1, 0)
    assert truncate(f, a, 3) == (1, 0, 1)
    with pytest.raises(BadLength):
        truncate(f, a, 4)
    with pytest.raises(BadLength):
        truncate(f, a, 0)


@pytest.mark.parametrize("q", [8, 9])
def test_coefficient_views_match_the_reference_field(q):
    f, ref = field_for_order(q), RefField(q)
    assert f.modulus == ref.modulus
    for a in f.elements():
        assert f.coeffs(a) == ref.elems[a] and f.index(ref.elems[a]) == a
        for m in range(1, f.m + 1):
            assert truncate(f, a, m) == ref.elems[a][:m]
        assert field_arith(f, "neg", ref.elems[a]) == ref.elems[ref.neg(a)]
        if a:
            assert field_arith(f, "inv", ref.elems[a]) == ref.elems[ref.inv(a)]
        for b in f.elements():
            va, vb = ref.elems[a], ref.elems[b]
            assert field_arith(f, "add", va, vb) == ref.elems[ref.add(a, b)]
            assert field_arith(f, "sub", va, vb) == ref.elems[ref.add(a, ref.neg(b))]
            assert field_arith(f, "mul", va, vb) == ref.elems[ref.mul(a, b)]
    with pytest.raises(ZeroInverse):
        field_arith(f, "inv", ref.elems[0])


def test_scalar_arithmetic_returns_ints():
    f = field_new(2, 3)
    assert all(type(v) is int for v in (f.mul(3, 5), f.inv(3), f.neg(3), f.sub(3, 5)))


def test_validation_errors():
    with pytest.raises(NotPrime):
        field_new(4)
    with pytest.raises(ReducibleModulus):
        field_new(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x + 1)^2 over GF(2)
    with pytest.raises(ReducibleModulus):
        field_new(2, 2, modulus=(1, 1))  # wrong degree
    with pytest.raises(ReducibleModulus):  # degree 1 is checked like every other degree
        field_new(5, 1, modulus=(1, 2))  # not monic
    with pytest.raises(ReducibleModulus):
        field_new(5, 1, modulus=(1, 2, 3))  # wrong degree
    with pytest.raises(UnsupportedSize):
        field_new(2, 17)  # q > 2^16
    with pytest.raises(UnsupportedSize):
        field_for_order(6)
    with pytest.raises(UnsupportedSize):
        field_for_order(10**18 + 9)  # refused at once, not after a divisor search up to q
    with pytest.raises(UnsupportedSize):
        Field(2, 0)
    # every q <= 2^16 builds with its canonical modulus; [128] of
    # test_field_tables_match_hand_arithmetic compares GF(2^7) with the oracle
    assert field_new(2, 7) is field_for_order(128)
    assert field_new(2, 7).modulus == REF_FIELDS[128][2]


def test_a_degree_one_modulus_is_kept_as_given():
    f, g = field_new(5, 1, modulus=(3, 1)), field_new(5)  # x + 3: x = 2, which no product reads
    assert (f.modulus, g.modulus) == ((3, 1), (0, 1))
    assert all(f._add_ix(a, b) == g._add_ix(a, b) and f.mul(a, b) == g.mul(a, b)
               for a in range(5) for b in range(5))


def test_large_field_with_user_modulus():
    f = field_new(2, 7, modulus=(1, 1, 0, 0, 0, 0, 0, 1))  # x^7 + x + 1
    x = f.index((0, 1) + (0,) * 5)
    x6 = f.index((0,) * 6 + (1,))
    # x * x^6 = x^7 = x + 1
    assert f.coeffs(f.mul(x, x6)) == (1, 1) + (0,) * 5
    assert f.mul(x, f.inv(x)) == f.one
    # over GF(2^m) adding element indices is XOR, and every element is its own negative
    assert f.add(x, x6) == f.sub(x, x6) == x ^ x6 and f.neg(x) == x
    # the formulas' array arithmetic agrees with the scalar operations
    a, b = np.arange(128)[:, None], np.array([0, 1, x, x6, 127])
    assert f._add_ix(a, b).tolist() == (a ^ b).tolist()
    assert f._mul_ix(a, b).tolist() == [[f.mul(i, j) for j in b.tolist()] for i in range(128)]
    assert f._mul_ix(x, x6) == f.mul(x, x6)


def test_field_caching_and_equality():
    assert field_new(2, 3) is field_new(2, 3)
    assert field_for_order(8) == field_new(2, 3)
    assert field_for_order(9).q == 9


@pytest.mark.parametrize("q", sorted(REF_FIELDS))
def test_field_tables_match_hand_arithmetic(q):
    ref, f = RefField(q), field_for_order(q)
    if ref.m > 1:
        assert f.modulus == ref.modulus  # the hand rules use the canonical modulus
    n, grid = range(q), np.indices((q, q), sparse=True)
    assert f._add_ix(*grid).tolist() == [[ref.add(a, b) for b in n] for a in n]
    assert f._mul_ix(*grid).tolist() == [[ref.mul(a, b) for b in n] for a in n]
    assert [f.inv(a) for a in n[1:]] == [ref.inv(a) for a in n[1:]]
    for a in n:
        assert f.neg(a) == ref.neg(a) and type(f.neg(a)) is int
        for b in n:
            got = (f.add(a, b), f.sub(a, b), f.mul(a, b))
            assert got == (ref.add(a, b), ref.add(a, ref.neg(b)), ref.mul(a, b))
            assert all(type(v) is int for v in got)
