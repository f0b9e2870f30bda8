"""Exact arithmetic in small finite fields GF(p^m).

Elements are referred to by their index in the fixed lexicographic
enumeration of coefficient vectors (lowest degree first), so index
arithmetic is what the rest of the library uses.  Coefficient-vector
views are available through ``coeffs`` / ``index``.

A field with q <= 64 builds integer add, neg and mul tables once: numpy
arrays for the named families' formulas, Python lists for the scalar
operations.  Larger fields use coefficient vectors; there ``_add_ix`` and
``_mul_ix``, the formulas' arithmetic, work mod p on a prime field and
entry by entry through the scalar operations otherwise.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BadLength, NotPrime, ReducibleModulus, UnsupportedSize, ZeroInverse

# Precomputed moduli exist implicitly: for every prime power q <= 64 the
# canonical modulus is the lexicographically smallest monic irreducible
# polynomial, found by exhaustive search at construction time.
BUILTIN_MAX_Q = 64
MAX_Q = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mod(a, mod, p):
    """Remainder of a by the monic polynomial mod, coefficients mod p."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return [c % p for c in a[:dm]]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _is_irreducible(poly, p):
    """Exhaustive trial division by all monic polynomials of degree <= m/2."""
    m = len(poly) - 1
    if m < 1:
        return False
    for d in range(1, m // 2 + 1):
        for idx in range(p**d):
            div = [idx // p**i % p for i in range(d)] + [1]  # monic
            if not _poly_trim(_poly_mod(poly, div, p)):
                return False
    return True


def _canonical_modulus(p, m):
    for idx in range(p**m):
        poly = [idx // p**i % p for i in range(m)] + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise UnsupportedSize(f"no irreducible polynomial found for GF({p}^{m})")


class Field:
    """GF(p^m) with a fixed monic irreducible modulus.

    The element order is lexicographic on coefficient tuples
    (c0, ..., c_{m-1}); index i has coefficients given by the base-p
    digits of i, most significant digit first on c0.
    """

    def __init__(self, p: int, m: int, modulus=None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if m < 1:
            raise UnsupportedSize("extension degree must be >= 1")
        q = p**m
        if q > MAX_Q:
            raise UnsupportedSize(f"q = {q} exceeds the supported maximum {MAX_Q}")
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            self.modulus = (0, 1)  # unused
        else:
            if modulus is None:
                if q > BUILTIN_MAX_Q:
                    raise UnsupportedSize(
                        f"no built-in modulus for q = {q} > {BUILTIN_MAX_Q}; supply one"
                    )
                modulus = _canonical_modulus(p, m)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ReducibleModulus("modulus must be monic of degree m")
            if not _is_irreducible(list(modulus), p):
                raise ReducibleModulus(f"{modulus} is reducible over GF({p})")
            self.modulus = modulus
        self.zero = 0
        self.one = self.index((1,) + (0,) * (m - 1))
        self._add_table = self._neg_table = self._mul_table = self._inv_table = None
        if q <= BUILTIN_MAX_Q:
            self._build_tables()

    # index <-> coefficient vector -------------------------------------

    def coeffs(self, a: int) -> tuple:
        """Coefficient vector (lowest degree first) of element index a."""
        if not 0 <= a < self.q:
            raise BadLength(f"element index {a} out of range for GF({self.q})")
        # lex order on (c0,...,c_{m-1}): c0 is the most significant digit
        return tuple(a // self.p ** (self.m - 1 - i) % self.p for i in range(self.m))

    def index(self, coeffs) -> int:
        if len(coeffs) != self.m:
            raise BadLength(f"expected {self.m} coefficients, got {len(coeffs)}")
        a = 0
        for c in coeffs:
            a = a * self.p + (c % self.p)
        return a

    def elements(self):
        return range(self.q)

    # arithmetic on element indices ------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        ca, cb = self.coeffs(a), self.coeffs(b)
        return self.index(tuple((x + y) % self.p for x, y in zip(ca, cb)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self._neg_table is not None:
            return self._neg_table[a]
        return self.index(tuple((-x) % self.p for x in self.coeffs(a)))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_slow(a, b)

    def _mul_slow(self, a, b):
        prod = _poly_mul(list(self.coeffs(a)), list(self.coeffs(b)), self.p)
        if self.m > 1:
            red = _poly_mod(prod, list(self.modulus), self.p)
        else:
            red = [prod[0] % self.p]
        red = red + [0] * (self.m - len(red))
        return self.index(tuple(red[: self.m]))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        if self._inv_table is not None:
            return self._inv_table[a]
        # a^(q-2) by square-and-multiply
        result = self.one
        base = a
        e = self.q - 2
        while e:
            if e & 1:
                result = self._mul_slow(result, base)
            base = self._mul_slow(base, base)
            e >>= 1
        return result

    def _add_ix(self, a, b):
        """add on element indices or broadcasting index arrays."""
        if self._add_table is None:
            return (a + b) % self.p if self.m == 1 else np.frompyfunc(self.add, 2, 1)(a, b)
        return self._add_array[a, b]

    def _mul_ix(self, a, b):
        """mul on element indices or broadcasting index arrays."""
        if self._mul_table is None:
            return a * b % self.p if self.m == 1 else np.frompyfunc(self.mul, 2, 1)(a, b)
        return self._mul_array[a, b]

    def _build_tables(self):
        p, q = self.p, self.q
        weights = p ** np.arange(self.m - 1, -1, -1)
        digits = np.arange(q)[:, None] // weights % p
        self._add_array = (digits[:, None] + digits) % p @ weights
        self._neg_array = -digits % p @ weights
        # coefficient c of a*b is sum_ij a_i b_j (x^(i+j) mod the modulus)_c, mod p
        m = self.m
        powers = [(_poly_mod([0] * k + [1], list(self.modulus), p) + [0] * m)[:m]
                  for k in range(2 * m - 1)]
        red = np.array(powers)[np.add.outer(np.arange(m), np.arange(m))]
        self._mul_array = np.einsum("ai,bj,ijc->abc", digits, digits, red) % p @ weights
        self._mul_table = self._mul_array.tolist()
        self._add_table = self._add_array.tolist()
        self._neg_table = self._neg_array.tolist()
        # inv[0] = 0 is never read: inv raises ZeroInverse first
        self._inv_table = [0] + (self._mul_array[1:] == self.one).argmax(axis=1).tolist()

    def __repr__(self):
        return f"Field(GF({self.q}))"

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))


@lru_cache(maxsize=None)
def _field_cached(p, m, modulus):
    return Field(p, m, modulus)


def field_new(p: int, m: int = 1, modulus=None) -> Field:
    """Validated field; the built-in table covers every prime power <= 64."""
    if modulus is not None:
        modulus = tuple(modulus)
    return _field_cached(p, m, modulus)


@lru_cache(maxsize=None)
def field_for_order(q: int) -> Field:
    """Field of order q with the canonical modulus: a prime power q <= 64 or a prime."""
    for p in range(2, q + 1):
        if is_prime(p) and q % p == 0:
            m = 0
            n = q
            while n > 1:
                if n % p:
                    raise UnsupportedSize(f"{q} is not a prime power")
                n //= p
                m += 1
            return field_new(p, m)
    raise UnsupportedSize(f"{q} is not a prime power")


def field_arith(spec: Field, op: str, a, b=None):
    """Field operation on coefficient vectors (the FieldElement view)."""
    ia = spec.index(tuple(a))
    if op in ("add", "sub", "mul"):
        if b is None:
            raise BadLength(f"{op} needs two operands")
        ib = spec.index(tuple(b))
        out = getattr(spec, op)(ia, ib)
    elif op == "neg":
        out = spec.neg(ia)
    elif op == "inv":
        out = spec.inv(ia)
    else:
        raise ValueError(f"unknown field operation {op!r}")
    return spec.coeffs(out)


def truncate(spec: Field, a: int, m: int) -> tuple:
    """First m coefficients of element a's vector over the prime subfield."""
    if not 1 <= m <= spec.m:
        raise BadLength(f"truncation length {m} not in [1, {spec.m}]")
    return spec.coeffs(a)[:m]
