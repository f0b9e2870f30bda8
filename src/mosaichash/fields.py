"""Exact arithmetic in finite fields GF(p^m) of order q = p^m <= 2^16.

Elements are referred to by their index in the fixed lexicographic
enumeration of coefficient vectors (lowest degree first), so index
arithmetic is what the rest of the library uses.  Coefficient-vector
views are available through ``coeffs`` / ``index``.

Every field has one representation, O(q) integer arrays built once at
construction.  Multiplication goes through discrete logarithms to a
primitive element g (Huber, "Some comments on Zech's logarithms", IEEE
Trans. IT 1990): a*b = exp[log a + log b].  The log of zero is a
sentinel whose sums land in a zero tail of exp, so no product branches.
Addition is digit-wise mod p on the index, which is XOR for p = 2, one
formula for ints and broadcasting index arrays.  The scalar ``mul``,
``inv`` and ``neg`` read the same arrays and return ints; ``_mul_ix``,
with ``_add_ix`` the named families' arithmetic, indexes them on arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BadLength, NotPrime, ReducibleModulus, UnsupportedSize, ZeroInverse

# The canonical modulus of GF(p^m) is the monic irreducible polynomial
# x^m + r_{m-1} x^{m-1} + ... + r_0 with the least sum of r_i p^i, found by
# exhaustive search at construction.
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


def _is_irreducible(poly, p):
    """Exhaustive trial division by all monic polynomials of degree <= m/2."""
    m = len(poly) - 1
    if m < 1:
        return False
    for d in range(1, m // 2 + 1):
        for idx in range(p**d):
            div = [idx // p**i % p for i in range(d)] + [1]  # monic
            if not any(_poly_mod(poly, div, p)):
                return False
    return True


def _canonical_modulus(p, m):
    for idx in range(p**m):
        poly = [idx // p**i % p for i in range(m)] + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise UnsupportedSize(f"no irreducible polynomial found for GF({p}^{m})")


class Field:
    """GF(p^m) with a fixed monic irreducible modulus, canonical ((0, 1) for m = 1) unless
    given; for every m a given one is checked (ReducibleModulus) and kept, reduced mod p.

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
        if modulus is None:
            modulus = _canonical_modulus(p, m)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree m")
        if not _is_irreducible(list(modulus), p):
            raise ReducibleModulus(f"{modulus} is reducible over GF({p})")
        self.modulus = modulus
        self.zero = 0
        self.one = p ** (m - 1)  # the coefficient vector (1, 0, ..., 0)
        self._weights = [p ** (m - 1 - i) for i in range(m)]  # of c0, ..., c_{m-1}
        self._build_logs()

    def _build_logs(self):
        p, q, m, order = self.p, self.q, self.m, self.q - 1
        weights = np.array(self._weights)  # index = coefficient vector @ weights
        one_vec = self.one // weights % p
        # row i is x^i * x: a shift up one degree, and x^m = -(r_0 + ... + r_{m-1} x^{m-1})
        # for the modulus r
        x_times = np.eye(m, k=1, dtype=np.int64)
        x_times[-1] = -np.array(self.modulus[:m]) % p

        def times(g):  # v @ times(g) % p is the coefficient vector of v * g
            rows = [g // weights % p]
            for _ in range(m - 1):
                rows.append(rows[-1] @ x_times % p)
            return np.array(rows)

        def power(step, e):  # g^e by squaring, where step = times(g)
            v = one_vec
            while e:
                if e & 1:
                    v = v @ step % p
                step, e = step @ step % p, e >> 1
            return v

        # g is primitive iff g^(order/r) != 1 for every prime r dividing the order
        primes = [r for r in range(2, q) if order % r == 0 and is_prime(r)]
        for g in range(1, q):
            step = times(g)
            if all((power(step, order // r) != one_vec).any() for r in primes):
                break
        powers = one_vec[None]
        while len(powers) < order:  # g^(k + n) = g^k g^n for the n powers so far
            powers, step = np.vstack([powers, powers @ step % p]), step @ step % p
        powers = powers[:order] @ weights
        # the log of 0 is 2 * order, so every sum with it lands in the zero tail of exp
        self._log_array = np.full(q, 2 * order, np.int64)
        self._log_array[powers] = np.arange(order)
        self._exp_array = np.concatenate([powers, powers, np.zeros(2 * order + 1, np.int64)])
        self._neg_array = sum(-(np.arange(q) // w) % p * w for w in self._weights)

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

    def _add_ix(self, a, b):
        """add on element indices or broadcasting index arrays, digit by digit mod p."""
        if self.p == 2:
            return a ^ b
        out = 0
        for w in self._weights:
            out = out + (a // w + b // w) % self.p * w
        return out

    add = _add_ix

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return int(self._neg_array[a])

    def mul(self, a: int, b: int) -> int:
        return int(self._mul_ix(a, b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return int(self._exp_array[self.q - 1 - self._log_array[a]])

    def _mul_ix(self, a, b):
        """mul on element indices or broadcasting index arrays."""
        return self._exp_array[self._log_array[a] + self._log_array[b]]

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
    """Validated field of order p^m <= 2^16, with the canonical modulus unless one is given."""
    if modulus is not None:
        modulus = tuple(modulus)
    return _field_cached(p, m, modulus)


@lru_cache(maxsize=None)
def field_for_order(q: int) -> Field:
    """Field of order q with the canonical modulus: any prime power q <= 2^16."""
    if q > MAX_Q:  # before the divisor search, which takes time linear in q
        raise UnsupportedSize(f"q = {q} exceeds the supported maximum {MAX_Q}")
    for p in range(2, q + 1):
        if q % p == 0:  # the least divisor of q is prime
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
