"""Exact privacy-amplification evaluation.

Sources and joints are integer count arrays over one common denominator,
each summed in the dtype ``_count.exact`` gives a bound on its sums.  A
``Fraction`` is built only for a reported value or a cached ``.p`` view, and
floating point only for the final logarithm / square root of reported
scalars; the headline inequality is checked on squared quantities exactly.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._count import exact, joint_counts
from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    DomainError,
    NegativeRadicand,
    TheoremViolation,
    TrivialDomain,
    ZeroMassKeyValue,
)
from .families import DEFAULT_TABLE_BUDGET, HashFamily, decode_label, json_fields
from .verify import _json, _render, min_epsilon

DEFAULT_SOURCE_BUDGET = 10**6
_fraction = np.frompyfunc(Fraction, 2, 1)  # elementwise Fraction(count, den)


class JointSource:
    """Joint distribution p_XZ as integer counts ``num[x, z]`` over one common
    denominator ``den``: the lcm of the given entries' denominators, or
    ``src.den**n`` for ``iid_extend(src, n)``.

    Alphabet letters z with zero marginal mass are dropped at
    construction (with a warning).
    """

    def __init__(self, x_labels, z_labels, p):
        x_labels, z_labels = tuple(x_labels), tuple(z_labels)
        rows = [[Fraction(v) for v in row] for row in p]
        if len(rows) != len(x_labels) or any(len(r) != len(z_labels) for r in rows):
            raise AlphabetMismatch("probability array shape mismatch")
        den = math.lcm(*(v.denominator for r in rows for v in r))
        num = np.array([[v.numerator * (den // v.denominator) for v in r] for r in rows],
                       dtype=object).reshape(len(x_labels), len(z_labels))
        self._set_counts(x_labels, z_labels, num, den)

    def _set_counts(self, x_labels, z_labels, num, den) -> "JointSource":
        if (num < 0).any():
            raise ValueError("negative probability entry")
        total = num.sum()
        if total != den:
            raise ValueError(f"probabilities sum to {Fraction(int(total), den)}, not 1")
        keep = num.sum(axis=0) > 0
        if not keep.all():
            warnings.warn("dropping z letters with zero mass", stacklevel=3)
        self.x_labels = x_labels
        self.z_labels = tuple(z for z, k in zip(z_labels, keep) if k)
        self.num = num[:, keep].astype(exact(den), copy=False)
        self.den = den
        return self

    @property
    def x_size(self):
        return len(self.x_labels)

    @property
    def z_size(self):
        return len(self.z_labels)

    @cached_property
    def p(self):
        """p[x][z] as exact rationals."""
        return _fraction(self.num, self.den).tolist()

    def z_marginal(self):
        return _fraction(self.num.sum(axis=0), self.den).tolist()

    def to_json(self) -> str:
        return json.dumps({"x_labels": self.x_labels, "z_labels": self.z_labels,
                           "probabilities": _json(self.p)})

    @classmethod
    def from_json(cls, text: str) -> "JointSource":
        xs, zs, probabilities = json_fields(text, "x_labels", "z_labels", "probabilities")
        try:
            p = [[Fraction(v) for v in row] for row in probabilities]
        except (TypeError, ZeroDivisionError, OverflowError):
            msg = "probabilities must be rows of rationals, finite, with no zero denominator"
            raise DomainError(msg) from None
        return cls([decode_label(x) for x in xs], [decode_label(z) for z in zs], p)


def uniform_source(x_labels) -> JointSource:
    """Uniform X with a trivial (constant) Z."""
    n = len(x_labels)
    return JointSource(x_labels, ["z0"], [[Fraction(1, n)] for _ in range(n)])


def renyi2_conditional(src: JointSource):
    """(H2(X|Z) in bits, exact inner sum 2^{-H2}).

    The inner sum is sum_z (p_z . p_z) / (p_z . 1), that is
    sum_z (num_z . num_z) / (num_z . 1) / den over the counts.
    """
    num = src.num.astype(exact(src.den * src.den), copy=False)  # squares sum to at most den^2
    squares, masses = (num * num).sum(axis=0).tolist(), num.sum(axis=0).tolist()
    inner = sum(map(Fraction, squares, masses), Fraction(0)) / src.den  # > 0: no z has zero mass
    return 0.0 - math.log2(inner), inner  # not -log2(inner): -0.0 where Z determines X


def iid_extend(src: JointSource, n: int, budget=DEFAULT_SOURCE_BUDGET) -> JointSource:
    """The n-fold product source: the Kronecker power of the counts over
    den**n, on n-tuple labels; the inner collision sum multiplies."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:  # nothing is built, so no budget applies
        return src
    if n > budget:  # each label is an n-tuple
        raise BudgetExceeded(f"{n}-tuple labels exceed budget {budget}")
    size = 1
    for _ in range(n):  # stop as soon as the alphabet passes the budget
        size *= src.x_size * src.z_size
        if size > budget:
            raise BudgetExceeded(f"product alphabet of {n} factors reaches {size} cells, "
                                  f"exceeds budget {budget}")
    den = src.den**n
    return JointSource.__new__(JointSource)._set_counts(
        tuple(itertools.product(src.x_labels, repeat=n)),
        itertools.product(src.z_labels, repeat=n),
        _kron_power(src.num.astype(exact(den), copy=False), n), den)


def _kron_power(m, n):
    """m (x) m (x) ... (x) m, n factors, by repeated squaring."""
    out = None
    while n:
        if n & 1:
            out = m if out is None else np.kron(out, m)
        n >>= 1
        if n:
            m = np.kron(m, m)
    return out


@dataclass(eq=False)
class PAJoint:
    z_labels: tuple
    s_labels: tuple
    a_labels: tuple
    num: np.ndarray  # num[z, s, a] counts over den
    den: int
    key_marginal: list
    independence_verified: bool
    independence_witness: tuple | None

    @cached_property
    def p(self):
        """p[z][s][a] as exact rationals."""
        return _fraction(self.num, self.den).tolist()


def pa_joint(src: JointSource, f: HashFamily, budget=DEFAULT_TABLE_BUDGET) -> PAJoint:
    """Exact joint p_ZSA(z,s,a) = p_XZ restricted to f(x,s)=a, seed uniform.

    Cell (z, s, a) is ``_count.joint_counts`` over den * |S|, in the source's
    dtype.  Sums over s reach |S| den and |A| |S| den, and take the dtype
    exact gives those bounds.  The key is independent of Z when
    |A| sum_s P[z, s, a] = |S| sum_x num[x, z].
    """
    if tuple(src.x_labels) != tuple(f.x_labels):
        raise AlphabetMismatch("source X alphabet differs from the family point set")
    if f.s_size == 0:
        raise TrivialDomain(f"{f.name} has an empty seed set; the joint is a share of |S|")
    ns, na, den = f.s_size, f.a_size, src.den
    num = joint_counts(f.to_table(budget).array, na, src.num, den)
    # the sum over s; einsum, unlike sum(axis=1), stays fast for small |A|
    by_key = np.einsum("zsa->za", num.astype(exact(ns * den), copy=False))
    key_marginal = _fraction(by_key.sum(axis=0), den * ns).tolist()
    wide = exact(na * ns * den)
    dependent = np.argwhere(na * by_key.astype(wide, copy=False)
                            != ns * src.num.sum(axis=0, dtype=wide)[:, None])
    witness = next(((src.z_labels[j], f.a_labels[a]) for j, a in dependent), None)
    return PAJoint(src.z_labels, f.s_labels, f.a_labels, num, den * ns, key_marginal,
                   witness is None, witness)


def security_distance(joint: PAJoint):
    """Exact max_{a,a'} l1 distance between the conditionals p_{ZS|A=a}.

    With key counts m and g = gcd(m_a, m_a'), the distance of (a, a') is
    sum_{z,s} |P[z,s,a] m_a'/g - P[z,s,a'] m_a/g| / (m_a m_a'/g); under
    (ACFU1) with an independent key both multipliers are 1.  Each term is at
    most P[z,s,a] m_a'/g + P[z,s,a'] m_a/g, and those sum to 2 m_a m_a'/g,
    so each row a is summed in the dtype exact gives that bound over a'.
    Returns (distance, (a, a') witness): the first strict maximum.
    """
    labels = joint.a_labels
    na = len(labels)
    P = np.ascontiguousarray(joint.num.reshape(-1, na).T)  # P[a]: the cells of key a
    m = P.sum(axis=1, dtype=exact(joint.den)).tolist()
    for a in range(na):
        if m[a] == 0:
            raise ZeroMassKeyValue(f"key value {labels[a]!r} has zero mass")
    best = Fraction(0)
    witness = (labels[0], labels[0]) if na else None
    for a in range(na - 1):  # d(a, a') = d(a', a): the first strict maximum has a < a'
        g = [math.gcd(m[a], mb) for mb in m[a + 1:]]
        up = [mb // gb for mb, gb in zip(m[a + 1:], g)]  # m_a'/g, the multiplier of P[a]
        dt = exact(2 * m[a] * max(up))
        rows = P[a:].astype(dt, copy=False)
        cross = np.abs(rows[0] * np.array(up, dtype=dt)[:, None]
                       - rows[1:] * np.array([m[a] // gb for gb in g], dtype=dt)[:, None])
        for b, c, u in zip(range(a + 1, na), cross.sum(axis=1).tolist(), up):
            d = Fraction(c, m[a] * u)
            if d > best:
                best, witness = d, (labels[a], labels[b])
    return best, witness


def theorem_radicand(eps, a_size: int, renyi_inner) -> Fraction:
    """(1 - eps)|A| 2^{-H} + |A| eps - 1 as an exact rational."""
    eps = Fraction(eps)
    inner = Fraction(renyi_inner)
    return (1 - eps) * a_size * inner + a_size * eps - 1


def theorem_bound(eps, a_size: int, renyi_inner) -> float:
    """Security bound 2 sqrt(radicand); the square root is the only float."""
    return _bound(theorem_radicand(eps, a_size, renyi_inner))


def _bound(rad: Fraction) -> float:
    if rad < 0:
        raise NegativeRadicand(f"bound radicand {rad} is negative")
    return 2.0 * math.sqrt(float(rad))


@dataclass
class PAResult:
    family: str
    eps_acfu: Fraction
    key_marginal: list
    independence_verified: bool
    security_distance: Fraction
    distance_witness: tuple
    entropy_h2: float
    renyi_inner: Fraction
    radicand: Fraction
    theorem_bound: float

    def to_dict(self):
        return _render(self, security_distance_float=float(self.security_distance),
                       distance_witness=repr(self.distance_witness))


def run_pa(src: JointSource, f: HashFamily, budget=DEFAULT_TABLE_BUDGET) -> PAResult:
    """Full pipeline; raises TheoremViolation if the security bound fails
    or the key depends on Z.  An irregular ``f`` (no (ACFU1)) raises
    NotRegular once the joint is built, so a zero-mass key value raises
    ZeroMassKeyValue first.
    """
    joint = pa_joint(src, f, budget)
    dist, witness = security_distance(joint)
    eps, _ = min_epsilon(f, "ACFU", budget)
    h2, inner = renyi2_conditional(src)
    rad = theorem_radicand(eps, f.a_size, inner)
    bound = _bound(rad)
    # compare squared quantities exactly: dist^2 <= 4 * radicand
    if dist * dist > 4 * rad:
        raise TheoremViolation(
            f"security distance {dist} at key values {witness!r} exceeds the "
            f"bound for {f.name}; radicand {rad}"
        )
    if not joint.independence_verified:
        raise TheoremViolation(
            f"(ACFU1)-regular {f.name} produced a key dependent on Z at "
            f"{joint.independence_witness!r}"
        )
    return PAResult(
        family=f.name,
        eps_acfu=eps,
        key_marginal=joint.key_marginal,
        independence_verified=joint.independence_verified,
        security_distance=dist,
        distance_witness=witness,
        entropy_h2=h2,
        renyi_inner=inner,
        radicand=rad,
        theorem_bound=bound,
    )
