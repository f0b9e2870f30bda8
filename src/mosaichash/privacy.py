"""Exact privacy-amplification evaluation.

Sources and joints are integer count arrays over one common denominator.  A
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
from functools import cached_property, reduce

import numpy as np

from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    DomainError,
    NegativeRadicand,
    TheoremViolation,
    TrivialDomain,
    ZeroMassKeyValue,
)
from .families import DEFAULT_TABLE_BUDGET, HashFamily, decode_label, encode_label, json_fields
from .verify import min_epsilon, rational_str

DEFAULT_SOURCE_BUDGET = 10**6
_fraction = np.frompyfunc(Fraction, 2, 1)  # elementwise Fraction(count, den)


def _counts(num, den):
    """Counts over den lie in [0, den]: int64 when den fits, Python ints otherwise."""
    return num.astype(np.int64 if den <= np.iinfo(np.int64).max else object)


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
        self.num = _counts(num[:, keep], den)
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
        return json.dumps(
            {
                "x_labels": [encode_label(x) for x in self.x_labels],
                "z_labels": [encode_label(z) for z in self.z_labels],
                "probabilities": [
                    [f"{v.numerator}/{v.denominator}" for v in row] for row in self.p
                ],
            }
        )

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
    num = src.num.astype(object)
    squares, masses = (num * num).sum(axis=0).tolist(), num.sum(axis=0).tolist()
    inner = sum(map(Fraction, squares, masses), Fraction(0)) / src.den
    h2 = -math.log2(inner) if inner > 0 else math.inf
    return h2, inner


def iid_extend(src: JointSource, n: int, budget=DEFAULT_SOURCE_BUDGET) -> JointSource:
    """The n-fold product source: the Kronecker power of the counts over
    den**n, on n-tuple labels; the inner collision sum multiplies."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:  # nothing is built, so no budget applies
        return src
    if src.x_size**n * src.z_size**n > budget:
        raise BudgetExceeded(f"product alphabet exceeds budget {budget}")
    den = src.den**n
    return JointSource.__new__(JointSource)._set_counts(
        tuple(itertools.product(src.x_labels, repeat=n)),
        itertools.product(src.z_labels, repeat=n),
        reduce(np.kron, [_counts(src.num, den)] * n), den)


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

    Cell (z, s, T[x, s]) accumulates num[x, z] over den * |S|.  A cell is
    at most den, so the joint keeps the source's dtype; a sum over s reaches
    |S| den, so it is taken in Python ints.  The key is independent of Z
    when |A| sum_s P[z, s, a] = |S| sum_x num[x, z].
    """
    if tuple(src.x_labels) != tuple(f.x_labels):
        raise AlphabetMismatch("source X alphabet differs from the family point set")
    if f.s_size == 0:
        raise TrivialDomain(f"{f.name} has an empty seed set; the joint is a share of |S|")
    T = f.to_table(budget).array
    ns, na = f.s_size, f.a_size
    num = np.zeros((src.z_size, ns, na), dtype=src.num.dtype)
    np.add.at(num, (slice(None), np.arange(ns), T), src.num.T[:, :, None])
    den = src.den * ns
    key_marginal = _fraction(num.sum(axis=(0, 1), dtype=object), den).tolist()
    dependent = np.argwhere(na * num.sum(axis=1, dtype=object)
                            != ns * src.num.sum(axis=0, dtype=object)[:, None])
    witness = next(((src.z_labels[j], f.a_labels[a]) for j, a in dependent), None)
    return PAJoint(src.z_labels, f.s_labels, f.a_labels, num, den, key_marginal,
                   witness is None, witness)


def security_distance(joint: PAJoint):
    """Exact max_{a,a'} l1 distance between the conditionals p_{ZS|A=a}.

    With key counts m, the distance of (a, a') is
    sum_{z,s} |P[z,s,a] m_a' - P[z,s,a'] m_a| / (m_a m_a'), summed in
    Python ints.  Returns (distance, (a, a') witness).
    """
    labels = joint.a_labels
    na = len(labels)
    P = joint.num.reshape(-1, na).astype(object)
    m = P.sum(axis=0)
    for a in range(na):
        if m[a] == 0:
            raise ZeroMassKeyValue(f"key value {labels[a]!r} has zero mass")
    best = Fraction(0)
    witness = (labels[0], labels[0]) if na else None
    for a in range(na):
        cross = np.abs(P[:, a:a + 1] * m - P * m[a]).sum(axis=0)
        for b in range(na):
            d = Fraction(cross[b], m[a] * m[b])
            if b != a and d > best:
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
        return {
            "family": self.family,
            "eps_acfu": rational_str(self.eps_acfu),
            "key_marginal": [rational_str(v) for v in self.key_marginal],
            "independence_verified": self.independence_verified,
            "security_distance": rational_str(self.security_distance),
            "security_distance_float": float(self.security_distance),
            "distance_witness": repr(self.distance_witness),
            "entropy_h2": self.entropy_h2,
            "renyi_inner": rational_str(self.renyi_inner),
            "radicand": rational_str(self.radicand),
            "theorem_bound": self.theorem_bound,
        }


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
