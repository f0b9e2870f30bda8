"""Exact privacy-amplification evaluation.

Every probability is a ``Fraction``; floating point only enters for the
final logarithm / square root of reported scalars, and the headline
inequality is checked on squared quantities in rational arithmetic.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    DomainError,
    NegativeRadicand,
    TheoremViolation,
    ZeroMassKeyValue,
)
from .families import DEFAULT_TABLE_BUDGET, HashFamily, decode_label, encode_label, json_fields
from .verify import min_epsilon

DEFAULT_SOURCE_BUDGET = 10**6


class JointSource:
    """Joint distribution p_XZ with exact rational entries.

    Alphabet letters z with zero marginal mass are dropped at
    construction (with a warning).
    """

    def __init__(self, x_labels, z_labels, p):
        x_labels = tuple(x_labels)
        z_labels = tuple(z_labels)
        rows = [[Fraction(v) for v in row] for row in p]
        if len(rows) != len(x_labels) or any(len(r) != len(z_labels) for r in rows):
            raise AlphabetMismatch("probability array shape mismatch")
        if any(v < 0 for r in rows for v in r):
            raise ValueError("negative probability entry")
        total = sum(v for r in rows for v in r)
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        z_mass = [sum(rows[i][j] for i in range(len(x_labels)))
                  for j in range(len(z_labels))]
        keep = [j for j, m in enumerate(z_mass) if m > 0]
        if len(keep) != len(z_labels):
            warnings.warn("dropping z letters with zero mass", stacklevel=2)
        self.x_labels = x_labels
        self.z_labels = tuple(z_labels[j] for j in keep)
        self.p = [[rows[i][j] for j in keep] for i in range(len(x_labels))]

    @property
    def x_size(self):
        return len(self.x_labels)

    @property
    def z_size(self):
        return len(self.z_labels)

    def p_z(self, j):
        """Column vector p_z(x) = p_XZ(x, z_j)."""
        return [self.p[i][j] for i in range(self.x_size)]

    def z_marginal(self):
        return [sum(self.p_z(j)) for j in range(self.z_size)]

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
        except (TypeError, ZeroDivisionError):
            msg = "probabilities must be rows of rationals with no zero denominator"
            raise DomainError(msg) from None
        return cls([decode_label(x) for x in xs], [decode_label(z) for z in zs], p)


def uniform_source(x_labels) -> JointSource:
    """Uniform X with a trivial (constant) Z."""
    n = len(x_labels)
    return JointSource(x_labels, ["z0"], [[Fraction(1, n)] for _ in range(n)])


def renyi2_conditional(src: JointSource):
    """(H2(X|Z) in bits, exact inner sum 2^{-H2}).

    The inner sum is sum_z (p_z . p_z) / (p_z . 1).
    """
    inner = Fraction(0)
    for j in range(src.z_size):
        col = src.p_z(j)
        mass = sum(col)
        inner += sum(v * v for v in col) / mass
    h2 = -math.log2(inner) if inner > 0 else math.inf
    return h2, inner


def iid_extend(src: JointSource, n: int, budget=DEFAULT_SOURCE_BUDGET) -> JointSource:
    """The n-fold product source; the inner collision sum multiplies."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:  # nothing is built, so no budget applies
        return src
    if src.x_size**n * src.z_size**n > budget:
        raise BudgetExceeded(f"product alphabet exceeds budget {budget}")
    prev = iid_extend(src, n - 1, budget)
    x_labels = [(x, y) if n == 2 else x + (y,) for x in prev.x_labels
                for y in src.x_labels]
    z_labels = [(z, w) if n == 2 else z + (w,) for z in prev.z_labels
                for w in src.z_labels]
    p = [
        [prev.p[i][j] * src.p[k][l] for j in range(prev.z_size)
         for l in range(src.z_size)]
        for i in range(prev.x_size)
        for k in range(src.x_size)
    ]
    return JointSource(x_labels, z_labels, p)


@dataclass
class PAJoint:
    z_labels: tuple
    s_labels: tuple
    a_labels: tuple
    p: list  # p[z][s][a] exact rationals
    key_marginal: list
    independence_verified: bool
    independence_witness: tuple | None


def pa_joint(src: JointSource, f: HashFamily, budget=DEFAULT_TABLE_BUDGET) -> PAJoint:
    """Exact joint p_ZSA(z,s,a) = p_XZ restricted to f(x,s)=a, seed uniform."""
    if tuple(src.x_labels) != tuple(f.x_labels):
        raise AlphabetMismatch("source X alphabet differs from the family point set")
    T = f.to_table(budget).entries
    ns, na, nz = f.s_size, f.a_size, src.z_size
    inv_s = Fraction(1, ns)
    p = [[[Fraction(0)] * na for _ in range(ns)] for _ in range(nz)]
    for i in range(src.x_size):
        row = T[i]
        for j in range(nz):
            mass = src.p[i][j] * inv_s
            if mass == 0:
                continue
            for s in range(ns):
                p[j][s][row[s]] += mass

    key_marginal = [
        sum(p[j][s][a] for j in range(nz) for s in range(ns)) for a in range(na)
    ]
    z_marginal = src.z_marginal()
    independent = True
    witness = None
    for j in range(nz):
        for a in range(na):
            pza = sum(p[j][s][a] for s in range(ns))
            if pza != z_marginal[j] * Fraction(1, na):
                independent = False
                if witness is None:
                    witness = (src.z_labels[j], f.a_labels[a])
    return PAJoint(
        src.z_labels, f.s_labels, f.a_labels, p, key_marginal,
        independent, witness,
    )


def security_distance(joint: PAJoint):
    """Exact max_{a,a'} l1 distance between the conditionals p_{ZS|A=a}.

    Returns (distance, (a, a') witness).
    """
    na = len(joint.a_labels)
    nz, ns = len(joint.z_labels), len(joint.s_labels)
    conds = []
    for a in range(na):
        mass = joint.key_marginal[a]
        if mass == 0:
            raise ZeroMassKeyValue(f"key value {joint.a_labels[a]!r} has zero mass")
        conds.append(
            [[joint.p[j][s][a] / mass for s in range(ns)] for j in range(nz)]
        )
    best = Fraction(0)
    witness = (joint.a_labels[0], joint.a_labels[0]) if na else None
    for a in range(na):
        for b in range(na):
            if a == b:
                continue
            d = sum(
                abs(conds[a][j][s] - conds[b][j][s])
                for j in range(nz)
                for s in range(ns)
            )
            if d > best:
                best = d
                witness = (joint.a_labels[a], joint.a_labels[b])
    return best, witness


def theorem_radicand(eps, a_size: int, renyi_inner) -> Fraction:
    """(1 - eps)|A| 2^{-H} + |A| eps - 1 as an exact rational."""
    eps = Fraction(eps)
    inner = Fraction(renyi_inner)
    return (1 - eps) * a_size * inner + a_size * eps - 1


def theorem_bound(eps, a_size: int, renyi_inner) -> float:
    """Security bound 2 sqrt(radicand); the square root is the only float."""
    rad = theorem_radicand(eps, a_size, renyi_inner)
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
        from .verify import rational_str

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
    if rad < 0:
        raise NegativeRadicand(f"bound radicand {rad} is negative")
    # compare squared quantities exactly: dist^2 <= 4 * radicand
    if dist * dist > 4 * rad:
        raise TheoremViolation(
            f"security distance {dist} exceeds the bound for {f.name}; "
            f"radicand {rad}, joint {joint.p}"
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
        theorem_bound=2.0 * math.sqrt(float(rad)),
    )
