"""Exhaustive verification: minimal epsilon per hash class and seed bounds.

Every check reads the family's integer table T[x, s] (built once by
``HashFamily.to_table``) through two counters: ``_row_counts``, the
histogram #{s : T[x, s] = a}, for regularity and BALANCED; and
``_pair_max``, the histogram #{s : code[T[x, s], T[x', s]] = c} over
x < x', for AU, ACFU, ASU and ``construct.balanced_epsilon``, each with
its own code table on value pairs.  A witness is the first strict maximum
in the scan order x, x', a, a' (label order).  All epsilons and bound
values are exact ``Fraction``s, so equality against the lower bounds is
decidable with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InfeasibleEpsilon, NotHomomorphic, NotRegular, TrivialDomain
from .families import DEFAULT_TABLE_BUDGET, HashFamily

CLASSES = ("AU", "ACFU", "ASU", "BALANCED")

# entries that one bincount of _pair_max reads or counts, unless one row is larger
_BLOCK = 1 << 15


def _op_table(labels, index, op, right=None):
    """table[u, v] = index[op(labels[u], right[v])], right defaulting to labels."""
    right = labels if right is None else right
    rows = [[index[op(u, v)] for v in right] for u in labels]
    return np.array(rows, dtype=np.int64)


def _row_counts(T, na):
    """counts[x, a] = #{s : T[x, s] = a}."""
    nx = T.shape[0]
    keys = T + na * np.arange(nx)[:, None]
    return np.bincount(keys.ravel(), minlength=nx * na).reshape(nx, na)


def _pair_max(T, code, ncodes):
    """First strict maximum of #{s : code[T[x, s], T[x', s]] = c} over
    x < x' and c < ncodes in (x, x', c) order, as (count, (x, x', c)), or
    (-1, None) without a pair.  A code of ncodes is not counted.  Each
    bincount counts a block of rows x' of about _BLOCK entries and bins.
    """
    nx, ns = T.shape
    width = ncodes + 1
    step = max(1, _BLOCK // max(ns, width))
    best, where = -1, None
    for i in range(nx - 1):
        row = T[i] * len(code)
        for j in range(i + 1, nx, step):
            keys = code.take(row + T[j:j + step])
            m = keys.shape[0]
            keys += width * np.arange(m)[:, None]
            counts = np.bincount(keys.ravel(), minlength=m * width)
            counts = counts.reshape(m, width)[:, :ncodes]
            k = int(counts.argmax())
            if counts.flat[k] > best:
                best, where = int(counts.flat[k]), (i, j + k // ncodes, k % ncodes)
    return best, where


@dataclass
class RegularityResult:
    regular: bool
    block_size: int | None
    counts: dict  # (x_label, a_label) -> count


def regularity_check(f: HashFamily, budget=DEFAULT_TABLE_BUDGET) -> RegularityResult:
    """Check property (ACFU1): every value is hit |S|/|A| times in each row."""
    hist = _row_counts(f.to_table(budget)._array, f.a_size)
    keys = ((x, a) for x in f.x_labels for a in f.a_labels)
    counts = dict(zip(keys, hist.ravel().tolist()))
    block, rest = divmod(f.s_size, f.a_size)
    regular = rest == 0 and bool((hist == block).all())
    return RegularityResult(regular, block if regular else None, counts)


def _homomorphic_in_x(f: HashFamily, T) -> bool:
    """Whether f(x + y, s) = f(x, s) + f(y, s); stops at the first failing x."""
    g, ga = f.x_group, f.a_group
    if g is None or ga is None:
        return False
    add = _op_table(f.a_labels, f.a_index, ga.add)
    for i, x in enumerate(f.x_labels):
        sums = [f.x_index[g.add(x, y)] for y in f.x_labels]
        if not np.array_equal(add[T[i], T], T[sums]):
            return False
    return True


def min_epsilon(f: HashFamily, hash_class: str, budget=DEFAULT_TABLE_BUDGET):
    """Least epsilon of the given class, with its first witness.

    With N(x, x', a, a') = #{s : f(x, s) = a, f(x', s) = a'} over x < x',
    AU is max sum_a N(x, x', a, a) / |S|, ACFU max N(x, x', a, a) and ASU
    max N(x, x', a, a'), both over |S|/|A|; the latter two raise
    NotRegular without (ACFU1).  BALANCED is max #{s : f(x, s) = a} / |S|
    over x != 0 and raises NotHomomorphic unless f is linear in x.

    Returns (epsilon, witness): the first strict maximum in the scan order
    (x, x', a, a'), in domain labels: AU -> (x, x'), ACFU -> (x, x', a),
    ASU -> (x, x', a, a'), BALANCED -> (x, a); (0, None) if there is none.
    """
    if hash_class not in CLASSES:
        raise ValueError(f"unknown hash class {hash_class!r}")
    if hash_class in ("ACFU", "ASU"):
        reg = regularity_check(f, budget)
        if not reg.regular:
            raise NotRegular(
                f"{f.name} fails (ACFU1)/(ASU1); {hash_class} is unattainable"
            )
    T = f.to_table(budget)._array
    X, A, na = f.x_labels, f.a_labels, f.a_size

    if hash_class == "BALANCED":
        if not _homomorphic_in_x(f, T):
            raise NotHomomorphic(
                f"{f.name} lacks group structure or is not linear in x"
            )
        hist = _row_counts(T, na)
        hist[[x == f.x_group.zero for x in X]] = -1
        best = int(hist.max(initial=-1))
        if best < 0:
            return Fraction(0), None
        i, k = divmod(int(hist.argmax()), na)
        return Fraction(best, f.s_size), (X[i], A[k])

    eye = np.eye(na, dtype=bool)
    if hash_class == "AU":
        best, where = _pair_max(T, np.where(eye, 0, 1), 1)
    elif hash_class == "ACFU":
        best, where = _pair_max(T, np.where(eye, np.arange(na), na), na)
    else:
        best, where = _pair_max(T, np.arange(na * na).reshape(na, na), na * na)
    if where is None:
        return Fraction(0), None
    i, j, c = where
    norm = f.s_size if hash_class == "AU" else reg.block_size
    values = {"AU": (), "ACFU": (c,), "ASU": divmod(c, na)}[hash_class]
    return Fraction(best, norm), (X[i], X[j], *(A[k] for k in values))


def optimal_epsilon(x_size: int, a_size: int) -> Fraction:
    """Universal lower bound (|X|-|A|) / (|A|(|X|-1)) on any AU/ACFU epsilon."""
    if not x_size > a_size >= 2:
        raise TrivialDomain("need |X| > |A| >= 2 for a nontrivial bound")
    return Fraction(x_size - a_size, a_size * (x_size - 1))


@dataclass
class BoundReport:
    x_size: int
    a_size: int
    eps: Fraction
    optimal_eps: Fraction
    lb_variance: Fraction | None  # undefined when its denominator vanishes
    lb_simple: Fraction
    lb_ocfu: Fraction | None  # only at optimal epsilon
    lb_au: Fraction | None
    lb_asu_variance: Fraction | None
    lb_asu_simple: Fraction
    variance_applies: bool
    variance_interval_nonempty: bool
    asu_simple_applies: bool

    def bounds(self) -> dict:
        return {
            "variance": self.lb_variance,
            "simple": self.lb_simple,
            "ocfu": self.lb_ocfu,
            "au": self.lb_au,
            "asu_variance": self.lb_asu_variance,
            "asu_simple": self.lb_asu_simple,
        }

    def to_dict(self) -> dict:
        out = {
            "x_size": self.x_size,
            "a_size": self.a_size,
            "eps": rational_str(self.eps),
            "optimal_eps": rational_str(self.optimal_eps),
            "variance_applies": self.variance_applies,
            "variance_interval_nonempty": self.variance_interval_nonempty,
            "asu_simple_applies": self.asu_simple_applies,
        }
        for name, val in self.bounds().items():
            out["lb_" + name] = rational_str(val)
        return out


def rational_str(x):
    if x is None:
        return None
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def seed_lower_bounds(x_size: int, a_size: int, eps) -> BoundReport:
    """All seed-size lower bounds for the given epsilon, as exact rationals."""
    eps = Fraction(eps)
    X, A = x_size, a_size
    opt = optimal_epsilon(X, A)
    if eps < opt or eps > 1:
        raise InfeasibleEpsilon(f"eps = {eps} outside [{opt}, 1]")

    den_var = eps * A * (X - A) + A * A - X
    lb_variance = 1 + Fraction(X * (A - 1) ** 2) / den_var if den_var > 0 else None
    lb_au = Fraction(X * (A - 1)) / den_var if den_var > 0 else None
    lb_simple = Fraction(A) / eps
    lb_ocfu = Fraction(A * (X - 1), A - 1) if eps == opt else None
    den_asu = eps * A * (X - 1) + A - X
    lb_asu_variance = (
        1 + Fraction(X * (A - 1) ** 2) / den_asu if den_asu > 0 else None
    )
    lb_asu_simple = Fraction(A) / eps

    # variance bound applies on [opt, (X-A^2)/(X-A)]
    variance_applies = eps <= Fraction(X - A * A, X - A)
    # nonemptiness: X >= (A/2)(A + sqrt((A+3)(A-1)) + 1), squared integer form
    u = 2 * X - A * (A + 1)
    nonempty = u >= 0 and u * u >= A * A * (A + 3) * (A - 1)
    asu_simple_applies = eps >= Fraction(X - A, X - 1)

    return BoundReport(
        X, A, eps, opt, lb_variance, lb_simple, lb_ocfu, lb_au,
        lb_asu_variance, lb_asu_simple,
        variance_applies, nonempty, asu_simple_applies,
    )


@dataclass
class VerificationReport:
    family: str
    x_size: int
    s_size: int
    a_size: int
    regular: bool
    block_size: int | None
    eps_au: Fraction
    eps_acfu: Fraction | None  # None when irregular (NotRegular)
    eps_asu: Fraction | None
    eps_balanced: Fraction | None  # None without a verified group structure
    witnesses: dict = field(default_factory=dict)
    ocfu: bool = False
    ou: bool = False
    bounds: BoundReport | None = None
    equality: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "x_size": self.x_size,
            "s_size": self.s_size,
            "a_size": self.a_size,
            "regular": self.regular,
            "block_size": self.block_size,
            "eps_au": rational_str(self.eps_au),
            "eps_acfu": rational_str(self.eps_acfu)
            if self.eps_acfu is not None
            else "NotRegular",
            "eps_asu": rational_str(self.eps_asu)
            if self.eps_asu is not None
            else "NotRegular",
            "eps_balanced": rational_str(self.eps_balanced),
            "witnesses": {
                k: repr(v) for k, v in self.witnesses.items()
            },
            "ocfu": self.ocfu,
            "ou": self.ou,
            "bounds": self.bounds.to_dict() if self.bounds else None,
            "equality": self.equality,
        }


def classify(f: HashFamily, budget=DEFAULT_TABLE_BUDGET) -> VerificationReport:
    """Full report: regularity, minimal epsilons, bound equalities, OCFU/OU."""
    reg = regularity_check(f, budget)
    witnesses = {}
    eps_au, w = min_epsilon(f, "AU", budget)
    witnesses["AU"] = w

    eps_acfu = eps_asu = None
    if reg.regular:
        eps_acfu, w = min_epsilon(f, "ACFU", budget)
        witnesses["ACFU"] = w
        eps_asu, w = min_epsilon(f, "ASU", budget)
        witnesses["ASU"] = w

    eps_balanced = None
    try:
        eps_balanced, w = min_epsilon(f, "BALANCED", budget)
        witnesses["BALANCED"] = w
    except NotHomomorphic:
        pass

    ocfu = ou = False
    bounds = None
    equality = {}
    if f.x_size > f.a_size >= 2:
        opt = optimal_epsilon(f.x_size, f.a_size)
        ou = eps_au == opt
        if reg.regular:
            ocfu = eps_acfu == opt
            if eps_acfu > 0:
                bounds = seed_lower_bounds(f.x_size, f.a_size, eps_acfu)
                for name, val in bounds.bounds().items():
                    equality[name] = val is not None and Fraction(f.s_size) == val

    return VerificationReport(
        family=f.name,
        x_size=f.x_size,
        s_size=f.s_size,
        a_size=f.a_size,
        regular=reg.regular,
        block_size=reg.block_size,
        eps_au=eps_au,
        eps_acfu=eps_acfu,
        eps_asu=eps_asu,
        eps_balanced=eps_balanced,
        witnesses=witnesses,
        ocfu=ocfu,
        ou=ou,
        bounds=bounds,
        equality=equality,
    )
