"""Exhaustive verification: minimal epsilon per hash class and seed bounds.

AU, ACFU and ASU come from the pair pass of ``_count``.  All epsilons and
bound values are exact ``Fraction``s, so equality against the lower bounds
is decidable with zero tolerance.  Every report of the library renders its
dict through ``_render``: its own fields, a ``Fraction`` as "n/d".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._count import pair_pass, regular_block, row_counts
from .errors import InfeasibleEpsilon, NotHomomorphic, NotRegular, TrivialDomain
from .families import DEFAULT_TABLE_BUDGET, HashFamily, _on_carrier

CLASSES = ("AU", "ACFU", "ASU", "BALANCED")


@dataclass
class RegularityResult:
    regular: bool
    block_size: int | None
    counts: dict  # (x_label, a_label) -> count


def regularity_check(f: HashFamily, budget=DEFAULT_TABLE_BUDGET) -> RegularityResult:
    """Check property (ACFU1): every value is hit |S|/|A| times in each row."""
    T = f.to_table(budget).array
    hist, block = row_counts(T, f.a_size), regular_block(T, f.a_size)
    keys = ((x, a) for x in f.x_labels for a in f.a_labels)
    counts = dict(zip(keys, hist.ravel().tolist()))
    return RegularityResult(block is not None, block, counts)


def _homomorphic_in_x(f: HashFamily, T) -> bool:
    """Whether f(x + y, s) = f(x, s) + f(y, s), by induction from f(0, s) = 0 and
    f(x + g, s) = f(x, s) + f(g, s) for every x and each g of a generating set:
    g is the first point outside the span of those before, so at most log2 |X|.
    The value group's |A| x |A| table is kept only while it is no larger than
    f's own; past that its operation is evaluated at the entries read."""
    gx, ga = f.x_group, f.a_group
    if gx is None or ga is None:
        return False
    to_x, back_x = _on_carrier(f.x_labels, gx, f"point set of {f.name}")
    to_a, back_a = _on_carrier(f.a_labels, ga, f"value set of {f.name}")
    if f.a_size**2 <= T.size:
        table = back_a[ga._op(to_a[:, None], to_a)]
        add = lambda u, v: table[u, v]  # value index of a_u + a_v
    else:
        add = lambda u, v: back_a[ga._op(to_a[u], to_a[v])]
    span = np.arange(f.x_size) == f.x_index[gx.zero]
    linear = np.array_equal(add(T[span], T[span]), T[span])  # f(0, s) = 0
    while linear and not span.all():
        g = int(span.argmin())
        shift = back_x[gx._op(to_x, to_x[g])]  # index of x + g, for every x
        linear = np.array_equal(T[shift], add(T, T[g]))
        while not span[shift[span]].all():  # close the span under + g
            span[shift[span]] = True
    return linear


def min_epsilon(f: HashFamily, hash_class: str, budget=DEFAULT_TABLE_BUDGET):
    """Least epsilon of the given class, with its first witness.

    With N(x, x', a, a') = #{s : f(x, s) = a, f(x', s) = a'} over x < x',
    AU is max sum_a N(x, x', a, a) / |S|, ACFU max N(x, x', a, a) and ASU
    max N(x, x', a, a'), both over |S|/|A|; the latter two raise
    NotRegular without (ACFU1).  BALANCED is max #{s : f(x, s) = a} / |S|
    over x != 0 and raises NotHomomorphic unless f is linear in x.  Every
    class raises TrivialDomain for an empty seed set.

    The first AU, ACFU or ASU call counts all three in one pass of
    ``_count`` and memoises them on f, counting only the rows least in their
    orbit under f.automorphisms (NotAnAutomorphism if one fails on f).

    Returns (epsilon, witness): the first strict maximum in the scan order
    (x, x', a, a'), in domain labels: AU -> (x, x'), ACFU -> (x, x', a),
    ASU -> (x, x', a, a'), BALANCED -> (x, a); (0, None) if there is none.
    """
    if hash_class not in CLASSES:
        raise ValueError(f"unknown hash class {hash_class!r}")
    if f.s_size == 0:
        raise TrivialDomain(f"{f.name} has an empty seed set; every epsilon is a share of |S|")
    T = f.to_table(budget).array
    if hash_class != "BALANCED":
        pairs = pair_pass(f, T)
        if hash_class not in pairs:
            raise NotRegular(f"{f.name} fails (ACFU1)/(ASU1); {hash_class} is unattainable")
        return pairs[hash_class]

    X, A, na = f.x_labels, f.a_labels, f.a_size
    if not _homomorphic_in_x(f, T):
        raise NotHomomorphic(f"{f.name} lacks group structure or is not linear in x")
    hist = row_counts(T, na)
    hist[f.x_index[f.x_group.zero]] = -1
    best = int(hist.max(initial=-1))
    if best < 0:
        return Fraction(0), None
    i, k = divmod(int(hist.argmax()), na)
    return Fraction(best, f.s_size), (X[i], A[k])


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
        return _render(self)


def rational_str(x):
    if x is None:
        return None
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _json(value):
    """value as JSON: a Fraction as "n/d", a list item by item, a report by its to_dict."""
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, list):
        return [_json(v) for v in value]
    return value.to_dict() if hasattr(value, "to_dict") else value


def _render(report, *drop, **keys) -> dict:
    """A report's dict, the one rule of every report: its fields (``vars``) under
    their own names, less those named in drop, and keys, the ones it renders
    otherwise; every value as ``_json`` writes it."""
    fields = {**{k: v for k, v in vars(report).items() if k not in drop}, **keys}
    return {k: _json(v) for k, v in fields.items()}


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
        irregular = {n: "NotRegular" for n in ("eps_acfu", "eps_asu") if getattr(self, n) is None}
        witnesses = {k: repr(v) for k, v in self.witnesses.items()}
        return _render(self, witnesses=witnesses, **irregular)


def classify(f: HashFamily, budget=DEFAULT_TABLE_BUDGET) -> VerificationReport:
    """Full report: regularity, minimal epsilons, bound equalities, OCFU/OU."""
    min_epsilon(f, "AU", budget)  # TrivialDomain for an empty seed set, else the pass, memoised
    pairs = pair_pass(f, f.to_table(budget).array)
    witnesses = {name: pairs[name][1] for name in ("AU", "ACFU", "ASU") if name in pairs}
    eps_au, eps_acfu, eps_asu = (pairs.get(name, (None,))[0] for name in ("AU", "ACFU", "ASU"))
    regular = eps_acfu is not None

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
        if regular:
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
        regular=regular,
        block_size=f.s_size // f.a_size if regular else None,
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
