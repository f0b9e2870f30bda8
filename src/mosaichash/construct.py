"""Constructions: seed extension, point extension, concatenation, lifts.

Each construction is an index formula over its parts' formulas: a pair
index splits by // and % into a part's index and a carrier element's,
and the quasigroup or group operation (``families.Quasigroup``) is its
own index formula, read through the permutation arrays that
``families._on_carrier`` makes between the part's value order and the
carrier's (CarrierMismatch if they are not the same set).  Concatenation
maps f1's value index to f2's point index through a permutation array.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np

from ._count import difference_max, regular_block
from .errors import BudgetExceeded, DomainMismatch, NotBalanced, TheoremViolation, TrivialDomain
from .families import (
    DEFAULT_TABLE_BUDGET,
    HashFamily,
    Quasigroup,
    _formula_family,
    _on_carrier,
)
from .verify import min_epsilon


def seed_extension(g: HashFamily, q: Quasigroup) -> HashFamily:
    """f(x; h, b) = g(x, h) o b.  Always satisfies (ACFU1)."""
    to, back = _on_carrier(g.a_labels, q, f"value set of {g.name}")
    s_labels = [(h, b) for h in g.s_labels for b in q.labels]
    gi, n, op = g._index_fn, q.order, q._op
    return _formula_family(
        f"seed_ext({g.name})", g.x_labels, s_labels, g.a_labels,
        lambda xi, si: back[op(to[gi(xi, si // n)], si % n)],
        x_group=g.x_group, a_group=g.a_group,
    )


def point_extension(g: HashFamily, q: Quasigroup,
                    budget=DEFAULT_TABLE_BUDGET) -> HashFamily:
    """f(y, b; s) = g(y, s) o b.  Inherits (ACFU1) only from an (ASU1) g."""
    to, back = _on_carrier(g.a_labels, q, f"value set of {g.name}")
    if regular_block(g.to_table(budget).array, g.a_size) is None:
        warnings.warn(
            f"point extension of irregular {g.name}: the result fails (ACFU1)",
            stacklevel=2,
        )
    x_labels = [(y, b) for y in g.x_labels for b in q.labels]
    gi, n, op = g._index_fn, q.order, q._op
    return _formula_family(
        f"point_ext({g.name})", x_labels, g.s_labels, g.a_labels,
        lambda xi, si: back[op(to[gi(xi // n, si)], xi % n)], a_group=g.a_group,
    )


def concatenation_bound(eps1, eps2, a1_size: int) -> Fraction:
    return Fraction(eps1) * Fraction(eps2) * (a1_size - 1) + Fraction(eps1)


def concatenate(f1: HashFamily, f2: HashFamily) -> HashFamily:
    """f(x1; s1, s2) = f2(f1(x1, s1), s2)."""
    if set(f1.a_labels) != set(f2.x_labels):
        raise DomainMismatch(
            f"value set of {f1.name} does not match the point set of {f2.name}"
        )
    s_labels = [(s1, s2) for s1 in f1.s_labels for s2 in f2.s_labels]
    point = np.array([f2.x_index[a] for a in f1.a_labels], dtype=np.int64)
    f1i, f2i, n = f1._index_fn, f2._index_fn, f2.s_size
    return _formula_family(
        f"concat({f1.name},{f2.name})", f1.x_labels, s_labels, f2.a_labels,
        lambda xi, si: f2i(point[f1i(xi, si // n)], si % n),
        x_group=f1.x_group, a_group=f2.a_group,
    )


def balanced_epsilon(a: HashFamily, budget=DEFAULT_TABLE_BUDGET):
    """Least eps with |{h : a(y,h) - a(y',h) = b}| <= eps|H| for all y != y', b.

    Needs an abelian group on the value set only.  ``_count`` counts each
    pair of rows' differences through that group's subtraction table, of
    |A|^2 entries; BudgetExceeded is raised before it is built if that
    exceeds budget.  Returns (eps, witness); the witness (y, y', b) is the
    first strict maximum in label order.
    """
    if a.a_group is None:
        raise NotBalanced(f"{a.name} has no designated group on its value set")
    if a.s_size == 0:
        raise TrivialDomain(f"{a.name} has an empty seed set; every epsilon is a share of |S|")
    if a.a_size**2 > budget:
        raise BudgetExceeded(f"{a.a_size}^2 = {a.a_size**2} entry subtraction table of "
                             f"{a.name} exceeds budget {budget}")
    to, back = _on_carrier(a.a_labels, a.a_group, f"value set of {a.name}")
    T = a.to_table(budget).array
    total = back[a.a_group._op(to[:, None], to)]  # value index of a_u + a_v
    minus = total[:, (total == a.a_index[a.a_group.zero]).argmax(axis=0)]  # of a_u - a_v
    best, where = difference_max(T, minus)
    if where is None:
        return Fraction(0), None
    i, j, b = where
    return Fraction(best, a.s_size), (a.x_labels[i], a.x_labels[j], a.a_labels[b])


def krawczyk_lift(g: HashFamily, eps=None, budget=DEFAULT_TABLE_BUDGET):
    """Seed-extend a group-homomorphic balanced g into an ASU family.

    Returns (lifted family, eps).  The lift seed-extends by the group of the
    value set; the resulting family is verified to be eps-ASU.
    """
    bal_eps, _ = min_epsilon(g, "BALANCED", budget)  # raises NotHomomorphic
    if eps is not None:
        eps = Fraction(eps)
        if bal_eps > eps:
            raise NotBalanced(f"{g.name} is only {bal_eps}-balanced, not {eps}")
    else:
        eps = bal_eps
    lifted = seed_extension(g, g.a_group)
    asu_eps, _ = min_epsilon(lifted, "ASU", budget)
    if asu_eps > eps:
        raise TheoremViolation(
            f"lift of {g.name} is only {asu_eps}-ASU, above its guarantee {eps}"
        )
    return lifted, eps


def double_extension(a: HashFamily, allow_trivial: bool = False,
                     budget=DEFAULT_TABLE_BUDGET) -> HashFamily:
    """f(y, b; h, c) = a(y, h) + b + c over the abelian group of the value set."""
    eps, _ = balanced_epsilon(a, budget)
    if eps == 1 and a.x_size > 1 and not allow_trivial:
        raise NotBalanced(f"{a.name} is only trivially (eps = 1) balanced")
    f = seed_extension(double_extension_parts(a)[0], a.a_group)
    f.name = f"double_ext({a.name})"
    return f


def double_extension_parts(a: HashFamily):
    """The pair (g1, g2) with double_extension(a) = seed_ext(g1) = point_ext(g2)."""
    if a.a_group is None:
        raise NotBalanced(f"{a.name} has no designated group on its value set")
    grp, ai, n = a.a_group, a._index_fn, a.a_size
    to, _ = _on_carrier(a.a_labels, grp, f"value set of {a.name}")
    g1 = _formula_family(
        f"g1({a.name})", [(y, b) for y in a.x_labels for b in grp.labels],
        a.s_labels, grp.labels, lambda xi, si: grp._op(to[ai(xi // n, si)], xi % n), a_group=grp,
    )
    g2 = _formula_family(
        f"g2({a.name})", a.x_labels, [(h, c) for h in a.s_labels for c in grp.labels],
        grp.labels, lambda xi, si: grp._op(to[ai(xi, si // n)], si % n), a_group=grp,
    )
    return g1, g2
