"""Constructions: seed extension, point extension, concatenation, lifts.

Each construction is an index formula over its parts' formulas: a pair
index splits by // and % into a part's index and a carrier element's,
and the quasigroup or group operation is a small index table, rows in
the part's value order.  Concatenation maps f1's value index to f2's
point index through a permutation array.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction

import numpy as np

from .errors import (
    CarrierMismatch,
    DomainMismatch,
    NotBalanced,
    NotLatinSquare,
    TheoremViolation,
)
from .families import (
    DEFAULT_TABLE_BUDGET,
    Group,
    HashFamily,
    _formula_family,
    decode_label,
    encode_label,
    json_fields,
)
from .verify import _op_table, _pair_max
from .verify import min_epsilon, regularity_check


class Quasigroup:
    """Latin square on a carrier set, with a precomputed right-division table."""

    def __init__(self, labels, rows):
        self.labels = tuple(labels)
        n = len(self.labels)
        idx = {a: i for i, a in enumerate(self.labels)}
        if len(idx) != n:
            raise NotLatinSquare("carrier labels must be distinct")
        table = []
        for row in rows:
            row = tuple(row)
            if len(row) != n or any(a not in idx for a in row):
                raise NotLatinSquare("rows must be permutations of the carrier")
            table.append(tuple(idx[a] for a in row))
        if len(table) != n:
            raise NotLatinSquare("need one row per carrier element")
        for row in table:
            if sorted(row) != list(range(n)):
                raise NotLatinSquare("a row repeats an entry")
        for j in range(n):
            col = sorted(row[j] for row in table)
            if col != list(range(n)):
                raise NotLatinSquare("a column repeats an entry")
        self._idx = idx
        self._table = table
        # right division: div[a][b] = the unique g with g o b = a
        div = [[None] * n for _ in range(n)]
        for g in range(n):
            for b in range(n):
                div[table[g][b]][b] = g
        self._div = div

    @property
    def order(self):
        return len(self.labels)

    def mul(self, a, b):
        return self.labels[self._table[self._idx[a]][self._idx[b]]]

    def div(self, a, b):
        """The unique g with g o b = a."""
        return self.labels[self._div[self._idx[a]][self._idx[b]]]

    def to_json(self) -> str:
        return json.dumps(
            {
                "labels": [encode_label(a) for a in self.labels],
                "rows": [
                    [encode_label(self.labels[e]) for e in row] for row in self._table
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Quasigroup":
        labels, rows = json_fields(text, "labels", "rows")
        if not all(isinstance(r, list) for r in rows):
            raise NotLatinSquare("rows must be arrays of carrier labels")
        return cls([decode_label(a) for a in labels], [[decode_label(a) for a in r] for r in rows])


def cyclic_quasigroup(n: int) -> Quasigroup:
    labels = list(range(n))
    return Quasigroup(labels, [[(i + j) % n for j in labels] for i in labels])


def group_quasigroup(g: Group) -> Quasigroup:
    return Quasigroup(g.labels, [[g.add(a, b) for b in g.labels] for a in g.labels])


def quasigroup_build(source, **params) -> Quasigroup:
    """Build from an explicit table, a cyclic group, or an elementary abelian group."""
    if source == "cyclic":
        return cyclic_quasigroup(params["n"])
    if source == "elementary_abelian":
        p, m = params["p"], params["m"]
        from .fields import field_new
        from .families import vector_group

        return group_quasigroup(vector_group(field_new(p), m))
    if source == "table":
        return Quasigroup(params["labels"], params["rows"])
    raise NotLatinSquare(f"unknown quasigroup source {source!r}")


def _require_carrier(f: HashFamily, q: Quasigroup):
    if set(f.a_labels) != set(q.labels):
        raise CarrierMismatch(
            f"value set of {f.name} does not match the quasigroup carrier"
        )


def seed_extension(g: HashFamily, q: Quasigroup) -> HashFamily:
    """f(x; h, b) = g(x, h) o b.  Always satisfies (ACFU1)."""
    _require_carrier(g, q)
    s_labels = [(h, b) for h in g.s_labels for b in q.labels]
    gi, n, mul = g._index_fn, q.order, _op_table(g.a_labels, g.a_index, q.mul, q.labels)
    return _formula_family(
        f"seed_ext({g.name})", g.x_labels, s_labels, g.a_labels,
        lambda xi, si: mul[gi(xi, si // n), si % n],
        x_group=g.x_group, a_group=g.a_group,
    )


def point_extension(g: HashFamily, q: Quasigroup,
                    budget=DEFAULT_TABLE_BUDGET) -> HashFamily:
    """f(y, b; s) = g(y, s) o b.  Inherits (ACFU1) only from an (ASU1) g."""
    _require_carrier(g, q)
    if not regularity_check(g, budget).regular:
        warnings.warn(
            f"point extension of irregular {g.name}: the result fails (ACFU1)",
            stacklevel=2,
        )
    x_labels = [(y, b) for y in g.x_labels for b in q.labels]
    gi, n, mul = g._index_fn, q.order, _op_table(g.a_labels, g.a_index, q.mul, q.labels)
    return _formula_family(
        f"point_ext({g.name})", x_labels, g.s_labels, g.a_labels,
        lambda xi, si: mul[gi(xi // n, si), xi % n], a_group=g.a_group,
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

    Needs an abelian group on the value set only.  Returns (eps, witness);
    the witness (y, y', b) is the first strict maximum in label order.
    """
    if a.a_group is None:
        raise NotBalanced(f"{a.name} has no designated group on its value set")
    sub = _op_table(a.a_labels, a.a_index, a.a_group.sub)
    best, where = _pair_max(a.to_table(budget)._array, sub, a.a_size)
    if where is None:
        return Fraction(0), None
    i, j, b = where
    return Fraction(best, a.s_size), (a.x_labels[i], a.x_labels[j], a.a_labels[b])


def krawczyk_lift(g: HashFamily, eps=None, budget=DEFAULT_TABLE_BUDGET):
    """Seed-extend a group-homomorphic balanced g into an ASU family.

    Returns (lifted family, eps).  The lift uses the group quasigroup of
    the value set; the resulting family is verified to be eps-ASU.
    """
    bal_eps, _ = min_epsilon(g, "BALANCED", budget)  # raises NotHomomorphic
    if eps is not None:
        eps = Fraction(eps)
        if bal_eps > eps:
            raise NotBalanced(f"{g.name} is only {bal_eps}-balanced, not {eps}")
    else:
        eps = bal_eps
    lifted = seed_extension(g, group_quasigroup(g.a_group))
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
    g1, _ = double_extension_parts(a)
    grp, g1i, n = a.a_group, g1._index_fn, g1.a_size
    add = _op_table(g1.a_labels, g1.a_index, grp.add)
    return _formula_family(
        f"double_ext({a.name})", g1.x_labels,
        [(h, c) for h in a.s_labels for c in grp.labels], grp.labels,
        lambda xi, si: add[g1i(xi, si // n), si % n], a_group=grp,
    )


def double_extension_parts(a: HashFamily):
    """The pair (g1, g2) with double_extension(a) = seed_ext(g1) = point_ext(g2)."""
    grp, ai, n = a.a_group, a._index_fn, len(a.a_group.labels)
    add = _op_table(a.a_labels, {c: i for i, c in enumerate(grp.labels)}, grp.add, grp.labels)
    g1 = _formula_family(
        f"g1({a.name})", [(y, b) for y in a.x_labels for b in grp.labels],
        a.s_labels, grp.labels, lambda xi, si: add[ai(xi // n, si), xi % n], a_group=grp,
    )
    g2 = _formula_family(
        f"g2({a.name})", a.x_labels, [(h, c) for h in a.s_labels for c in grp.labels],
        grp.labels, lambda xi, si: add[ai(xi, si // n), si % n], a_group=grp,
    )
    return g1, g2
