"""Hash families f: X x S -> A and the named closed-form constructions.

A family carries ordered, duplicate-free label sets for its three
domains plus an evaluator.  Labels are ints, strings, or (nested)
tuples, so they round-trip through JSON as nested arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    DomainError,
    NotPrime,
    UnsupportedParameters,
    UnsupportedSize,
)
from .fields import Field, field_for_order, field_new, is_prime, truncate

DEFAULT_TABLE_BUDGET = 10**7

#: label of the extra point row of the infinity-extended transversal family
INFINITY = "inf"


def encode_label(label):
    if isinstance(label, tuple):
        return [encode_label(x) for x in label]
    return label


def decode_label(obj):
    if isinstance(obj, list):
        return tuple(decode_label(x) for x in obj)
    return obj


class Group:
    """Finite abelian group on a fixed ordered label set."""

    def __init__(self, labels, add, neg, zero):
        self.labels = tuple(labels)
        self.add = add
        self.neg = neg
        self.zero = zero

    def sub(self, a, b):
        return self.add(a, self.neg(b))


def field_group(field: Field) -> Group:
    """Additive group of a field, on element indices."""
    return Group(field.elements(), field.add, field.neg, field.zero)


def vector_group(field: Field, t: int) -> Group:
    """Additive group of F_q^t, on t-tuples of element indices."""
    labels = _all_vectors(field, t)
    add = lambda a, b: tuple(field.add(x, y) for x, y in zip(a, b))
    neg = lambda a: tuple(field.neg(x) for x in a)
    return Group(labels, add, neg, (field.zero,) * t)


def _all_vectors(field: Field, t: int):
    vecs = [()]
    for _ in range(t):
        vecs = [v + (c,) for v in vecs for c in field.elements()]
    return vecs


class HashFamily:
    def __init__(self, name, x_labels, s_labels, a_labels, fn,
                 x_group: Group | None = None, a_group: Group | None = None):
        self.name = name
        self.x_labels = tuple(x_labels)
        self.s_labels = tuple(s_labels)
        self.a_labels = tuple(a_labels)
        if len(self.a_labels) < 1:
            raise DomainError("value set must be nonempty")
        for labels, which in ((self.x_labels, "X"), (self.s_labels, "S"),
                              (self.a_labels, "A")):
            if len(set(labels)) != len(labels):
                raise DomainError(f"duplicate labels in domain {which}")
        self._fn = fn
        self.x_index = {x: i for i, x in enumerate(self.x_labels)}
        self.s_index = {s: i for i, s in enumerate(self.s_labels)}
        self.a_index = {a: i for i, a in enumerate(self.a_labels)}
        self.x_group = x_group
        self.a_group = a_group
        self._table = None

    @property
    def x_size(self):
        return len(self.x_labels)

    @property
    def s_size(self):
        return len(self.s_labels)

    @property
    def a_size(self):
        return len(self.a_labels)

    def evaluate(self, x, s):
        if x not in self.x_index:
            raise DomainError(f"{x!r} not in the point set of {self.name}")
        if s not in self.s_index:
            raise DomainError(f"{s!r} not in the seed set of {self.name}")
        a = self._fn(x, s)
        if a not in self.a_index:
            raise DomainError(f"{self.name} produced {a!r} outside its value set")
        return a

    def to_table(self, budget: int = DEFAULT_TABLE_BUDGET) -> "FunctionTable":
        """The full table, evaluated once and kept; every call checks budget."""
        if self.x_size * self.s_size > budget:
            raise BudgetExceeded(
                f"{self.x_size} x {self.s_size} table exceeds budget {budget}"
            )
        if self._table is None:
            entries = [
                [self.a_index[self.evaluate(x, s)] for s in self.s_labels]
                for x in self.x_labels
            ]
            self._table = FunctionTable(
                self.x_labels, self.s_labels, self.a_labels, entries
            )
        return self._table

    def transpose(self) -> "HashFamily":
        """Swap point and seed roles (the dual function)."""
        return HashFamily(
            f"transpose({self.name})", self.s_labels, self.x_labels, self.a_labels,
            lambda s, x: self._fn(x, s), a_group=self.a_group,
        )


@dataclass(frozen=True)
class FunctionTable:
    x_labels: tuple
    s_labels: tuple
    a_labels: tuple
    entries: tuple  # rows of a-indices

    def __init__(self, x_labels, s_labels, a_labels, entries):
        object.__setattr__(self, "x_labels", tuple(x_labels))
        object.__setattr__(self, "s_labels", tuple(s_labels))
        object.__setattr__(self, "a_labels", tuple(a_labels))
        rows = tuple(tuple(r) for r in entries)
        if len(rows) != len(self.x_labels) or any(
            len(r) != len(self.s_labels) for r in rows
        ):
            raise DomainError("table shape does not match domains")
        na = len(self.a_labels)
        if any(not 0 <= e < na for r in rows for e in r):
            raise DomainError("table entry out of range")
        object.__setattr__(self, "entries", rows)

    def to_family(self, name="table") -> HashFamily:
        xi = {x: i for i, x in enumerate(self.x_labels)}
        si = {s: i for i, s in enumerate(self.s_labels)}
        return HashFamily(
            name, self.x_labels, self.s_labels, self.a_labels,
            lambda x, s: self.a_labels[self.entries[xi[x]][si[s]]],
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "x_labels": [encode_label(x) for x in self.x_labels],
                "s_labels": [encode_label(s) for s in self.s_labels],
                "a_labels": [encode_label(a) for a in self.a_labels],
                "rows": [list(r) for r in self.entries],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FunctionTable":
        obj = json.loads(text)
        return cls(
            [decode_label(x) for x in obj["x_labels"]],
            [decode_label(s) for s in obj["s_labels"]],
            [decode_label(a) for a in obj["a_labels"]],
            obj["rows"],
        )


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


def normalized_vectors(field: Field, t: int):
    """Nonzero vectors of F_q^t whose first nonzero component is 1, in lex order."""
    out = []
    for v in _all_vectors(field, t):
        nz = [c for c in v if c != field.zero]
        if nz and nz[0] == field.one:
            out.append(v)
    return out


def affine(q: int, t: int) -> HashFamily:
    """f(x; h, beta) = sum_i h_i x_i + beta on X = F_q^t."""
    field = field_for_order(q)
    hs = normalized_vectors(field, t)
    x_labels = _all_vectors(field, t)
    s_labels = [(h, b) for h in hs for b in field.elements()]

    def fn(x, s):
        h, b = s
        acc = field.zero
        for hi, xi in zip(h, x):
            acc = field.add(acc, field.mul(hi, xi))
        return field.add(acc, b)

    return HashFamily(
        f"affine({q},{t})", x_labels, s_labels, field.elements(), fn,
        x_group=vector_group(field, t), a_group=field_group(field),
    )


def dual_affine(q: int, t: int) -> HashFamily:
    """The affine family with point and seed roles swapped."""
    base = affine(q, t)
    g = base.transpose()
    return HashFamily(
        f"dual_affine({q},{t})", g.x_labels, g.s_labels, g.a_labels, g._fn,
        a_group=base.a_group,
    )


def transversal(q: int, h_subset=None, include_infinity: bool = False) -> HashFamily:
    """f(h, y; s1, s2) = s2 - h*s1 + y, optionally with the infinity rows."""
    field = field_for_order(q)
    if h_subset is None:
        h_subset = list(field.elements())
    else:
        h_subset = list(h_subset)
        if len(set(h_subset)) != len(h_subset) or any(
            not 0 <= h < q for h in h_subset
        ):
            raise UnsupportedParameters("H must be a duplicate-free subset of F_q")
    x_labels = [(h, y) for h in h_subset for y in field.elements()]
    if include_infinity:
        x_labels += [(INFINITY, y) for y in field.elements()]
    s_labels = [(s1, s2) for s1 in field.elements() for s2 in field.elements()]

    def fn(x, s):
        h, y = x
        s1, s2 = s
        if h == INFINITY:
            return field.add(s1, y)
        return field.add(field.sub(s2, field.mul(h, s1)), y)

    return HashFamily(
        f"transversal({q})", x_labels, s_labels, field.elements(), fn,
        a_group=field_group(field),
    )


def toeplitz(q: int, m: int, n: int) -> HashFamily:
    """g(x, h) = T_h x with T_h the m x n Toeplitz matrix determined by h.

    The seed h lists the m+n-1 entries t_{i-j}, indexed so that
    t_{ij} = h[i - j + n - 1].
    """
    if m < 1 or n < 1:
        raise UnsupportedParameters("Toeplitz dimensions must be positive")
    field = field_for_order(q)
    x_labels = _all_vectors(field, n)
    s_labels = _all_vectors(field, m + n - 1)
    a_labels = _all_vectors(field, m)

    def fn(x, h):
        out = []
        for i in range(m):
            acc = field.zero
            for j in range(n):
                acc = field.add(acc, field.mul(h[i - j + n - 1], x[j]))
            out.append(acc)
        return tuple(out)

    return HashFamily(
        f"toeplitz({q},{m},{n})", x_labels, s_labels, a_labels, fn,
        x_group=vector_group(field, n), a_group=vector_group(field, m),
    )


def field_multiply(q: int, n: int, m: int, exclude_zero: bool = False) -> HashFamily:
    """g(x, h) = first m coordinates of h*x in F_{q^n} viewed over F_q."""
    if not is_prime(q):
        raise UnsupportedParameters("field_multiply requires prime q")
    if not 1 <= m <= n:
        raise UnsupportedParameters("need 1 <= m <= n")
    big = field_new(q, n)
    base = field_new(q)
    x_labels = list(big.elements())
    s_labels = [h for h in big.elements() if not (exclude_zero and h == big.zero)]

    def fn(x, h):
        return truncate(big, big.mul(h, x), m)

    name = f"field_multiply({q},{n},{m}{',*' if exclude_zero else ''})"
    return HashFamily(
        name, x_labels, s_labels, _all_vectors(base, m), fn,
        x_group=field_group(big), a_group=vector_group(base, m),
    )


def transversal_dual_affine_relabeling(q: int):
    """Canonical relabeling identifying the infinity-extended transversal
    family with H = F_q and dual_affine(q, 2).

    Returns (point_map, seed_map): point (h, y) -> ((1, -h), y),
    (inf, y) -> ((0, 1), y); seed (s1, s2) -> (s2, s1).  Under these maps
    the two function tables agree pointwise.
    """
    field = field_for_order(q)

    def point_map(x):
        h, y = x
        if h == INFINITY:
            return ((field.zero, field.one), y)
        return ((field.one, field.neg(h)), y)

    def seed_map(s):
        s1, s2 = s
        return (s2, s1)

    return point_map, seed_map


_BUILDERS = {
    "affine": affine,
    "dual_affine": dual_affine,
    "transversal": transversal,
    "toeplitz": toeplitz,
    "field_multiply": field_multiply,
}


def build_named(kind: str, **params) -> HashFamily:
    if kind not in _BUILDERS:
        raise UnsupportedParameters(f"unknown family kind {kind!r}")
    try:
        return _BUILDERS[kind](**params)
    except TypeError as exc:
        raise UnsupportedParameters(str(exc)) from exc
    except (UnsupportedSize, NotPrime) as exc:
        raise UnsupportedParameters(str(exc)) from exc
