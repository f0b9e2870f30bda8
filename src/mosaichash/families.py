"""Hash families f: X x S -> A and the named closed-form constructions.

A family carries ordered, duplicate-free label sets for its three
domains plus one index formula, value index = formula(x index, s index),
on ints or broadcasting index arrays.  Labels are ints, strings, or
(nested) tuples, so they round-trip through JSON as nested arrays.

A named family's formula runs its field's array arithmetic (``_add_ix``,
``_mul_ix``), a ``FunctionTable.to_family`` family indexes the table's array,
and a label-level ``fn`` is wrapped into a formula that calls it once
per entry.  ``to_table`` checks the budget, then runs the formula once
on the whole index grid and keeps the table; ``evaluate`` runs it on one
index pair, so it works above the budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    DomainError,
    NotPrime,
    UnsupportedParameters,
    UnsupportedSize,
)
from .fields import Field, field_for_order, field_new, is_prime

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
    if isinstance(obj, dict):
        raise DomainError(f"a label is a number, a string or an array, not {json.dumps(obj)}")
    return obj


def json_fields(text: str, *keys) -> list:
    """The arrays under keys in a JSON object document; DomainError for any other shape."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise DomainError(f"expected a JSON object, got a {type(obj).__name__}")
    missing = [k for k in keys if not isinstance(obj.get(k), list)]
    if missing:
        raise DomainError(f"JSON object lacks the arrays {', '.join(missing)}")
    return [obj[k] for k in keys]


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
    """f: X x S -> A through its one index formula ``_index_fn`` (module docstring)."""

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
        self.x_index = {x: i for i, x in enumerate(self.x_labels)}
        self.s_index = {s: i for i, s in enumerate(self.s_labels)}
        self.a_index = {a: i for i, a in enumerate(self.a_labels)}
        self._index_fn = None if fn is None else _entrywise(
            fn, self.x_labels, self.s_labels, self.a_index, name)
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
        return self.a_labels[int(self._index_fn(self.x_index[x], self.s_index[s]))]

    def to_table(self, budget: int = DEFAULT_TABLE_BUDGET) -> "FunctionTable":
        """The formula run once on the index grid and kept; every call checks budget."""
        if self.x_size * self.s_size > budget:
            raise BudgetExceeded(
                f"{self.x_size} x {self.s_size} table exceeds budget {budget}"
            )
        if self._table is None:
            array = np.empty((self.x_size, self.s_size), dtype=np.int64)
            array[...] = self._index_fn(*np.indices(array.shape, sparse=True))
            self._table = FunctionTable(self.x_labels, self.s_labels, self.a_labels, array)
        return self._table

    def transpose(self) -> "HashFamily":
        """Swap point and seed roles (the dual function)."""
        return _formula_family(
            f"transpose({self.name})", self.s_labels, self.x_labels, self.a_labels,
            lambda xi, si: self._index_fn(si, xi), a_group=self.a_group,
        )


def _entrywise(fn, x_labels, s_labels, a_index, name):
    """The label function fn as an index formula, called once per entry."""
    def one(i, j):
        a = fn(x_labels[i], s_labels[j])
        if a not in a_index:
            raise DomainError(f"{name} produced {a!r} outside its value set")
        return a_index[a]

    each = np.frompyfunc(one, 2, 1)
    return lambda xi, si: np.asarray(each(xi, si), dtype=np.int64)


def _formula_family(name, x_labels, s_labels, a_labels, index_fn, **groups):
    """Family with value index index_fn(x index, s index) on ints or broadcasting arrays."""
    f = HashFamily(name, x_labels, s_labels, a_labels, None, **groups)
    f._index_fn = index_fn
    return f


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
        shape = len(self.x_labels), len(self.s_labels)
        try:
            array = np.array(entries)
        except ValueError:  # rows of different lengths
            raise DomainError("table shape does not match domains") from None
        if array.shape == (0,) and shape[0] == 0:  # no rows, so no row length to read
            array = np.empty(shape, dtype=np.int64)
        if array.shape != shape:
            raise DomainError("table shape does not match domains")
        if array.size and array.dtype.kind not in "iu":
            raise DomainError("table entries must be integers")
        array = array.astype(np.int64, copy=False)
        if array.size and not 0 <= array.min() <= array.max() < len(self.a_labels):
            raise DomainError("table entry out of range")
        array.flags.writeable = False
        object.__setattr__(self, "_array", array)  # read-only int64 rows, not a field
        object.__setattr__(self, "entries", tuple(map(tuple, array.tolist())))

    def to_family(self, name="table") -> HashFamily:
        """A formula over this table's array, with this table memoised."""
        array = self._array
        f = _formula_family(name, self.x_labels, self.s_labels, self.a_labels,
                            lambda xi, si: array[xi, si])
        f._table = self
        return f

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
        xs, ss, as_, rows = json_fields(text, "x_labels", "s_labels", "a_labels", "rows")
        return cls([decode_label(x) for x in xs], [decode_label(s) for s in ss],
                   [decode_label(a) for a in as_], rows)


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


def _digits(index, q: int, t: int):
    """The t components (first one most significant) of vector indices over F_q."""
    return [index // q ** (t - 1 - i) % q for i in range(t)]


def _dot(field: Field, u, v):
    """Index of sum_i u_i v_i in the field, over element indices or index arrays."""
    acc = field.zero
    for a, b in zip(u, v):
        acc = field._add_ix(acc, field._mul_ix(a, b))
    return acc


def affine(q: int, t: int) -> HashFamily:
    """f(x; h, beta) = sum_i h_i x_i + beta on X = F_q^t."""
    field = field_for_order(q)
    hs = normalized_vectors(field, t)
    x_labels = _all_vectors(field, t)
    s_labels = [(h, b) for h in hs for b in field.elements()]
    h_columns = np.array(hs, dtype=np.int64).reshape(len(hs), t).T

    def index_fn(xi, si):
        acc = _dot(field, h_columns[:, si // q], _digits(xi, q, t))
        return field._add_ix(acc, si % q)

    return _formula_family(
        f"affine({q},{t})", x_labels, s_labels, field.elements(), index_fn,
        x_group=vector_group(field, t), a_group=field_group(field),
    )


def dual_affine(q: int, t: int) -> HashFamily:
    """The affine family with point and seed roles swapped."""
    base = affine(q, t)
    return _formula_family(
        f"dual_affine({q},{t})", base.s_labels, base.x_labels, base.a_labels,
        lambda xi, si: base._index_fn(si, xi), a_group=base.a_group,
    )


def transversal(q: int, h_subset=None, include_infinity: bool = False) -> HashFamily:
    """f(h, y; s1, s2) = s2 - h*s1 + y, optionally with the infinity rows s1 + y."""
    field = field_for_order(q)
    h_subset = list(field.elements() if h_subset is None else h_subset)
    if len(set(h_subset)) != len(h_subset) or any(not 0 <= h < q for h in h_subset):
        raise UnsupportedParameters("H must be a duplicate-free subset of F_q")
    x_labels = [(h, y) for h in h_subset for y in field.elements()]
    if include_infinity:
        x_labels += [(INFINITY, y) for y in field.elements()]
    s_labels = [(s1, s2) for s1 in field.elements() for s2 in field.elements()]
    # coefficients of (s1, s2) in point row r: (-h, 1) for h = h_subset[r], (1, 0) at infinity
    c1 = np.array([field.neg(h) for h in h_subset] + [field.one], dtype=np.int64)
    c2 = np.array([field.one] * len(h_subset) + [field.zero], dtype=np.int64)

    def index_fn(xi, si):
        r, y = xi // q, xi % q
        return field._add_ix(_dot(field, (c1[r], c2[r]), (si // q, si % q)), y)

    return _formula_family(
        f"transversal({q})", x_labels, s_labels, field.elements(), index_fn,
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

    def index_fn(xi, si):
        h, x = _digits(si, q, m + n - 1), _digits(xi, q, n)
        value = 0
        for i in range(m):  # row i reads h[i + n - 1], ..., h[i] against x[0], ..., x[n-1]
            value = value * q + _dot(field, h[i:i + n][::-1], x)
        return value

    return _formula_family(
        f"toeplitz({q},{m},{n})", x_labels, s_labels, a_labels, index_fn,
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
    first, shift = int(exclude_zero), q ** (n - m)  # seed index -> h; the first m digits
    name = f"field_multiply({q},{n},{m}{',*' if exclude_zero else ''})"
    return _formula_family(
        name, x_labels, s_labels, _all_vectors(base, m),
        lambda xi, si: big._mul_ix(si + first, xi) // shift,
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
    except (TypeError, UnsupportedSize, NotPrime) as exc:
        raise UnsupportedParameters(str(exc)) from exc
