"""Hash families f: X x S -> A and the named closed-form constructions.

A family carries ordered, duplicate-free label sets for its three
domains plus one index formula, value index = formula(x index, s index),
on ints or broadcasting index arrays.  Labels are ints, strings, or
(nested) tuples, which ``json.dumps`` writes as nested arrays and
``decode_label`` reads back.  A named builder raises BudgetExceeded before
it enumerates a label set of more than DEFAULT_TABLE_BUDGET labels.

A named family's formula runs its field's array arithmetic (``_add_ix``,
``_mul_ix``), a ``FunctionTable.to_family`` family indexes the table's array,
and a label-level ``fn`` is wrapped into a formula that calls it once
per entry.  ``to_table`` checks the budget, then runs the formula once
on the whole index grid and keeps the table; ``evaluate`` runs it on one
index pair, so it works above the budget.

A finite operation is represented the same way: a ``Quasigroup`` (latin
square) is its carrier labels plus one index formula, and a ``Group`` is a
quasigroup with an identity.  A carrier is checked as it is indexed; user rows
are read against that index, and ``field_group``, ``vector_group`` and
``cyclic_group`` pass a formula over the field's arrays or (i + j) % n.
``_on_carrier`` maps a family's value or point order onto a carrier, which is
how ``construct`` and ``verify`` read an operation.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .errors import (
    BudgetExceeded,
    CarrierMismatch,
    DomainError,
    NotLatinSquare,
    NotPrime,
    UnsupportedParameters,
    UnsupportedSize,
)
from .fields import Field, field_for_order, field_new, is_prime

DEFAULT_TABLE_BUDGET = 10**7

#: label of the extra point row of the infinity-extended transversal family
INFINITY = "inf"


def decode_label(obj):
    if isinstance(obj, list):
        return tuple(decode_label(x) for x in obj)
    if isinstance(obj, dict):
        raise DomainError(f"a label is a number, a string or an array, not {json.dumps(obj)}")
    return obj


def _label_index(labels, error, message, domain) -> dict:
    """{label: position} of labels; error(message) if two labels are equal as dict
    keys, so 1, 1.0 and True repeat one another although JSON tells them apart."""
    try:
        index = {a: i for i, a in enumerate(labels)}
    except TypeError as e:  # an unhashable label, a list say
        raise error(f"{domain} labels must be hashable: {e}") from None
    if len(index) != len(labels):
        raise error(message)
    return index


def json_fields(text: str, *keys) -> list:
    """The arrays under keys in a JSON object document; DomainError for any other shape."""
    return _object_fields(json.loads(text), *keys)


def _object_fields(obj, *keys) -> list:
    """``json_fields`` of a document already parsed."""
    if not isinstance(obj, dict):
        raise DomainError(f"expected a JSON object, got a {type(obj).__name__}")
    missing = [k for k in keys if not isinstance(obj.get(k), list)]
    if missing:
        raise DomainError(f"JSON object lacks the arrays {', '.join(missing)}")
    return [obj[k] for k in keys]


class Quasigroup:
    """Latin square on a carrier: its labels and one index formula.

    ``_op(i, j)`` is the index of labels[i] o labels[j], on ints or
    broadcasting index arrays.  ``mul`` and ``div`` are label views of it.
    """

    def __init__(self, labels, rows):
        self._set(labels)
        index, n = self._index, self.order
        rows = [tuple(row) for row in rows]
        if any(len(row) != n or not all(a in index for a in row) for row in rows):
            raise NotLatinSquare("rows must be permutations of the carrier")
        if len(rows) != n:
            raise NotLatinSquare("need one row per carrier element")
        table = np.array([[index[a] for a in row] for row in rows], dtype=np.int64).reshape(n, n)
        every = np.arange(n)
        if not (np.sort(table, axis=1) == every).all():
            raise NotLatinSquare("a row repeats an entry")
        if not (np.sort(table, axis=0) == every[:, None]).all():
            raise NotLatinSquare("a column repeats an entry")
        self._op = lambda i, j: table[i, j]

    def _set(self, labels):
        self.labels = tuple(labels)
        self._index = _label_index(
            self.labels, NotLatinSquare, "carrier labels must be distinct", "carrier")

    @property
    def order(self):
        return len(self.labels)

    def _table(self):
        every = np.arange(self.order)
        return self._op(every[:, None], every)

    def _ix(self, a):
        try:
            return self._index[a]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise DomainError(f"{a!r} is not in the carrier") from None

    def mul(self, a, b):
        return self.labels[int(self._op(self._ix(a), self._ix(b)))]

    def div(self, a, b):
        """The unique g with g o b = a."""
        column = self._op(np.arange(self.order), self._ix(b))
        return self.labels[int(np.flatnonzero(column == self._ix(a))[0])]

    def to_json(self) -> str:
        rows = [[self.labels[e] for e in row] for row in self._table().tolist()]
        return json.dumps({"labels": self.labels, "rows": rows})

    @classmethod
    def from_json(cls, text: str) -> "Quasigroup":
        labels, rows = json_fields(text, "labels", "rows")
        if not all(isinstance(r, list) for r in rows):
            raise NotLatinSquare("rows must be arrays of carrier labels")
        return cls([decode_label(a) for a in labels], [[decode_label(a) for a in r] for r in rows])


class Group(Quasigroup):
    """Finite abelian group: a quasigroup with a two-sided identity ``zero``.

    The rows are checked to be a commutative latin square with identity
    zero (DomainError otherwise); associativity is the caller's to ensure.
    ``add`` and ``sub`` are ``mul`` and ``div`` under the group's names.
    """

    def __init__(self, labels, rows, zero):
        super().__init__(labels, rows)
        table, every, z = self._table(), np.arange(self.order), self._ix(zero)
        if not (np.array_equal(table[z], every) and np.array_equal(table[:, z], every)):
            raise DomainError(f"{zero!r} is not a two-sided identity")
        if not np.array_equal(table, table.T):
            raise DomainError("the group operation is not commutative")
        self.zero = zero

    @classmethod
    def _formula(cls, labels, op, zero):
        """The group with index formula op, known to be abelian with identity zero."""
        group = cls.__new__(cls)
        group._set(labels)
        group._op, group.zero = op, zero
        return group

    add = Quasigroup.mul
    sub = Quasigroup.div


def cyclic_group(labels) -> Group:
    """Z_n on the labels, in the given order."""
    labels = tuple(labels)
    n = len(labels)
    if n == 0:
        raise DomainError("a group needs a nonempty carrier")
    return Group._formula(labels, lambda i, j: (i + j) % n, labels[0])


def field_group(field: Field) -> Group:
    """Additive group of a field, on element indices."""
    return Group._formula(field.elements(), field._add_ix, field.zero)


def vector_group(field: Field, t: int) -> Group:
    """Additive group of F_q^t, on t-tuples of element indices."""
    q = field.q

    def add(i, j):  # one digit at a time, so index arrays take no t-fold copy
        out = 0
        for w in (q ** (t - 1 - k) for k in range(t)):
            out = out * q + field._add_ix(i // w % q, j // w % q)
        return out

    return Group._formula(_all_vectors(field, t), add, (field.zero,) * t)


def _on_carrier(labels, q: Quasigroup, what):
    """(to, back): q's carrier index of each of labels, and the index among
    labels of each carrier element; CarrierMismatch unless labels are q's
    carrier in some order."""
    if set(labels) != set(q.labels):
        raise CarrierMismatch(f"{what} does not match the carrier of its operation")
    to = np.array([q._index[a] for a in labels], dtype=np.int64)
    return to, np.argsort(to)


def _all_vectors(field: Field, t: int):
    return list(itertools.product(field.elements(), repeat=t))


def _within_budget(name, **sizes):
    """BudgetExceeded naming the first of sizes, label counts by domain, above
    DEFAULT_TABLE_BUDGET; called before any label set is enumerated."""
    for what, n in sizes.items():
        if n > DEFAULT_TABLE_BUDGET:
            raise BudgetExceeded(f"{n} {what} of {name} exceed budget {DEFAULT_TABLE_BUDGET}")


class HashFamily:
    """f: X x S -> A through its one index formula ``_index_fn`` (module docstring).

    ``automorphisms``: index arrays (pi on X, sigma on S, tau on A) with T[pi x,
    sigma s] = tau(T[x, s]), set by the named builders (and by ``transpose``)
    and checked on the table by ``verify`` before use (NotAnAutomorphism
    otherwise).
    """

    def __init__(self, name, x_labels, s_labels, a_labels, fn,
                 x_group: Group | None = None, a_group: Group | None = None):
        self.name = name
        self.x_labels = tuple(x_labels)
        self.s_labels = tuple(s_labels)
        self.a_labels = tuple(a_labels)
        if len(self.a_labels) < 1:
            raise DomainError("value set must be nonempty")
        self.x_index, self.s_index, self.a_index = (
            _label_index(labels, DomainError, f"duplicate labels in domain {d}", f"domain {d}")
            for labels, d in ((self.x_labels, "X"), (self.s_labels, "S"), (self.a_labels, "A")))
        self._index_fn = None if fn is None else _entrywise(
            fn, self.x_labels, self.s_labels, self.a_index, name)
        self.x_group = x_group
        self.a_group = a_group
        self.automorphisms = ()
        self._table = None
        self._pairs = self._seeds = None  # the memos of _count.pair_pass and seed_pass

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
        """Swap point and seed roles (the dual function), with each
        automorphism (pi, sigma, tau) of this family as (sigma, pi, tau)."""
        f = _formula_family(
            f"transpose({self.name})", self.s_labels, self.x_labels, self.a_labels,
            lambda xi, si: self._index_fn(si, xi), a_group=self.a_group,
        )
        f.automorphisms = tuple((sigma, pi, tau) for pi, sigma, tau in self.automorphisms)
        return f


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


class FunctionTable:
    """f as its labels and ``array[x, s]``, a read-only int64 copy of its value indices."""

    def __init__(self, x_labels, s_labels, a_labels, entries):
        self.x_labels = tuple(x_labels)
        self.s_labels = tuple(s_labels)
        self.a_labels = tuple(a_labels)
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
        self.array = array

    def __eq__(self, other):
        return (isinstance(other, FunctionTable) and np.array_equal(self.array, other.array)
                and (self.x_labels, self.s_labels, self.a_labels)
                == (other.x_labels, other.s_labels, other.a_labels))

    def to_family(self, name="table") -> HashFamily:
        """A formula over this table's array, with this table memoised."""
        array = self.array
        f = _formula_family(name, self.x_labels, self.s_labels, self.a_labels,
                            lambda xi, si: array[xi, si])
        f._table = self
        return f

    def to_json(self) -> str:
        return json.dumps({"x_labels": self.x_labels, "s_labels": self.s_labels,
                           "a_labels": self.a_labels, "rows": self.array.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "FunctionTable":
        xs, ss, as_, rows = json_fields(text, "x_labels", "s_labels", "a_labels", "rows")
        return cls([decode_label(x) for x in xs], [decode_label(s) for s in ss],
                   [decode_label(a) for a in as_], rows)


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


def normalized_vectors(field: Field, t: int):
    """Nonzero vectors of F_q^t whose first nonzero component is 1, in lex order:
    the more leading zeros (index 0, the least), the earlier."""
    return [(field.zero,) * i + (field.one,) + tail for i in reversed(range(t))
            for tail in itertools.product(field.elements(), repeat=t - 1 - i)]


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
    if t < 1:
        raise UnsupportedParameters("the affine dimension t must be positive")
    field = field_for_order(q)
    name = f"affine({q},{t})"
    _within_budget(name, points=q**t, seeds=(q**t - 1) // (q - 1) * q)
    hs = normalized_vectors(field, t)
    x_group = vector_group(field, t)
    s_labels = list(itertools.product(hs, field.elements()))
    h_columns = np.array(hs, dtype=np.int64).reshape(len(hs), t).T

    def index_fn(xi, si):
        acc = _dot(field, h_columns[:, si // q], _digits(xi, q, t))
        return field._add_ix(acc, si % q)

    f = _formula_family(
        name, x_group.labels, s_labels, field.elements(), index_fn,
        x_group=x_group, a_group=field_group(field),
    )
    xs, ss = np.arange(f.x_size), np.arange(f.s_size)
    x, h, b = _digits(xs, q, t), h_columns[:, ss // q], ss % q
    f.automorphisms = tuple(  # x -> x + w e_i with (h, b) -> (h, b - h_i w), one orbit
        (xs + (field._add_ix(x[i], w) - x[i]) * q ** (t - 1 - i),
         ss - b + field._add_ix(b, field._neg_array[field._mul_ix(h[i], w)]), np.arange(q))
        for i in range(t) for w in field._weights)
    return f


def dual_affine(q: int, t: int) -> HashFamily:
    """The affine family with point and seed roles swapped."""
    f = affine(q, t).transpose()
    f.name = f"dual_affine({q},{t})"
    return f


def transversal(q: int, h_subset=None, include_infinity: bool = False) -> HashFamily:
    """f(h, y; s1, s2) = s2 - h*s1 + y, optionally with the infinity rows s1 + y."""
    field = field_for_order(q)
    h_subset = list(field.elements() if h_subset is None else h_subset)
    if len(set(h_subset)) != len(h_subset) or any(not 0 <= h < q for h in h_subset):
        raise UnsupportedParameters("H must be a duplicate-free subset of F_q")
    h_name = "" if h_subset == list(field.elements()) else f",H=[{','.join(map(str, h_subset))}]"
    # H named in its given order, which orders the points
    name = f"transversal({q}{h_name}{',' + INFINITY if include_infinity else ''})"
    rows = h_subset + ([INFINITY] if include_infinity else [])
    _within_budget(name, points=len(rows) * q, seeds=q * q)
    x_labels = list(itertools.product(rows, field.elements()))
    s_labels = list(itertools.product(field.elements(), repeat=2))
    # coefficients of (s1, s2) in point row r: (-h, 1) for h = h_subset[r], (1, 0) at infinity
    c1 = np.array([field.neg(h) for h in h_subset] + [field.one], dtype=np.int64)
    c2 = np.array([field.one] * len(h_subset) + [field.zero], dtype=np.int64)

    def index_fn(xi, si):
        r, y = xi // q, xi % q
        return field._add_ix(_dot(field, (c1[r], c2[r]), (si // q, si % q)), y)

    f = _formula_family(name, x_labels, s_labels, field.elements(), index_fn,
                        a_group=field_group(field))
    xs, ss, values = np.arange(f.x_size), np.arange(q * q), np.arange(q)
    r, y, s1, s2 = xs // q, xs % q, ss // q, ss % q
    # (h, y) -> (h, y + w) on every row with a -> a + w: one orbit per row of H
    gens = [(r * q + field._add_ix(y, w), ss, field._add_ix(values, w)) for w in field._weights]
    if sorted(h_subset) == list(values):  # H = F_q: (h, y) -> (h + k, y), s2 -> s2 + k s1
        hs, row_of = np.array(h_subset), np.argsort(h_subset)  # the infinity rows stay
        gens += [(np.append(row_of[field._add_ix(hs, k)], len(hs))[r] * q + y,
                  s1 * q + field._add_ix(s2, field._mul_ix(k, s1)), values) for k in field._weights]
    f.automorphisms = tuple(gens)
    return f


def toeplitz(q: int, m: int, n: int) -> HashFamily:
    """g(x, h) = T_h x with T_h the m x n Toeplitz matrix determined by h.

    The seed h lists the m+n-1 entries t_{i-j}, indexed so that
    t_{ij} = h[i - j + n - 1].
    """
    if m < 1 or n < 1:
        raise UnsupportedParameters("Toeplitz dimensions must be positive")
    field = field_for_order(q)
    name = f"toeplitz({q},{m},{n})"
    _within_budget(name, points=q**n, seeds=q ** (m + n - 1), values=q**m)
    x_group, a_group = vector_group(field, n), vector_group(field, m)

    def index_fn(xi, si):
        x = _digits(xi, q, n)
        value = 0
        for i in range(m):  # row i reads h[i + n - 1 - j] = si // q**(m - 1 - i + j) % q
            row = (si // q ** (m - 1 - i + j) % q for j in range(n))  # against x[j], one at a time
            value = value * q + _dot(field, row, x)
        return value

    return _formula_family(name, x_group.labels, _all_vectors(field, m + n - 1), a_group.labels,
                           index_fn, x_group=x_group, a_group=a_group)


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
    f = _formula_family(
        name, x_labels, s_labels, _all_vectors(base, m),
        lambda xi, si: big._mul_ix(si + first, xi) // shift,
        x_group=field_group(big), a_group=vector_group(base, m),
    )
    c = big._exp_array[1]  # primitive: x -> cx with h -> h/c, orbits {0} and F*
    f.automorphisms = ((big._mul_ix(c, np.arange(f.x_size)),
                        big._mul_ix(big.inv(c), np.arange(f.s_size) + first) - first,
                        np.arange(f.a_size)),)
    return f


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


#: kind -> builder, read by ``build_named`` and by the CLI's ``family`` flags
NAMED = {
    "affine": affine,
    "dual_affine": dual_affine,
    "transversal": transversal,
    "toeplitz": toeplitz,
    "field_multiply": field_multiply,
}


def build_named(kind: str, **params) -> HashFamily:
    if kind not in NAMED:
        raise UnsupportedParameters(f"unknown family kind {kind!r}")
    try:
        return NAMED[kind](**params)
    except (TypeError, UnsupportedSize, NotPrime) as exc:
        raise UnsupportedParameters(str(exc)) from exc
