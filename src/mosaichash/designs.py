"""Incidence structures, mosaics, and design-theoretic structure checks."""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._count import gram_counts, held_counts, incidence, member_counts, present, sum_counts
from .errors import (
    BadLabeling,
    NotAMosaic,
    SearchBudgetExceeded,
)
from .families import (
    DEFAULT_TABLE_BUDGET,
    FunctionTable,
    HashFamily,
    _label_index,
    _object_fields,
    decode_label,
)
from .verify import _render, classify, seed_lower_bounds

DEFAULT_NODE_BUDGET = 10**6


class IncidenceStructure:
    """0/1 incidence matrix, a read-only int8 array; rows are points, columns are block
    indices.  Its counts record, incidence list and first path are kept from first read.
    A structure of a family's mosaic links to the family, whose passes it reads."""

    _path = ()  # (rows, cols, trace hashes) at each depth of the first path read so far
    _original = None  # the structure this one is the dual of: its records, swapped, are ours
    _family = None  # (f, T, a): member a of the mosaic of f's table T, or its sum if a is None
    _runs = None  # k if each run of k blocks is a parallel class: a sum's seed classes
    _shape = None  # a view's (v, b), known before its matrix is built
    _build = None  # a view's matrix on call (a dual's: None, its original's transposed)

    def __init__(self, matrix, points=None, block_indices=None):
        m = np.array(matrix)  # checked before the cast, which would wrap or fail on 300
        if m.ndim != 2 or not ((m == 0) | (m == 1)).all():
            raise ValueError("incidence matrix must be a 2-d 0/1 array")
        self.matrix = m = m.astype(np.int8, copy=False)
        m.flags.writeable = False
        self.points = tuple(points) if points is not None else tuple(range(m.shape[0]))
        self.block_indices = (
            tuple(block_indices) if block_indices is not None else tuple(range(m.shape[1]))
        )
        if len(self.points) != m.shape[0] or len(self.block_indices) != m.shape[1]:
            raise ValueError("label counts do not match matrix shape")

    @classmethod
    def _of(cls, matrix, points, block_indices) -> "IncidenceStructure":
        """The structure of an unshared int8 0/1 matrix, made read-only, without a copy or check."""
        matrix.flags.writeable = False
        d = cls.__new__(cls)
        d.matrix, d.points, d.block_indices = matrix, tuple(points), tuple(block_indices)
        return d

    @classmethod
    def _view(cls, shape, points, build, **attrs) -> "IncidenceStructure":
        """A view, attrs set: its ``matrix`` (and a sum's ``block_indices``) is built when read."""
        d = cls.__new__(cls)
        vars(d).update(attrs, _shape=shape, points=points, _build=build)
        return d

    def __reduce__(self):  # memos and links stay behind: a trace hash holds only in its process
        return type(self)._of, (self.matrix, self.points, self.block_indices)

    @functools.cached_property
    def matrix(self):  # a view's, read-only int8: __init__ and _of set any other's
        m = (self._original.matrix.T if self._build is None else self._build()).view(np.int8)
        m.flags.writeable = False
        return m

    block_indices = functools.cached_property(lambda self: tuple(itertools.product(*self._product)))

    @functools.cached_property
    def _counts(self):
        """Both Gram halves (``gram_counts``), or a dual's original's, swapped: either
        is counted once, whichever side is read first."""
        if self._original is not None:
            return self._original._counts[::-1]
        return gram_counts(self.matrix)

    def _record(self):
        """The record ``analyze_structure`` reads: ``held_counts`` when the family's
        passes hold it (a dual's: its original's, swapped), else ``_counts``.  A held
        record marks which counts occur, not how often, so it never becomes
        ``_counts``, whose histograms ``is_isomorphic`` compares."""
        if self._original is not None:
            return self._original._record()[::-1]
        held = None if self._family is None else held_counts(*self._family)
        return self._counts if held is None else held

    _incidence = functools.cached_property(lambda self: np.nonzero(self.matrix))

    def _step(self, depth):
        """(rows, cols, trace) at depth of the first path, refined on first read: the
        root refinement, then the first point of the first largest row cell individualised."""
        while len(self._path) <= depth:
            if self._path:
                rows, cols, _ = self._path[-1]
                rows = _individualise(rows, np.flatnonzero(rows == np.bincount(rows).argmax())[0])
            else:
                rows, cols = np.zeros(self.v, np.int64), np.zeros(self.b, np.int64)
            self._path += (_refine(self._incidence, rows, cols),)
        return self._path[depth]

    @property
    def v(self):
        return (self._shape or self.matrix.shape)[0]

    @property
    def b(self):
        return (self._shape or self.matrix.shape)[1]

    def dual(self) -> "IncidenceStructure":
        """The transpose, linked to this structure, whose records and matrix it reads
        swapped; this one holds no link back, so no cycle is made."""
        return IncidenceStructure._view((self.b, self.v), self.block_indices, None,
                                        block_indices=self.points, _original=self)

    def _doc(self) -> dict:
        return {"points": self.points, "block_indices": self.block_indices,
                "rows": self.matrix.tolist()}

    def to_json(self) -> str:
        return json.dumps(self._doc())

    @classmethod
    def from_json(cls, text: str) -> "IncidenceStructure":
        return cls._of_doc(json.loads(text))

    @classmethod
    def _of_doc(cls, doc) -> "IncidenceStructure":
        """The structure of a parsed ``to_json`` document; DomainError for any other shape."""
        rows, points, blocks = _object_fields(doc, "rows", "points", "block_indices")
        rows = rows or np.zeros((0, len(blocks)), dtype=np.int8)  # no rows: no row length to read
        return cls(rows, [decode_label(p) for p in points], [decode_label(s) for s in blocks])


class Mosaic:
    """Family of incidence structures whose matrices partition the all-ones matrix,
    held as one member-index table: ``_table[x, s]`` is the index in a_labels of
    the member holding (x, s), a read-only integer array.  Members, duals and
    sums are views of it, whose matrices are built on first read: a member's is a
    level set, a dual mosaic's members are its original's duals.  A family's mosaic keeps the
    family, and its members and sum read the family's passes while they hold
    their records (``IncidenceStructure._record``).
    """

    _original = None  # the mosaic this one is the dual of
    _family = None  # the family whose table this mosaic's is, from mosaic_from_function

    def __init__(self, members, a_labels=None):
        members = list(members)
        if not members:
            raise NotAMosaic("a mosaic needs at least one member")
        first = members[0]
        if any(d.matrix.shape != first.matrix.shape for d in members):
            raise NotAMosaic("members must share dimensions")
        if any((d.points, d.block_indices) != (first.points, first.block_indices)
               for d in members):
            raise NotAMosaic("members must share point and block labels")
        stack = np.stack([d.matrix for d in members])  # summed in a type that holds len(members)
        if not (stack.sum(axis=0, dtype=np.min_scalar_type(len(members))) == 1).all():
            raise NotAMosaic("member matrices do not sum to the all-ones matrix")
        a_labels = tuple(a_labels) if a_labels is not None else tuple(range(len(members)))
        if len(a_labels) != len(members):
            raise NotAMosaic("label count does not match member count")
        for labels, which in ((first.points, "point"), (first.block_indices, "block"),
                              (a_labels, "member")):
            _label_index(labels, NotAMosaic, f"repeated {which} labels", which)
        self.points, self.block_indices = first.points, first.block_indices
        self.a_labels, self._table = a_labels, stack.argmax(axis=0)
        self._table.flags.writeable = False

    @classmethod
    def _of(cls, points, block_indices, a_labels, table) -> "Mosaic":
        """The mosaic of a read-only member-index table, a partition by construction."""
        if not a_labels:
            raise NotAMosaic("a mosaic needs at least one member")
        m = cls.__new__(cls)
        m.points, m.block_indices = tuple(points), tuple(block_indices)
        m.a_labels, m._table = tuple(a_labels), table
        return m

    def __reduce__(self):  # the family and the members stay behind: a family may not pickle
        return type(self)._of, (self.points, self.block_indices, self.a_labels, self._table)

    @functools.cached_property
    def members(self):
        if self._original is not None:
            return [d.dual() for d in self._original.members]
        f = self._family
        return [IncidenceStructure._view(self._table.shape, self.points,
                                         functools.partial(np.equal, self._table, a),
                                         block_indices=self.block_indices,
                                         _family=None if f is None else (f, self._table, a))
                for a in range(len(self.a_labels))]

    def to_json(self) -> str:
        return json.dumps({"a_labels": self.a_labels,
                           "members": [d._doc() for d in self.members]})

    @classmethod
    def from_json(cls, text: str) -> "Mosaic":
        members, a_labels = _object_fields(json.loads(text), "members", "a_labels")
        members = [IncidenceStructure._of_doc(d) for d in members]
        return cls(members, [decode_label(a) for a in a_labels])


def mosaic_from_function(f: HashFamily, budget=DEFAULT_TABLE_BUDGET) -> Mosaic:
    m = Mosaic._of(f.x_labels, f.s_labels, f.a_labels, f.to_table(budget).array)
    m._family = f
    return m


def function_from_mosaic(m: Mosaic, name="mosaic") -> HashFamily:
    return FunctionTable(m.points, m.block_indices, m.a_labels, m._table).to_family(name)


def dual_mosaic(m: Mosaic) -> Mosaic:
    dual = Mosaic._of(m.block_indices, m.points, m.a_labels, m._table.T)
    dual._original = m
    return dual


def sum_mosaic(m: Mosaic) -> IncidenceStructure:
    """Block index set S x A; x incident with (s, a) iff x is in block s of member a,
    labels and matrix built on first read.  A seed's blocks, a run of |A|, partition
    the points: the sum carries these seed classes; a family's mosaic's sum links to the family."""
    na, f = len(m.a_labels), m._family
    return IncidenceStructure._view(
        (len(m.points), len(m.block_indices) * na), m.points,
        functools.partial(incidence, m._table, na, np.int8), _runs=na,
        _product=(m.block_indices, m.a_labels), _family=None if f is None else (f, m._table, None))


@dataclass
class DesignParams:
    v: int
    b: int
    k: int | None  # None where not constant, as are r and lam
    r: int | None
    lam: int | None
    is_bibd: bool
    intersection_numbers: tuple
    symmetric: bool
    quasi_symmetric: bool
    relations_ok: bool  # bk = vr and lambda(v-1) = r(k-1) where applicable
    affine_block_count: bool  # b = v + r - 1

    def to_dict(self):
        return _render(self, "lam", **{"lambda": self.lam},
                       intersection_numbers=sorted(self.intersection_numbers))


def _design_params(points, blocks) -> DesignParams:
    """DesignParams of the structure whose counts record is (points, blocks),
    read off which entries of its histograms are nonzero."""
    v, b = sum(points[0]), sum(blocks[0])
    row_sums, lams, col_sums, numbers = map(present, (*points, *blocks))
    k, r, lam = (vals[0] if len(vals) == 1 else None for vals in (col_sums, row_sums, lams))
    is_bibd = k is not None and lam is not None and lam >= 1 and k >= 1
    relations_ok = (k is None or r is None or b * k == v * r) and (
        not is_bibd or r is None or lam * (v - 1) == r * (k - 1))
    return DesignParams(
        v, b, k, r, lam, is_bibd, numbers, symmetric=is_bibd and len(numbers) == 1,
        quasi_symmetric=is_bibd and len(numbers) == 2, relations_ok=relations_ok,
        affine_block_count=r is not None and b == v + r - 1)


def analyze_structure(d: IncidenceStructure) -> DesignParams:
    """Detect BIBD / quasi-symmetric / symmetric structure by exhaustive counting:
    the pair counts m m^T and block intersections m^T m of d's counts record, or,
    for a member, dual member or sum of a family's mosaic, the record the family's
    passes already hold (``IncidenceStructure._record``)."""
    return _design_params(*d._record())


@dataclass
class Resolution:
    classes: tuple  # tuple of tuples of block-index positions


class NotResolvable:
    """Returned when an exhaustive search proves no resolution exists."""

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return f"NotResolvable({self.reason!r})"


def find_resolution(d: IncidenceStructure, node_budget=DEFAULT_NODE_BUDGET):
    """Backtracking partition of block indices into parallel classes.

    Returns the lexicographically first Resolution (each class opens with
    the first unused block and adds later blocks in index order) or
    NotResolvable after exhausting the search.  Every block before a class's
    opener is used while the class is open, so the next opener is the first
    unused block after it, and a count of used blocks says when all are.  The
    search keeps its own stack, so its depth is not bounded by Python's
    recursion limit.  Every partial class tried is a node; past node_budget
    nodes it raises SearchBudgetExceeded stating the nodes used and the budget.

    After the empty check, on the shape, comes the first leaf: runs of consecutive
    blocks that are parallel classes, a sum's seed classes as it carries them (its
    matrix is not built), else read off the matrix (``_first_leaf``).  The search would
    take the runs in order, one node per block, so they are returned without it;
    only if there are none are unequal row sums, then r = 0 or r not dividing b, answered.
    """
    v, b = d.v, d.b
    if v == 0 or b == 0:
        return NotResolvable("empty structure")
    class_size = d._runs or _first_leaf(d.matrix)
    if class_size:
        if b > node_budget:
            raise SearchBudgetExceeded(f"resolution search used {node_budget + 1} nodes, "
                                       f"over its node_budget of {node_budget}")
        return Resolution(tuple(zip(*(range(i, b, class_size) for i in range(class_size)))))
    m = d.matrix
    row_sums = m.sum(axis=1, dtype=np.int32)
    if not (row_sums == row_sums[0]).all():
        return NotResolvable("replication number is not constant")
    r = int(row_sums[0])
    if r == 0 or b % r != 0:
        return NotResolvable(f"block count {b} not divisible into {r} classes")
    class_size = b // r
    full = (1 << v) - 1
    # packing a contiguous copy is faster than packing the strided view m.T
    packed = np.packbits(np.ascontiguousarray(m.T), axis=1, bitorder="little")
    width, buf = packed.shape[1], packed.tobytes()
    masks = [int.from_bytes(buf[j:j + width], "little") for j in range(0, b * width, width)]

    nodes = n_used = 0
    used = [False] * b
    classes = []
    # one frame per node: [members, cover, next block to try, block opening the next class]
    stack = []

    def push(members, cover):
        nonlocal nodes, n_used
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"resolution search used {nodes} nodes, over its node_budget of {node_budget}"
            )
        used[members[-1]] = True
        n_used += 1
        stack.append([members, cover, members[-1] + 1, None])

    push((0,), masks[0])
    while stack:
        frame = stack[-1]
        members, cover, j, opened = frame
        if len(members) == class_size and cover == full and opened is None:
            classes.append(members)
            if n_used == b:
                return Resolution(tuple(classes))
            frame[3] = used.index(False, members[0] + 1)
            push((frame[3],), masks[frame[3]])
            continue
        if len(members) < class_size:
            while j < b and (used[j] or cover & masks[j]):
                j += 1
            if j < b:
                frame[2] = j + 1
                push(members + (j,), cover | masks[j])
                continue
        if opened is not None:
            classes.pop()
        used[members[-1]] = False
        n_used -= 1
        stack.pop()
    return NotResolvable("exhaustive search found no resolution")


def _first_leaf(m):
    """b/r if each run of b/r consecutive blocks of a nonempty m is a parallel class,
    r the incidences of row 0, else None: iff there are v*r incidences, the h-th of
    row x in run h."""
    v, b = m.shape
    r, at = np.count_nonzero(m[0]), np.flatnonzero(m.view(bool))  # at: x*b + j, each incidence
    if r and b % r == 0 and len(at) == v * r:
        class_size = b // r  # the h-th of row x in run h: 0 <= at - x*b - h*class_size < class_size
        start = np.arange(0, v * b, b)[:, None] + np.arange(0, b, class_size)
        if ((at.reshape(v, r) - start).view(np.uint64) < class_size).all():
            return class_size
    return None


def mosaic_from_resolution(d: IncidenceStructure, res: Resolution, class_indexing):
    """Build the mosaic whose member a collects, per class, the block labeled a.

    class_indexing[h][i] is the position in a_labels assigned to the i-th
    block of class h; each class must enumerate every member label once.
    Each incidence (x, j) of d sets table entry (x, class of j) to j's label.
    """
    _label_index(d.points, NotAMosaic, "repeated point labels", "point")
    n_classes = len(res.classes)
    if len(class_indexing) != n_classes:
        raise BadLabeling("one labeling per parallel class required")
    sizes = {len(c) for c in res.classes}
    if len(sizes) != 1:
        raise BadLabeling("parallel classes must have constant size")
    a_count = sizes.pop()
    blocks = [j for cls in res.classes for j in cls]
    if sorted(blocks) != list(range(d.b)):
        raise BadLabeling("the classes must use every block index exactly once")
    class_of = np.empty(d.b, dtype=np.int64)
    class_of[blocks] = np.repeat(np.arange(n_classes), a_count)
    xs, js = np.nonzero(d.matrix)
    cells = xs * n_classes + class_of[js]
    if not (np.bincount(cells, minlength=d.v * n_classes) == 1).all():
        raise BadLabeling("a parallel class does not cover every point once")
    for h, labeling in enumerate(class_indexing):
        if sorted(labeling) != list(range(a_count)):
            raise BadLabeling(f"class {h} labeling is not a bijection onto A")
    label_of = np.empty(d.b, dtype=np.int64)
    label_of[blocks] = np.array(class_indexing, dtype=np.int64).ravel()
    table = np.empty((d.v, n_classes), dtype=np.int64)
    table.flat[cells] = label_of[js]
    table.flags.writeable = False
    return Mosaic._of(d.points, range(n_classes), range(a_count), table)


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def _split(inc, own, other, k, trace):
    """Recolour one side by its colour and incidence counts per colour of the other.

    inc is the incidence list as two arrays, this side's items then the other
    side's; other's colours are below k.  New colours are the ranks of the
    distinct signatures, so they depend on the colourings alone, not on the
    order of rows and columns; the 64-bit ``hash`` of the distinct signatures and
    their counts goes on the trace.  Signatures are ranked as byte keys of big-
    endian unsigned ints as narrow as both sides' sizes allow, whose byte order is
    lexicographic.  Returns the new colours and their count.
    """
    mine, theirs = inc
    n = len(own)
    sig = np.empty((n, k + 1), dtype=np.min_scalar_type(max(n, len(other))).newbyteorder(">"))
    sig[:, 0] = own
    sig[:, 1:] = np.bincount(mine * k + other[theirs], minlength=n * k).reshape(n, k)
    keys = sig.view(np.dtype((np.void, sig.itemsize * (k + 1)))).ravel()
    uniq, new, counts = np.unique(keys, return_inverse=True, return_counts=True)
    trace.append(hash(uniq.tobytes() + counts.tobytes()))
    return new, len(uniq)


def _refine(inc, rows, cols, against=None):
    """Coarsest equitable refinement of a row and column colouring, and its trace.

    inc is the incidence list (rows, columns) of the matrix; each colouring
    uses every colour from 0 up to its largest.  Rows and columns are split
    in turn.  A split after the first two that adds no colour ends the
    refinement: its side is then equitable over the other side's colouring,
    which the split before made equitable over this side's unchanged one, so
    every further split would return its input.  Given against, the trace (a
    tuple of hashes, one per split) to match, it returns None as soon as its
    trace leaves against's prefix or ends at another length.
    """
    trace, sides, colours = [], (inc, inc[::-1]), [rows, cols]
    counts = [0, int(cols.max()) + 1]  # 0: the first row split never ends it
    for side in itertools.cycle((0, 1)):
        colours[side], n = _split(sides[side], colours[side], colours[1 - side],
                                  counts[1 - side], trace)
        if against is not None and (trace[-1],) != against[len(trace) - 1:len(trace)]:
            return None
        if n == counts[side]:
            break
        counts[side] = n
    return None if against is not None and len(trace) != len(against) else (*colours, tuple(trace))


def _individualise(rows, i):
    return np.where(np.arange(len(rows)) == i, rows.max() + 1, rows)


def is_isomorphic(a: IncidenceStructure, b: IncidenceStructure,
                  node_budget=DEFAULT_NODE_BUDGET) -> bool:
    """Exact test for row and column permutations taking a's matrix to b's.

    Cheap invariants first: the shape and the two counts records, the same for
    any isomorphic copy.  Then individualisation-refinement on the point-block
    incidence graph (McKay & Piperno 2014): A follows its first path, which
    individualises the first point of its first largest row cell, and B tries
    every point of the matching cell, each refinement compared with A's trace,
    one hash per split, as it is produced and cut at the first mismatch.
    (Largest, not smallest: on a plane the smallest cell keeps the search on one
    line, where most candidates fail only deep down; the largest reaches a frame
    first.)  B's first branch, chosen by the same rule, is its own first path,
    kept as A's is: n structures tested in pairs refine n paths and the branches
    off them.  Unequal hashes mean unequal traces.  At a leaf each row, and each
    class of equal columns, has its own colour; the answer is True only if sorting
    by colour makes the matrices equal.  Every node of B counts, read or refined;
    past node_budget nodes SearchBudgetExceeded states the nodes used and the budget.
    """
    if a.matrix.shape != b.matrix.shape or a._counts != b._counts:
        return False
    if a.matrix.size == 0:
        return True
    stack = [(0, None)]  # B's nodes: depth and (rows, cols, row to individualise), None on its path
    nodes = 0
    while stack:
        depth, parent = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"isomorphism search used {nodes} nodes, over its node_budget of {node_budget}"
            )
        ra, ca, trace_a = a._step(depth)
        if parent is None:
            rows, cols, trace = b._step(depth)
            if trace != trace_a:
                continue
        else:
            rows, cols, t = parent
            refined = _refine(b._incidence, _individualise(rows, t), cols, trace_a)
            if refined is None:
                continue
            rows, cols, _ = refined
        sizes = np.bincount(ra)
        if (sizes == 1).all():
            if (a.matrix[np.argsort(ra)][:, np.argsort(ca)]
                    == b.matrix[np.argsort(rows)][:, np.argsort(cols)]).all():
                return True
            continue
        cell = np.flatnonzero(rows == np.argmax(sizes))
        siblings = cell[1:] if parent is None else cell  # on B's path, cell[0] is its next node
        stack += [(depth + 1, (rows, cols, t)) for t in siblings[::-1]]
        if parent is None:
            stack.append((depth + 1, None))
    return False


# ---------------------------------------------------------------------------
# structure theorems
# ---------------------------------------------------------------------------


@dataclass
class TheoremReport:
    family: str
    implications: list = field(default_factory=list)  # (name, details)
    violations: list = field(default_factory=list)
    members: list | None = None  # the member DesignParams the checks read; None if none did

    @property
    def ok(self):
        return not self.violations

    def to_dict(self):
        return _render(self, "members", ok=self.ok)


def check_structure_theorems(f: HashFamily, budget=DEFAULT_TABLE_BUDGET) -> TheoremReport:
    """Cross-check every applicable bound-equality/structure implication.

    Every counts record comes finished from ``_count``: member a, the level
    set T == a of f's table, and its dual read ``member_counts``, and the
    members' DesignParams go on ``members``; the sum mosaic reads
    ``sum_counts``, asked first, as its seed scan serves the members too.  The
    sum is always resolvable: the seed classes {(s, a) : a in A} partition
    every point set, and they are the resolution ``find_resolution`` returns.
    """
    report = TheoremReport(f.name)
    rep = classify(f, budget)
    T = f.to_table(budget).array
    X, S, A = f.x_size, f.s_size, f.a_size
    variance = rep.regular and rep.equality.get("variance")

    def record(name, ok, details):
        report.implications.append({"name": name, "ok": ok, "details": details})
        if not ok:
            report.violations.append(name)

    sums = sum_counts(f, T) if rep.ou else None
    if rep.ocfu or variance:
        records = [member_counts(f, T, a) for a in range(A)]
        report.members = [_design_params(*c) for c in records]

    if rep.ocfu:
        lam = rep.eps_acfu * Fraction(S, A)
        expect = dict(v=X, k=X // A, lam=lam, b=S, r=S // A)
        ok = all(p.is_bibd and (p.v, p.k, Fraction(p.lam), p.b, p.r) == (X, X // A, lam, S, S // A)
                 for p in report.members)
        record("ocfu_members_are_bibds", ok, {k: str(v) for k, v in expect.items()})

    if variance:
        mu = rep.eps_acfu * Fraction(S, A)
        duals = (_design_params(blocks, points) for points, blocks in records)
        # mu = (k-1)(lambda-1)/(r-1) + 1 for intersection numbers {0, mu}
        ok = all(p.quasi_symmetric and set(p.intersection_numbers) == {0, mu} and (
            p.r is None or p.r <= 1 or Fraction((p.k - 1) * (p.lam - 1), p.r - 1) + 1 == mu)
            for p in duals)
        record("variance_equality_dual_quasi_symmetric", ok, {"mu": str(mu)})

    if rep.ou:
        p = _design_params(*sums)
        record("ou_sum_is_resolvable_bibd", p.is_bibd, {"sum_params": p.to_dict()})
        au_bounds = seed_lower_bounds(X, A, rep.eps_au)
        if au_bounds.lb_au is not None and Fraction(S) == au_bounds.lb_au:
            ok_aff = p.affine_block_count and p.quasi_symmetric
            record("ou_au_equality_sum_is_affine", ok_aff, p.to_dict())

    return report
