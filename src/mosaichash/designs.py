"""Incidence structures, mosaics, and design-theoretic structure checks."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    BadLabeling,
    NotAMosaic,
    SearchBudgetExceeded,
)
from .families import (
    DEFAULT_TABLE_BUDGET,
    FunctionTable,
    HashFamily,
    decode_label,
    encode_label,
    json_fields,
)
from .verify import classify, seed_lower_bounds

DEFAULT_NODE_BUDGET = 10**6


class IncidenceStructure:
    """0/1 incidence matrix; rows are points, columns are block indices."""

    def __init__(self, matrix, points=None, block_indices=None):
        m = np.array(matrix, dtype=np.int8)
        if m.ndim != 2 or not np.isin(m, (0, 1)).all():
            raise ValueError("incidence matrix must be a 2-d 0/1 array")
        self.matrix = m
        self.points = tuple(points) if points is not None else tuple(range(m.shape[0]))
        self.block_indices = (
            tuple(block_indices) if block_indices is not None else tuple(range(m.shape[1]))
        )
        if len(self.points) != m.shape[0] or len(self.block_indices) != m.shape[1]:
            raise ValueError("label counts do not match matrix shape")

    @property
    def v(self):
        return self.matrix.shape[0]

    @property
    def b(self):
        return self.matrix.shape[1]

    def dual(self) -> "IncidenceStructure":
        return IncidenceStructure(self.matrix.T, self.block_indices, self.points)

    def to_json(self) -> str:
        return json.dumps(
            {
                "points": [encode_label(p) for p in self.points],
                "block_indices": [encode_label(s) for s in self.block_indices],
                "rows": self.matrix.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "IncidenceStructure":
        rows, points, blocks = json_fields(text, "rows", "points", "block_indices")
        return cls(rows, [decode_label(p) for p in points], [decode_label(s) for s in blocks])


class Mosaic:
    """Family of incidence structures whose matrices partition the all-ones matrix."""

    def __init__(self, members, a_labels=None):
        members = list(members)
        if not members:
            raise NotAMosaic("a mosaic needs at least one member")
        shape = members[0].matrix.shape
        if any(d.matrix.shape != shape for d in members):
            raise NotAMosaic("members must share dimensions")
        total = sum(d.matrix.astype(np.int64) for d in members)
        if not (total == 1).all():
            raise NotAMosaic("member matrices do not sum to the all-ones matrix")
        self.members = members
        self.a_labels = (
            tuple(a_labels) if a_labels is not None else tuple(range(len(members)))
        )
        if len(self.a_labels) != len(members):
            raise NotAMosaic("label count does not match member count")

    @property
    def points(self):
        return self.members[0].points

    @property
    def block_indices(self):
        return self.members[0].block_indices

    def to_json(self) -> str:
        return json.dumps(
            {
                "a_labels": [encode_label(a) for a in self.a_labels],
                "members": [json.loads(d.to_json()) for d in self.members],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Mosaic":
        members, a_labels = json_fields(text, "members", "a_labels")
        members = [IncidenceStructure.from_json(json.dumps(d)) for d in members]
        return cls(members, [decode_label(a) for a in a_labels])


def mosaic_from_function(f: HashFamily, budget=DEFAULT_TABLE_BUDGET) -> Mosaic:
    T = f.to_table(budget)._array
    members = [
        IncidenceStructure((T == k).astype(np.int8), f.x_labels, f.s_labels)
        for k in range(f.a_size)
    ]
    return Mosaic(members, f.a_labels)


def function_from_mosaic(m: Mosaic, name="mosaic") -> HashFamily:
    stack = np.stack([d.matrix for d in m.members])
    table = FunctionTable(m.points, m.block_indices, m.a_labels, stack.argmax(axis=0))
    return table.to_family(name)


def dual_mosaic(m: Mosaic) -> Mosaic:
    return Mosaic([d.dual() for d in m.members], m.a_labels)


def sum_mosaic(m: Mosaic) -> IncidenceStructure:
    """Block index set S x A; x incident with (s, a) iff x is in block s of member a."""
    cols = []
    labels = []
    for si, s in enumerate(m.block_indices):
        for ai, a in enumerate(m.a_labels):
            cols.append(m.members[ai].matrix[:, si])
            labels.append((s, a))
    return IncidenceStructure(np.stack(cols, axis=1), m.points, labels)


@dataclass
class DesignParams:
    v: int
    b: int
    constant_k: bool
    k: int | None
    constant_r: bool
    r: int | None
    constant_lambda: bool
    lam: int | None
    is_bibd: bool
    intersection_numbers: tuple
    symmetric: bool
    quasi_symmetric: bool
    relations_ok: bool  # bk = vr and lambda(v-1) = r(k-1) where applicable
    affine_block_count: bool  # b = v + r - 1

    def to_dict(self):
        return {
            "v": self.v, "b": self.b,
            "k": self.k if self.constant_k else None,
            "r": self.r if self.constant_r else None,
            "lambda": self.lam if self.constant_lambda else None,
            "is_bibd": self.is_bibd,
            "intersection_numbers": sorted(self.intersection_numbers),
            "symmetric": self.symmetric,
            "quasi_symmetric": self.quasi_symmetric,
            "relations_ok": self.relations_ok,
            "affine_block_count": self.affine_block_count,
        }


def _off_diagonal_values(g):
    """Sorted distinct off-diagonal entries of a square float64 count matrix."""
    g = g.astype(np.int64)
    counts = np.bincount(g.ravel(), minlength=1)
    counts -= np.bincount(np.diagonal(g), minlength=len(counts))
    return tuple(np.flatnonzero(counts).tolist())


def analyze_structure(d: IncidenceStructure) -> DesignParams:
    """Detect BIBD / quasi-symmetric / symmetric structure by exhaustive counting.

    The pair counts m m^T and block intersections m^T m are float64 BLAS
    products, exact because every count is at most max(v, b) < 2^53.
    """
    m = d.matrix.astype(np.float64)
    v, b = m.shape
    col_sums = d.matrix.sum(axis=0)
    row_sums = d.matrix.sum(axis=1)
    constant_k = bool((col_sums == col_sums[0]).all()) if b else False
    constant_r = bool((row_sums == row_sums[0]).all()) if v else False
    k = int(col_sums[0]) if constant_k else None
    r = int(row_sums[0]) if constant_r else None

    lams = _off_diagonal_values(m @ m.T)  # (x, x') -> number of common blocks
    constant_lambda = len(lams) == 1
    lam = lams[0] if constant_lambda else None
    numbers = _off_diagonal_values(m.T @ m)  # (s, s') -> block intersection sizes

    is_bibd = constant_k and constant_lambda and k is not None and lam is not None \
        and lam >= 1 and k >= 1
    symmetric = is_bibd and len(numbers) == 1
    quasi_symmetric = is_bibd and len(numbers) == 2

    relations_ok = True
    if constant_k and constant_r:
        relations_ok = relations_ok and b * k == v * r
    if is_bibd and constant_r:
        relations_ok = relations_ok and lam * (v - 1) == r * (k - 1)
    affine_block_count = constant_r and b == v + r - 1

    return DesignParams(
        v, b, constant_k, k, constant_r, r, constant_lambda, lam,
        is_bibd, numbers, symmetric, quasi_symmetric, relations_ok,
        affine_block_count,
    )


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
    NotResolvable after exhausting the search.  The search keeps its own
    stack, so its depth is not bounded by Python's recursion limit.  Every
    partial class tried is a node; past node_budget nodes it raises
    SearchBudgetExceeded stating the nodes used and the budget.
    """
    m = d.matrix
    v, b = m.shape
    row_sums = m.sum(axis=1)
    if v == 0 or b == 0:
        return NotResolvable("empty structure")
    if not (row_sums == row_sums[0]).all():
        return NotResolvable("replication number is not constant")
    r = int(row_sums[0])
    if r == 0 or b % r != 0:
        return NotResolvable(f"block count {b} not divisible into {r} classes")
    class_size = b // r
    full = (1 << v) - 1
    packed = np.packbits(m.T, axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in packed]

    nodes = 0
    used = [False] * b
    classes = []
    # one frame per node: [members, cover, next block to try, block opening the next class]
    stack = []

    def push(members, cover):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"resolution search used {nodes} nodes, over its node_budget of {node_budget}"
            )
        used[members[-1]] = True
        stack.append([members, cover, members[-1] + 1, None])

    push((0,), masks[0])
    while stack:
        frame = stack[-1]
        members, cover, j, opened = frame
        if len(members) == class_size and cover == full and opened is None:
            classes.append(members)
            if all(used):
                return Resolution(tuple(classes))
            frame[3] = used.index(False)
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
        stack.pop()
    return NotResolvable("exhaustive search found no resolution")


def mosaic_from_resolution(d: IncidenceStructure, res: Resolution, class_indexing):
    """Build the mosaic whose member a collects, per class, the block labeled a.

    class_indexing[h][i] is the position in a_labels assigned to the i-th
    block of class h; each class must enumerate every member label once.
    """
    n_classes = len(res.classes)
    if len(class_indexing) != n_classes:
        raise BadLabeling("one labeling per parallel class required")
    sizes = {len(c) for c in res.classes}
    if len(sizes) != 1:
        raise BadLabeling("parallel classes must have constant size")
    a_count = sizes.pop()
    # validate the resolution against d
    m = d.matrix
    seen = set()
    for cls in res.classes:
        cover = np.zeros(d.v, dtype=np.int64)
        for j in cls:
            if j in seen:
                raise BadLabeling("block index reused across classes")
            seen.add(j)
            cover += m[:, j]
        if not (cover == 1).all():
            raise BadLabeling("a parallel class does not cover every point once")
    if len(seen) != d.b:
        raise BadLabeling("resolution does not use every block index")

    members = [np.zeros((d.v, n_classes), dtype=np.int8) for _ in range(a_count)]
    for h, (cls, labeling) in enumerate(zip(res.classes, class_indexing)):
        if sorted(labeling) != list(range(a_count)):
            raise BadLabeling(f"class {h} labeling is not a bijection onto A")
        for j, a in zip(cls, labeling):
            members[a][:, h] = m[:, j]
    structures = [
        IncidenceStructure(mm, d.points, tuple(range(n_classes))) for mm in members
    ]
    return Mosaic(structures, tuple(range(a_count)))


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def _split(m, own, other, trace):
    """Recolour the rows of m by their colour and incidence counts per column colour.

    New colours are the ranks of the distinct signatures, so they depend on
    the colourings alone, not on the order of rows and columns; the distinct
    signatures and their counts go on the trace.
    """
    sig = np.column_stack([own, m @ np.eye(other.max() + 1)[other]]).astype(np.int64)
    uniq, new, counts = np.unique(sig, axis=0, return_inverse=True, return_counts=True)
    trace += [uniq.tobytes(), counts.tobytes()]
    return new.ravel()


def _refine(m, rows, cols):
    """Coarsest equitable refinement of a row and column colouring of m, and its trace."""
    trace = []
    while True:
        sizes = rows.max() + 1, cols.max() + 1
        rows = _split(m, rows, cols, trace)
        cols = _split(m.T, cols, rows, trace)
        if (rows.max() + 1, cols.max() + 1) == sizes:
            return rows, cols, trace


def _individualise(rows, i):
    rows = rows.copy()
    rows[i] = rows.max() + 1
    return rows


def is_isomorphic(a: IncidenceStructure, b: IncidenceStructure,
                  node_budget=DEFAULT_NODE_BUDGET) -> bool:
    """Exact test for row and column permutations taking a's matrix to b's.

    Cheap invariants first: the shape, the sorted row and column sums and
    the sorted entries of A A^T and A^T A.  Then individualisation-refinement
    on the point-block incidence graph (McKay & Piperno 2014): A follows one
    path that individualises the first point of its first largest row cell,
    and B tries every point of the matching cell, pruning on any mismatch of
    the refinement traces.  (Largest, not smallest: on a plane the smallest
    cell keeps the search on one line, where most candidates fail only deep
    down; the largest reaches a frame first.)  At a leaf every row has its
    own colour and the trace lists each column's incidences over them, so
    equal traces there mean equal column multisets: an isomorphism.  Every
    refinement of B is a node; past node_budget nodes it raises
    SearchBudgetExceeded stating the nodes used and the budget.
    """
    A, B = a.matrix.astype(np.float64), b.matrix.astype(np.float64)
    if A.shape != B.shape:
        return False
    for inv in (lambda m: m.sum(axis=0), lambda m: m.sum(axis=1),
                lambda m: m @ m.T, lambda m: m.T @ m):
        if not np.array_equal(np.sort(inv(A), axis=None), np.sort(inv(B), axis=None)):
            return False
    if A.size == 0:
        return True
    start = np.zeros(A.shape[0], dtype=np.int64), np.zeros(A.shape[1], dtype=np.int64)
    path = [_refine(A, *start)]  # A's colourings and trace at each depth
    stack = [(0, start)]  # B's nodes: depth and colouring before refinement
    nodes = 0
    while stack:
        depth, colouring = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"isomorphism search used {nodes} nodes, over its node_budget of {node_budget}"
            )
        rows, cols, trace = _refine(B, *colouring)
        ra, ca, trace_a = path[depth]
        if trace != trace_a:
            continue
        sizes = np.bincount(ra)
        if (sizes == 1).all():
            return True
        cell = np.argmax(sizes)
        if len(path) == depth + 1:
            path.append(_refine(A, _individualise(ra, np.flatnonzero(ra == cell)[0]), ca))
        for t in np.flatnonzero(rows == cell)[::-1]:
            stack.append((depth + 1, (_individualise(rows, t), cols)))
    return False


# ---------------------------------------------------------------------------
# structure theorems
# ---------------------------------------------------------------------------


@dataclass
class TheoremReport:
    family: str
    implications: list = field(default_factory=list)  # (name, details)
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def to_dict(self):
        return {
            "family": self.family,
            "implications": self.implications,
            "violations": self.violations,
            "ok": self.ok,
        }


def check_structure_theorems(f: HashFamily, budget=DEFAULT_TABLE_BUDGET) -> TheoremReport:
    """Cross-check every applicable bound-equality/structure implication."""
    report = TheoremReport(f.name)
    rep = classify(f, budget)
    mos = mosaic_from_function(f, budget)
    X, S, A = f.x_size, f.s_size, f.a_size

    def record(name, ok, details):
        report.implications.append({"name": name, "ok": ok, "details": details})
        if not ok:
            report.violations.append(name)

    if rep.ocfu:
        lam = rep.eps_acfu * Fraction(S, A)
        expect = dict(v=X, k=X // A, lam=lam, b=S, r=S // A)
        ok = True
        for d in mos.members:
            p = analyze_structure(d)
            if not (
                p.is_bibd
                and p.v == X
                and p.k == X // A
                and Fraction(p.lam) == lam
                and p.b == S
                and p.r == S // A
            ):
                ok = False
        record("ocfu_members_are_bibds", ok, {k: str(v) for k, v in expect.items()})

    if rep.regular and rep.equality.get("variance"):
        mu = rep.eps_acfu * Fraction(S, A)
        ok = True
        details = {"mu": str(mu)}
        for d in dual_mosaic(mos).members:
            p = analyze_structure(d)
            if not (p.quasi_symmetric and set(p.intersection_numbers) == {0, mu}):
                ok = False
            else:
                # mu = (k-1)(lambda-1)/(r-1) + 1 for intersection numbers {0, mu}
                if p.r is not None and p.r > 1:
                    mu_formula = Fraction((p.k - 1) * (p.lam - 1), p.r - 1) + 1
                    if mu_formula != mu:
                        ok = False
                if p.symmetric:
                    ok = False
        record("variance_equality_dual_quasi_symmetric", ok, details)

    if rep.ou:
        total = sum_mosaic(mos)
        p = analyze_structure(total)
        res = find_resolution(total)
        ok = p.is_bibd and isinstance(res, Resolution)
        record("ou_sum_is_resolvable_bibd", ok, {"sum_params": p.to_dict()})
        au_bounds = seed_lower_bounds(X, A, rep.eps_au)
        if au_bounds.lb_au is not None and Fraction(S) == au_bounds.lb_au:
            ok_aff = p.affine_block_count and p.quasi_symmetric
            record("ou_au_equality_sum_is_affine", ok_aff, p.to_dict())

    return report
