import json
import pickle
import random
import time
import tracemalloc

import numpy as np
import pytest

import mosaichash
from mosaichash import (
    FunctionTable,
    IncidenceStructure,
    Mosaic,
    NotResolvable,
    Resolution,
    affine,
    analyze_structure,
    check_structure_theorems,
    classify,
    dual_affine,
    dual_mosaic,
    field_multiply,
    find_resolution,
    function_from_mosaic,
    is_isomorphic,
    mosaic_from_function,
    mosaic_from_resolution,
    sum_mosaic,
    toeplitz,
    transversal,
)
from mosaichash import _count
from mosaichash._count import gram_counts, member_counts, pair_pass, seed_classes, sum_counts
from mosaichash.designs import DEFAULT_NODE_BUDGET, _design_params, _refine, _split
from mosaichash.errors import BadLabeling, DomainError, NotAMosaic, SearchBudgetExceeded
from mosaichash.families import decode_label
from oracles import (
    oracle_design_params,
    oracle_equitable_refinement,
    oracle_find_resolution,
    oracle_gram_counts,
    oracle_is_isomorphic,
    oracle_mosaic_from_resolution,
    oracle_theorem_report,
)
from util import KERNELS, force_kernel, planted_cyclic_table, random_regular_table, random_table

FANO = [
    [1, 1, 0, 1, 0, 0, 0],
    [0, 1, 1, 0, 1, 0, 0],
    [0, 0, 1, 1, 0, 1, 0],
    [0, 0, 0, 1, 1, 0, 1],
    [1, 0, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 0, 1, 1],
    [1, 0, 1, 0, 0, 0, 1],
]


def test_incidence_structure_validation():
    with pytest.raises(ValueError):
        IncidenceStructure([[0, 2], [1, 0]])
    with pytest.raises(ValueError):
        IncidenceStructure([[0, 1]], points=["a", "b"])
    with pytest.raises(ValueError):  # no int8 cast before the 0/1 check
        IncidenceStructure.from_json('{"rows": [[300]], "points": [0], "block_indices": [0]}')
    d = IncidenceStructure([[0, 1], [1, 0]], ["p", "q"], [0, 1])
    assert d.v == 2 and d.b == 2
    assert d.dual().points == (0, 1)


@pytest.mark.parametrize("matrix", [
    [[0, 2]], [[300]], [[-1, 0]], [[0.5]], [["a"]], [[0, "1"]], [[None]], [[{"a": 1}]],
    [1, 0], 1, [[[1]]], [],
], ids=repr)
def test_incidence_structure_rejects_entries_outside_0_1_and_non_2d_input(matrix):
    with pytest.raises(ValueError, match="incidence matrix must be a 2-d 0/1 array"):
        IncidenceStructure(matrix)


@pytest.mark.parametrize("matrix, want", [
    ([[0, 1], [1, 0]], [[0, 1], [1, 0]]), ([[True, False]], [[1, 0]]),
    ([[1.0, 0.0]], [[1, 0]]), (np.ones((2, 3), dtype=np.int64), [[1] * 3] * 2), ([[]], [[]]),
], ids=repr)
def test_incidence_structure_accepts_0_1_entries_of_any_numeric_type(matrix, want):
    d = IncidenceStructure(matrix)
    assert d.matrix.dtype == np.int8 and d.matrix.tolist() == want


@pytest.mark.parametrize("make", [list, lambda rows: np.array(rows, dtype=np.int8)],
                         ids=["list", "int8"])
def test_incidence_structure_keeps_its_own_int8_copy(make):
    given = make([[0, 1], [1, 0]])
    d = IncidenceStructure(given)
    given[0][0] = 1
    assert d.matrix.dtype == np.int8 and d.matrix.tolist() == [[0, 1], [1, 0]]
    assert not np.shares_memory(d.matrix, given)


def test_incidence_json_roundtrip():
    d = IncidenceStructure(FANO)
    d2 = IncidenceStructure.from_json(d.to_json())
    assert (d2.matrix == d.matrix).all()
    assert d2.points == d.points


@pytest.mark.parametrize("cls, text", [
    (IncidenceStructure, "[1]"),
    (IncidenceStructure, '{"rows": 5}'),
    (IncidenceStructure, '{"rows": [[1]], "points": [{"a": 1}], "block_indices": [0]}'),
    (Mosaic, "[1]"),
    (Mosaic, '{"rows": 5}'),
    (Mosaic, '{"members": [5], "a_labels": [0]}'),
])
def test_json_of_the_wrong_shape_raises_domain_error(cls, text):
    with pytest.raises(DomainError):
        cls.from_json(text)


def test_mosaic_validation():
    a = IncidenceStructure([[1, 0], [0, 1]])
    b = IncidenceStructure([[1, 1], [1, 0]])
    with pytest.raises(NotAMosaic):
        Mosaic([a, b])  # entry (0, 0) covered twice
    ok = Mosaic([a, IncidenceStructure([[0, 1], [1, 0]])])
    assert len(ok.members) == 2
    with pytest.raises(NotAMosaic):
        Mosaic([])
    # 257 members covering one entry sum to 1 in 8 bits
    with pytest.raises(NotAMosaic, match="do not sum"):
        Mosaic([IncidenceStructure([[1]])] * 257)
    eye = np.eye(300, dtype=np.int8)
    assert len(Mosaic([IncidenceStructure(eye[i:i + 1]) for i in range(300)]).members) == 300
    with pytest.raises(NotAMosaic, match="labels"):  # not member 0's labels kept silently
        Mosaic([IncidenceStructure([[1, 0]], ["x"], ["s", "t"]),
                IncidenceStructure([[0, 1]], ["y"], ["u", "v"])])
    with pytest.raises(NotAMosaic, match="labels"):
        Mosaic([IncidenceStructure([[1, 0]], ["x"], ["s", "t"]),
                IncidenceStructure([[0, 1]], ["x"], ["s", "u"])])
    for members, a_labels in (  # repeated labels, which function_from_mosaic would reject
            ([IncidenceStructure([[1, 0]]), IncidenceStructure([[0, 1]])], ["a", "a"]),
            ([IncidenceStructure([[1, 0]]), IncidenceStructure([[0, 1]])], [1, True]),
            ([IncidenceStructure([[1], [0]], ["x", "x"]),
              IncidenceStructure([[0], [1]], ["x", "x"])], None),
            ([IncidenceStructure([[1, 0]], None, ["s", "s"]),
              IncidenceStructure([[0, 1]], None, ["s", "s"])], None)):
        with pytest.raises(NotAMosaic, match="repeated"):
            Mosaic(members, a_labels)
        with pytest.raises(NotAMosaic, match="repeated"):
            Mosaic.from_json(json.dumps({"a_labels": a_labels or [0, 1],
                                         "members": [json.loads(d.to_json()) for d in members]}))
    with pytest.raises(NotAMosaic, match="at least one member"):  # classes of no blocks
        mosaic_from_resolution(IncidenceStructure(np.zeros((0, 0))), Resolution(((),)), [[]])


def test_mosaic_function_roundtrip():
    f = affine(2, 2)
    m = mosaic_from_function(f)
    assert m.a_labels == f.a_labels
    g = function_from_mosaic(m, "back")
    for x in f.x_labels:
        for s in f.s_labels:
            assert g.evaluate(x, s) == f.evaluate(x, s)
    m2 = Mosaic.from_json(m.to_json())
    assert all(
        (a.matrix == b.matrix).all() for a, b in zip(m.members, m2.members)
    )


def test_dual_mosaic_is_mosaic_of_transpose():
    f = affine(2, 2)
    m = dual_mosaic(mosaic_from_function(f))
    mt = mosaic_from_function(f.transpose())
    assert all(
        (a.matrix == b.matrix).all() for a, b in zip(m.members, mt.members)
    )


def test_sum_mosaic_column_order():
    m = mosaic_from_function(affine(2, 2))
    total = sum_mosaic(m)
    # block labels run seed-major, value-minor
    assert total.block_indices[:4] == (
        (m.block_indices[0], 0),
        (m.block_indices[0], 1),
        (m.block_indices[1], 0),
        (m.block_indices[1], 1),
    )
    assert total.b == len(m.block_indices) * len(m.a_labels)
    assert (total.matrix.sum(axis=1) == len(m.block_indices)).all()


def _sum_by_columns(m):
    """The sum mosaic's rows and labels, one (s, a) column at a time."""
    cols, labels = [], []
    for si, s in enumerate(m.block_indices):
        for ai, a in enumerate(m.a_labels):
            cols.append([row[si] for row in m.members[ai].matrix.tolist()])
            labels.append((s, a))
    return [list(row) for row in zip(*cols)], labels


@pytest.mark.parametrize("make", [
    lambda: mosaic_from_function(affine(3, 2)),
    lambda: mosaic_from_function(transversal(4, include_infinity=True)),
    lambda: dual_mosaic(mosaic_from_function(affine(2, 3))),
    lambda: mosaic_from_function(random_table(random.Random(6), 5, 7, 3)),
    lambda: Mosaic([IncidenceStructure([[1, 0]], ["x"], ["s", "t"]),
                    IncidenceStructure([[0, 1]], ["x"], ["s", "t"])], ["a", "b"]),
    lambda: mosaic_from_function(FunctionTable([], range(3), range(2), []).to_family()),
])
def test_sum_mosaic_matches_a_column_by_column_build(make):
    m = make()
    rows, labels = _sum_by_columns(m)
    total = sum_mosaic(m)
    assert total.matrix.shape == (len(m.points), len(m.block_indices) * len(m.a_labels))
    assert total.matrix.tolist() == rows
    assert total.block_indices == tuple(labels) and total.points == m.points
    assert total.matrix.dtype == np.int8 and total.matrix.flags.c_contiguous


def test_analyze_fano():
    p = analyze_structure(IncidenceStructure(FANO))
    assert p.is_bibd and p.v == 7 and p.b == 7
    assert p.k == 3 and p.r == 3 and p.lam == 1
    assert p.symmetric and not p.quasi_symmetric
    assert p.intersection_numbers == (1,)
    assert p.relations_ok


def test_analyze_affine_member():
    m = mosaic_from_function(affine(2, 2))
    for d in m.members:
        p = analyze_structure(d)
        assert p.is_bibd and (p.v, p.b, p.k, p.r, p.lam) == (4, 6, 2, 3, 1)
        assert p.quasi_symmetric and p.intersection_numbers == (0, 1)


def test_find_resolution_of_affine_sum():
    total = sum_mosaic(mosaic_from_function(affine(2, 2)))
    res = find_resolution(total)
    assert isinstance(res, Resolution)
    assert len(res.classes) == 6
    m = total.matrix
    for cls in res.classes:
        assert (sum(m[:, j] for j in cls) == 1).all()


def test_fano_not_resolvable():
    res = find_resolution(IncidenceStructure(FANO))
    assert isinstance(res, NotResolvable)
    assert "not divisible" in res.reason


def _sum(f):
    return sum_mosaic(mosaic_from_function(f))


def _on_one_more(m, fewer=None):
    """m's rows, one off the last block last, that one on the last block too (the
    last incidence of all, so only the count of incidences tells), and row
    fewer, if given, off its first block."""
    m = m[np.argsort(m[:, -1] == 0, kind="stable")]
    m[-1, -1] = 1
    if fewer is not None:
        m[fewer, np.flatnonzero(m[fewer])[0]] = 0
    return m


@pytest.mark.parametrize("matrix, reason", [
    (np.zeros((3, 0), dtype=np.int8), "empty structure"),
    ([[1, 1], [1, 0]], "replication number is not constant"),
    (_on_one_more(_sum(affine(2, 2)).matrix), "replication number is not constant"),
    (_on_one_more(_sum(affine(2, 2)).matrix, fewer=0), "replication number is not constant"),
    (np.vstack([np.zeros((1, 4), dtype=np.int8), _sum(affine(2, 2)).matrix[1:, :4]]),
     "replication number is not constant"),  # row 0 empty, the others not
    ([[1, 1, 0], [1, 1, 0]], "block count 3 not divisible into 2 classes"),  # runs of 1 fit
    ([[1, 1, 0], [1, 0, 1]], "block count 3 not divisible into 2 classes"),
    ([[0, 0], [0, 0]], "block count 2 not divisible into 0 classes"),
])
def test_find_resolution_answers_before_any_search(matrix, reason):
    """Structures that fail the first-leaf check by the count or the place of
    their incidences get the reasons of the checks after it, as the recursive
    search finds no resolution without a node."""
    d = IncidenceStructure(matrix)
    res = find_resolution(d, node_budget=0)
    assert isinstance(res, NotResolvable) and res.reason == reason
    assert d.matrix.size == 0 or oracle_find_resolution(d.matrix.tolist()) == (None, 0)


def test_resolution_budget():
    total = sum_mosaic(mosaic_from_function(affine(2, 3)))
    with pytest.raises(SearchBudgetExceeded):
        find_resolution(total, node_budget=3)


def test_mosaic_from_resolution_roundtrip():
    total = sum_mosaic(mosaic_from_function(affine(2, 2)))
    res = find_resolution(total)
    labeling = [list(range(len(c))) for c in res.classes]
    m = mosaic_from_resolution(total, res, labeling)
    assert len(m.members) == 2
    # members of a mosaic built from a resolution partition the point set per class
    for d in m.members:
        assert (d.matrix.sum(axis=1) <= len(res.classes)).all()


def test_mosaic_from_single_parallel_class():
    # one class whose blocks partition the points: members partition X
    d = IncidenceStructure([[1, 0], [1, 0], [0, 1], [0, 1]])
    res = find_resolution(d)
    assert isinstance(res, Resolution) and len(res.classes) == 1
    m = mosaic_from_resolution(d, res, [[0, 1]])
    stack = sum(dd.matrix for dd in m.members)
    assert (stack == 1).all()
    assert all(dd.matrix.shape == (4, 1) for dd in m.members)


def test_mosaic_from_resolution_bad_labeling():
    d = IncidenceStructure([[1, 0], [1, 0], [0, 1], [0, 1]])
    res = find_resolution(d)
    with pytest.raises(BadLabeling):
        mosaic_from_resolution(d, res, [[0, 0]])  # repeated value in one class
    with pytest.raises(BadLabeling):
        mosaic_from_resolution(d, res, [[0, 1], [1, 0]])  # wrong class count
    one = IncidenceStructure([[1, 1]])
    for classes in [((1,), (-1,)), ((1,), (5,)), ((0,), (0,)), ((0,),)]:
        with pytest.raises(BadLabeling, match="every block index exactly once"):
            mosaic_from_resolution(one, Resolution(classes), [[0]] * len(classes))
    for rows in [[[1, 1], [1, 0]], [[1, 0], [0, 0]]]:  # point 0 covered twice; point 1 never
        with pytest.raises(BadLabeling, match="cover every point once"):
            mosaic_from_resolution(IncidenceStructure(rows), Resolution(((0, 1),)), [[0, 1]])


@pytest.mark.parametrize("points, blocks, a_labels, which", [
    ([[0]], None, None, "point"), (None, [0, [1]], None, "block"), (None, None, [0, [1]], "member"),
], ids=["point", "block", "member"])
def test_mosaic_names_the_labels_that_are_unhashable(points, blocks, a_labels, which):
    members = [IncidenceStructure(m, points, blocks) for m in ([[1, 0]], [[0, 1]])]
    with pytest.raises(NotAMosaic, match=f"^{which} labels must be hashable: unhashable"):
        Mosaic(members, a_labels)


def test_mosaic_from_resolution_rejects_repeated_point_labels():
    d = IncidenceStructure([[1, 0], [0, 1]], ["x", "x"])
    with pytest.raises(NotAMosaic, match="repeated point labels"):
        mosaic_from_resolution(d, Resolution(((0, 1),)), [[0, 1]])


def test_is_isomorphic_permutation_invariance():
    rng = random.Random(5)
    a = IncidenceStructure(FANO)
    rows = list(range(7))
    cols = list(range(7))
    rng.shuffle(rows)
    rng.shuffle(cols)
    m = np.array(FANO)[rows][:, cols]
    assert is_isomorphic(a, IncidenceStructure(m))


def test_is_isomorphic_distinguishes():
    a = IncidenceStructure([[1, 0], [0, 1]])
    b = IncidenceStructure([[1, 1], [0, 0]])
    assert not is_isomorphic(a, b)
    c = IncidenceStructure([[1, 0, 0], [0, 1, 0]])
    assert not is_isomorphic(a, c)  # shape mismatch
    empty = np.zeros((0, 0), dtype=np.int8)
    assert is_isomorphic(IncidenceStructure(empty), IncidenceStructure(empty))  # nothing to tell


def test_structure_theorems_affine():
    rep = check_structure_theorems(affine(2, 2))
    names = {i["name"]: i["ok"] for i in rep.implications}
    assert names["ocfu_members_are_bibds"]
    assert rep.ok


def test_structure_theorems_dual_affine():
    rep = check_structure_theorems(dual_affine(2, 2))
    names = {i["name"]: i["ok"] for i in rep.implications}
    assert names["variance_equality_dual_quasi_symmetric"]
    assert rep.ok


def test_structure_theorems_field_multiply():
    rep = check_structure_theorems(field_multiply(2, 3, 1, exclude_zero=True))
    names = {i["name"]: i["ok"] for i in rep.implications}
    assert names["ou_sum_is_resolvable_bibd"]
    assert names["ou_au_equality_sum_is_affine"]
    assert rep.ok


def test_structure_theorems_silent_for_plain_tables():
    rng = random.Random(9)
    f = random_table(rng, 4, 5, 3)
    rep = check_structure_theorems(f)
    assert rep.implications == [] and rep.ok


def _permuted(rng, m):
    return m[rng.sample(range(m.shape[0]), m.shape[0])][:, rng.sample(range(m.shape[1]), m.shape[1])]


def _switched(rng, m):
    """m with one 2x2 switch: row and column sums stay, the constant pair count breaks."""
    v, b = m.shape
    while True:
        i, j = rng.sample(range(v), 2)
        s, t = rng.sample(range(b), 2)
        if (m[i, s], m[i, t], m[j, s], m[j, t]) == (1, 0, 0, 1):
            c = m.copy()
            c[i, s], c[i, t], c[j, s], c[j, t] = 0, 1, 1, 0
            pairs = (c.astype(np.int64) @ c.T)[~np.eye(v, dtype=bool)]
            if len(set(pairs.tolist())) > 1:
                return c


def _random_01(rng, v, b):
    return np.array([[rng.randrange(2) for _ in range(b)] for _ in range(v)], dtype=np.int8)


def test_is_isomorphic_matches_brute_force_oracle():
    rng = random.Random(11)
    answers_with_equal_sums = set()
    for n in range(240):
        v, b = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_01(rng, v, b)
        if n % 3 == 0:
            other = _random_01(rng, v, b)
        else:  # a permuted copy, every other one with a switch that keeps the sums
            other = _permuted(rng, a)
            switches = [(i, j, s, t) for i in range(v) for j in range(v)
                        for s in range(b) for t in range(b)
                        if (other[i, s], other[i, t], other[j, s], other[j, t]) == (1, 0, 0, 1)]
            if n % 3 == 2 and switches:
                i, j, s, t = rng.choice(switches)
                other[i, s], other[i, t], other[j, s], other[j, t] = 0, 1, 1, 0
        want = oracle_is_isomorphic(a.tolist(), other.tolist())
        for x, y in ((a, other), (other, a)):  # cold, then off the memoised records and paths
            first, second = IncidenceStructure(x), IncidenceStructure(y)
            assert is_isomorphic(first, second) == want
            assert is_isomorphic(first, second) == want
        if sorted(a.sum(0)) == sorted(other.sum(0)) and sorted(a.sum(1)) == sorted(other.sum(1)):
            answers_with_equal_sums.add(want)
    assert answers_with_equal_sums == {True, False}


AFFINE_MEMBERS = [(4, 2), (2, 4), (3, 3), (5, 2), (8, 2)]


@pytest.mark.parametrize("q,t", AFFINE_MEMBERS + [(16, 2)])
def test_is_isomorphic_recognises_permuted_affine_members(q, t):
    rng = random.Random(q * 10 + t)
    member = mosaic_from_function(affine(q, t)).members[rng.randrange(q)]
    for _ in range(3):
        copy = IncidenceStructure(_permuted(rng, member.matrix))
        start = time.perf_counter()
        assert is_isomorphic(member, copy)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("q,t", AFFINE_MEMBERS)
def test_is_isomorphic_rejects_switched_affine_members(q, t):
    rng = random.Random(q * 10 + t)
    member = mosaic_from_function(affine(q, t)).members[0]
    for _ in range(3):
        copy = _switched(rng, _permuted(rng, member.matrix))
        # the cheap invariants reject the copy before the search takes a node
        assert not is_isomorphic(member, IncidenceStructure(copy), node_budget=0)


def _cycles(*lengths):
    """Disjoint cycles, one per length n >= 3: row i of a cycle meets its columns i and i+1 mod n.
    Each row meets two columns and each column two rows, and two rows share
    one column exactly when they are next to each other on one cycle."""
    m = np.zeros((sum(lengths), sum(lengths)), dtype=np.int8)
    start = 0
    for n in lengths:
        rows = start + np.arange(n)
        m[rows, rows] = m[rows, start + (np.arange(n) + 1) % n] = 1
        start += n
    return m


@pytest.mark.parametrize("a, b, answer, nodes", [
    # equal counts records, not isomorphic: the first branch fails one level down
    ((8,), (4, 4), False, 9), ((4, 4), (8,), False, 9), ((6, 6), (4, 8), False, 13),
    ((3, 3, 6), (4, 4, 4), False, 13),
    # isomorphic, but B's first point lies on another cycle than A's, so its first branch fails
    ((3, 5), (5, 3), True, 10), ((5, 3), (3, 5), True, 8), ((3, 4, 5), (5, 4, 3), True, 21),
], ids=str)
def test_is_isomorphic_node_counts_and_budget_messages(a, b, answer, nodes):
    """Node counts and budget messages of the whole search: a node read off a
    memoised path counts as one refined afresh does."""
    first, second = IncidenceStructure(_cycles(*a)), IncidenceStructure(_cycles(*b))
    assert first._counts == second._counts
    for _ in range(2):  # cold, then warm
        with pytest.raises(SearchBudgetExceeded,
                           match=f"used {nodes} nodes, over its node_budget of {nodes - 1}$"):
            is_isomorphic(first, second, node_budget=nodes - 1)
    assert is_isomorphic(first, second, node_budget=nodes) is answer
    fresh = IncidenceStructure(_cycles(*a)), IncidenceStructure(_cycles(*b))
    assert is_isomorphic(*fresh, node_budget=nodes) is answer


def test_all_pairs_of_n_copies_refine_n_paths(monkeypatch):
    """Each structure refines its first path once: all pairs of n permuted copies
    make as many refinements as the n paths, not a number that grows with the
    n(n-1)/2 pairs."""
    rng = random.Random(17)
    member = mosaic_from_function(affine(3, 3)).members[1]
    copies = [IncidenceStructure(_permuted(rng, member.matrix)) for _ in range(8)]
    calls = []  # per refinement: whether it was compared with another trace

    def spy(inc, rows, cols, against=None):
        calls.append(against is not None)
        return _refine(inc, rows, cols, against)

    monkeypatch.setattr(mosaichash.designs, "_refine", spy)
    assert all(is_isomorphic(x, y) for i, x in enumerate(copies) for y in copies[i + 1:])
    assert {len(c._path) for c in copies} == {5}  # the root, then four individualised points
    assert len(calls) == 8 * 5
    assert not any(calls)  # no refinement against another trace: every first branch held


# equal counts records, but a row of the first meets columns of sizes 1, 1 and 3,
# and no row of the second does: the root refinements already differ
ROOT_APART = ([[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1],
               [1, 0, 1, 1, 0, 0], [0, 1, 1, 1, 1, 0], [1, 0, 0, 0, 0, 0]],
              [[0, 0, 0, 0, 0, 1], [0, 1, 0, 1, 1, 0], [1, 1, 1, 1, 0, 0],
               [0, 0, 0, 1, 0, 1], [1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]])


def test_a_path_is_refined_only_as_deep_as_a_search_reads_it():
    first, second = map(IncidenceStructure, ROOT_APART)
    assert first._counts == second._counts
    with pytest.raises(SearchBudgetExceeded, match="used 1 nodes, over its node_budget of 0$"):
        is_isomorphic(first, second, node_budget=0)
    assert is_isomorphic(first, second, node_budget=1) is False
    assert len(first._path) == len(second._path) == 1


def test_kept_path_holds_colourings_and_one_hash_per_split():
    """The transversal(16, inf) sum, 272 x 4096, keeps an int64 colour per point
    and per block at each of its 19 depths, and one 64-bit hash per split: 665 KB
    in all, less than its 1.1 MB matrix, where whole traces held 54 MB."""
    total = sum_mosaic(mosaic_from_function(transversal(16, include_infinity=True)))
    assert is_isomorphic(total, IncidenceStructure(_permuted(random.Random(2), total.matrix)))
    colourings = sum(rows.nbytes + cols.nbytes for rows, cols, _ in total._path)
    hashes = [h for *_, trace in total._path for h in trace]
    assert colourings == 19 * 8 * (272 + 4096)
    assert all(type(h) is int for h in hashes)
    assert colourings + 8 * len(hashes) < total.matrix.nbytes


def test_answers_stay_exact_when_every_trace_hash_collides(monkeypatch):
    """A hash stands for its trace only to cut branches: with every hash the
    same, the search cuts none, and a leaf's permutation alone decides."""
    monkeypatch.setattr(mosaichash.designs, "hash", lambda data: 0, raising=False)
    pairs = [ROOT_APART, (_cycles(8), _cycles(4, 4)), (_cycles(3, 5), _cycles(5, 3)),
             (FANO, _permuted(random.Random(5), np.array(FANO)))]
    for x, y in pairs:
        want = oracle_is_isomorphic(np.asarray(x).tolist(), np.asarray(y).tolist())
        assert is_isomorphic(IncidenceStructure(x), IncidenceStructure(y)) is want


@pytest.mark.parametrize("make", [
    lambda: IncidenceStructure(FANO),
    lambda: IncidenceStructure._of(np.array(FANO, dtype=np.int8), range(7), range(7)),
    lambda: mosaic_from_function(affine(2, 2)).members[0],
    lambda: sum_mosaic(mosaic_from_function(affine(2, 2))),
    lambda: IncidenceStructure(FANO).dual(),
    lambda: mosaic_from_function(affine(2, 2)).members[0].dual(),
], ids=["constructed", "_of", "member", "sum", "dual", "member dual"])
def test_incidence_matrix_is_read_only(make):
    d = make()
    with pytest.raises(ValueError, match="read-only"):
        d.matrix[0, 0] = 1 - d.matrix[0, 0]
    assert analyze_structure(d) == analyze_structure(IncidenceStructure(d.matrix))


def test_a_pickled_structure_leaves_its_memos_behind():
    """Python salts the hash of bytes per process, so trace hashes kept in one
    process must not reach another: a pickle carries the matrix and labels only,
    and the copy's matrix is read-only too; so does a dual member's, whose
    record came from its original."""
    mos = mosaic_from_function(affine(3, 2))
    analyze_structure(mos.members[0])
    for d in (mos.members[0], dual_mosaic(mos).members[0]):
        assert is_isomorphic(d, IncidenceStructure(d.matrix[::-1])) and d._path
        copy = pickle.loads(pickle.dumps(d))
        assert set(vars(copy)) == {"matrix", "points", "block_indices"}
        assert not copy.matrix.flags.writeable and np.array_equal(copy.matrix, d.matrix)
        assert (copy.points, copy.block_indices) == (d.points, d.block_indices)
        assert copy._counts == d._counts


def test_memoised_records_hold_only_tuples_arrays_bytes_and_ints():
    """No list or dict is kept, so a memo adds no containers the collector walks,
    a dual member's record, carried from its original, included."""
    mos = mosaic_from_function(affine(3, 2))
    analyze_structure(mos.members[0])

    def leaves(x):
        assert isinstance(x, (tuple, np.ndarray, bytes, int)), type(x)
        return sum(map(leaves, x)) if isinstance(x, tuple) else 1
    for d in (mos.members[0], dual_mosaic(mos).members[0]):
        assert is_isomorphic(d, IncidenceStructure(d.matrix[::-1]))
        assert all(leaves(memo) for memo in (d._counts, d._incidence, d._path))


def test_split_colours_and_trace_ignore_the_order_of_rows_and_columns():
    rng = np.random.default_rng(7)
    for _ in range(200):
        v, b = rng.integers(1, 10, size=2)
        m = (rng.random((v, b)) < rng.random()).astype(np.float64)
        own = rng.integers(0, rng.integers(1, v + 1), size=v)
        other = rng.integers(0, rng.integers(1, b + 1), size=b)
        p, q = rng.permutation(v), rng.permutation(b)
        k = other.max() + 1
        trace, permuted_trace = [], []
        new, count = _split(np.nonzero(m), own, other, k, trace)
        permuted, _ = _split(np.nonzero(m[p][:, q]), own[p], other[q], k, permuted_trace)
        assert np.array_equal(permuted, new[p])
        assert permuted_trace == trace
        assert sorted(set(new.tolist())) == list(range(len(set(new.tolist()))))
        assert count == len(set(new.tolist()))


def _cells(colour):
    return {frozenset(np.flatnonzero(colour == c).tolist()) for c in set(colour.tolist())}


def _assert_refines_like_the_oracle(m, rows, cols):
    got_rows, got_cols, _ = _refine(np.nonzero(m), rows, cols)
    want = oracle_equitable_refinement(m.tolist(), rows.tolist(), cols.tolist())
    assert (_cells(got_rows), _cells(got_cols)) == want


def test_refine_reaches_the_oracle_equitable_partition():
    """Random matrices (all-zero ones, one row, one column) from the unit
    colouring, one individualised row, or random colourings with colours
    0..k-1; then permuted affine(4,2) members."""
    rng = np.random.default_rng(12)
    for n in range(200):
        v, b = rng.integers(1, 9, size=2)
        v, b = (1 if n % 10 == 1 else v), (1 if n % 10 == 2 else b)
        m = (rng.random((v, b)) < (0 if n % 10 == 0 else rng.random())).astype(np.int8)
        rows, cols = np.zeros(v, dtype=np.int64), np.zeros(b, dtype=np.int64)
        if n % 3 == 1:
            rows[rng.integers(v)] = 1 if v > 1 else 0
        elif n % 3 == 2:
            rows = np.unique(rng.integers(0, 3, size=v), return_inverse=True)[1].ravel()
            cols = np.unique(rng.integers(0, 3, size=b), return_inverse=True)[1].ravel()
        _assert_refines_like_the_oracle(m, rows, cols)
    prng = random.Random(42)
    for member in mosaic_from_function(affine(4, 2)).members:
        m = _permuted(prng, member.matrix)
        rows, cols = np.zeros(m.shape[0], dtype=np.int64), np.zeros(m.shape[1], dtype=np.int64)
        _assert_refines_like_the_oracle(m, rows, cols)
        rows[prng.randrange(m.shape[0])] = 1
        _assert_refines_like_the_oracle(m, rows, cols)


def test_refine_against_a_trace_matches_it_exactly_or_returns_none():
    """B's refinement against A's trace: None exactly when B's own trace differs."""
    rng = np.random.default_rng(13)
    prng = random.Random(13)
    seen = set()
    for n in range(300):
        v, b = rng.integers(1, 7, size=2)
        a = (rng.random((v, b)) < rng.random()).astype(np.int8)
        other = _permuted(prng, a) if n % 2 else (rng.random((v, b)) < rng.random()).astype(np.int8)
        start = np.zeros(v, dtype=np.int64), np.zeros(b, dtype=np.int64)
        trace_a = _refine(np.nonzero(a), *start)[2]
        trace_b = _refine(np.nonzero(other), *start)[2]
        got = _refine(np.nonzero(other), *start, trace_a)
        assert (got is None) == (trace_b != trace_a)
        assert got is None or got[2] == trace_a
        seen.add(got is None)
    assert seen == {True, False}


def test_is_isomorphic_budget():
    rng = random.Random(3)
    member = mosaic_from_function(affine(4, 2)).members[1]
    copy = IncidenceStructure(_permuted(rng, member.matrix))
    with pytest.raises(SearchBudgetExceeded, match="used 3 nodes, over its node_budget of 2"):
        is_isomorphic(member, copy, node_budget=2)


def test_resolution_budget_states_nodes_and_limit():
    total = sum_mosaic(mosaic_from_function(affine(2, 3)))
    with pytest.raises(SearchBudgetExceeded, match="used 4 nodes, over its node_budget of 3"):
        find_resolution(total, node_budget=3)


@pytest.mark.parametrize("structure", [
    *[lambda q=q, t=t: _sum(affine(q, t)) for q, t in [(2, 2), (4, 2), (2, 3), (3, 3), (4, 3), (8, 2)]],
    lambda: _sum(transversal(8, include_infinity=True)),
    lambda: IncidenceStructure(FANO),
    *[lambda q=q: IncidenceStructure(np.asfortranarray(_sum(affine(q, 2)).matrix)) for q in (2, 3)],
    *[lambda q=q: _sum(affine(q, 2)).dual() for q in (2, 3, 4)],  # F-ordered views
])
def test_find_resolution_matches_the_recursive_search(structure):
    _assert_same_search(structure())


def _assert_same_search(d):
    """Same answer as the recursive search, with the same node count."""
    want, nodes = oracle_find_resolution(d.matrix.tolist())
    got = find_resolution(d, node_budget=nodes)
    assert (got.classes if isinstance(got, Resolution) else None) == want
    if nodes:
        message = f"used {nodes} nodes, over its node_budget of {nodes - 1}"
        with pytest.raises(SearchBudgetExceeded, match=message):
            find_resolution(d, node_budget=nodes - 1)


def _runs_are_classes(m, class_size):
    return all((m[:, j:j + class_size].sum(axis=1) == 1).all()
               for j in range(0, m.shape[1], class_size))


@pytest.mark.parametrize("q, t", [(2, 3), (3, 2)])
def test_find_resolution_searches_when_a_swap_breaks_the_runs(q, t):
    """One point swapped between a block of run 0 and one of run 1 leaves the
    replication number as it was, but the runs stop being classes, so the
    answer comes from the search."""
    m = _sum(affine(q, t)).matrix.copy()  # runs of |A| = q blocks
    x = np.flatnonzero(m[:, 0] & (1 - m[:, q]))[0]
    y = np.flatnonzero(m[:, q] & (1 - m[:, 0]))[0]
    m[[x, y], 0], m[[x, y], q] = (0, 1), (1, 0)
    assert not _runs_are_classes(m, q)
    _assert_same_search(IncidenceStructure(m))


@pytest.mark.parametrize("q, t", [(2, 3), (3, 2)])
def test_find_resolution_takes_runs_that_are_classes_in_any_order_within(q, t):
    """Blocks permuted within each run: the runs are still classes, though the
    structure is no longer in a sum's (s, a) order."""
    rng = random.Random(q * 10 + t)
    m = _sum(affine(q, t)).matrix
    order = [j for h in range(0, m.shape[1], q) for j in rng.sample(range(h, h + q), q)]
    d = IncidenceStructure(m[:, order])
    assert order != sorted(order) and _runs_are_classes(d.matrix, q)
    _assert_same_search(d)


def test_find_resolution_matches_the_recursive_search_on_random_structures():
    """Shuffled unions of random parallel classes, a third with one point
    swapped between two blocks, so the search backtracks across finished
    classes (31 of 150) and sometimes finds no resolution (11)."""
    rng = random.Random(8)
    for n in range(150):
        v, size, r = rng.choice([(4, 2, 3), (6, 2, 4), (6, 3, 3), (8, 2, 3), (8, 4, 4)])
        blocks = []
        for _ in range(r):
            points = rng.sample(range(v), v)
            blocks += [points[i:i + size] for i in range(0, v, size)]
        rng.shuffle(blocks)
        m = np.zeros((v, len(blocks)), dtype=np.int8)
        for j, blk in enumerate(blocks):
            m[blk, j] = 1
        if n % 3 == 0:  # swap one point between two blocks: sums stay, classes may break
            j, k = rng.sample(range(len(blocks)), 2)
            x = rng.choice(np.flatnonzero(m[:, j] & ~m[:, k] & 1).tolist() or [None])
            y = rng.choice(np.flatnonzero(m[:, k] & ~m[:, j] & 1).tolist() or [None])
            if x is not None and y is not None:
                m[[x, y], j], m[[x, y], k] = (0, 1), (1, 0)
        _assert_same_search(IncidenceStructure(m))


def _assert_resolution(d, classes):
    m = d.matrix.astype(np.int64)
    for cls in classes:
        assert (m[:, list(cls)].sum(axis=1) == 1).all()
    assert sorted(j for cls in classes for j in cls) == list(range(d.b))


@pytest.mark.parametrize("family", [
    lambda: affine(16, 2), lambda: transversal(16, include_infinity=True),
])
def test_find_resolution_of_large_sums(family):
    """Beyond the recursive search's reach: class h is the seed-h blocks
    h|A|, ..., (h+1)|A| - 1, found without backtracking in one node per block."""
    f = family()
    total = _sum(f)
    res = find_resolution(total)
    assert isinstance(res, Resolution)
    _assert_resolution(total, res.classes)
    assert res.classes == tuple(tuple(range(h * f.a_size, (h + 1) * f.a_size))
                                for h in range(f.s_size))
    assert find_resolution(total, node_budget=total.b).classes == res.classes
    with pytest.raises(SearchBudgetExceeded, match=f"used {total.b} nodes"):
        find_resolution(total, node_budget=total.b - 1)


def _structures(q, t):
    mos = mosaic_from_function(affine(q, t))
    return mos.members + dual_mosaic(mos).members + [sum_mosaic(mos)]


def test_analyze_structure_matches_integer_loops():
    rng = random.Random(4)
    structures = [d for q, t in [(2, 2), (3, 2), (2, 3)] for d in _structures(q, t)]
    structures += [IncidenceStructure(FANO), IncidenceStructure(_random_01(rng, 9, 12))]
    structures += [IncidenceStructure(np.ones((300, 300), dtype=np.int8))]  # counts past 8 bits
    for d in structures:
        assert analyze_structure(d).to_dict() == oracle_design_params(d.matrix.tolist())


def test_analyze_structure_counts_a_wide_matrix_by_row_blocks():
    """m^T m of 3 x 6000 holds 36e6 entries, 144 MB in float32: the blocks
    intersections are counted one row block of the product at a time."""
    d = IncidenceStructure(np.random.default_rng(5).integers(0, 2, size=(3, 6000)))
    tracemalloc.start()
    try:
        p = analyze_structure(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert p.to_dict() == oracle_design_params(d.matrix.tolist())


@pytest.mark.parametrize("tile", [1, 2, 5])
def test_gram_counts_match_plain_loops_at_every_tile_edge(monkeypatch, tile):
    """Records are compared whole, as is_isomorphic does: random 0/1 matrices
    of one row, a tile less one, a tile, a tile and one, and several tiles
    with a short last one, on the rows' side; GRAM_BLOCK is set so that the
    points half has tiles of tile rows."""
    rng = random.Random(30 + tile)
    for v in sorted({1, max(tile - 1, 1), tile, tile + 1, 3 * tile + 1, 4 * tile - 1}):
        force_kernel(monkeypatch, gram=tile * v)
        for b in (1, 2, 7):
            m = _random_01(rng, v, b)
            assert gram_counts(m) == oracle_gram_counts(m.tolist(), b), (v, b)


def test_gram_counts_match_plain_loops_on_random_matrices():
    """Unforced tiles (GRAM_ROWS rows) on each side of a tile edge, empty rows
    and columns, F-ordered transposes, and an all-ones matrix whose counts
    pass 8 bits."""
    rng = random.Random(31)
    rows = _count.GRAM_ROWS
    cases = [_random_01(rng, v, b) for v, b in [(rows - 1, 5), (rows, 3), (rows + 1, 6),
                                                 (2 * rows + 3, 4), (3, 2 * rows + 1)]]
    cases += [_random_01(rng, rng.randint(1, 12), rng.randint(1, 12)) for _ in range(60)]
    holes = _random_01(rng, 9, 11)
    holes[[0, 4]], holes[:, [2, 3, 10]] = 0, 0
    cases += [holes, np.zeros((4, 5), dtype=np.int8), np.zeros((0, 3), dtype=np.int8),
              np.ones((300, 300), dtype=np.int8)]
    for m in cases + [m.T for m in cases]:
        want = oracle_gram_counts(m.tolist(), m.shape[1])
        assert gram_counts(m) == want and IncidenceStructure(m)._counts == want, m.shape


def test_find_resolution_of_any_sum_is_its_seed_classes():
    """The blocks (s, a) of one seed partition the points, and the search
    takes them in index order, so it returns the seed classes, empty blocks
    and irregular tables included."""
    rng = random.Random(22)
    for _ in range(40):
        nx, ns, na = rng.randint(1, 8), rng.randint(1, 6), rng.randint(1, 4)
        res = find_resolution(_sum(random_table(rng, nx, ns, na)))
        assert res.classes == tuple(tuple(range(h * na, (h + 1) * na)) for h in range(ns))


@pytest.mark.parametrize("kind, args, kwargs", [
    *[("affine", qt, {}) for qt in [(2, 2), (3, 2), (4, 2), (2, 3)]],
    *[("dual_affine", qt, {}) for qt in [(2, 2), (3, 2), (2, 3)]],
    *[("transversal", (q,), {"include_infinity": inf})
      for q in (3, 4, 5, 8) for inf in (False, True)],
    ("field_multiply", (2, 3, 1), {"exclude_zero": True}),
], ids=repr)
def test_theorem_reports_match_the_oracle_on_named_families(kind, args, kwargs):
    f = getattr(mosaichash, kind)(*args, **kwargs)
    report, rep = check_structure_theorems(f), classify(f)
    assert report.to_dict() == oracle_theorem_report(f, rep)
    _assert_members(f, report, rep)


def _assert_members(f, report, rep):
    """The report's members are those of the member checks, None without one."""
    if rep.ocfu or (rep.regular and rep.equality.get("variance")):
        assert report.members == [analyze_structure(d) for d in mosaic_from_function(f).members]
    else:
        assert report.members is None


def test_theorem_reports_match_the_oracle_on_random_regular_tables():
    rng = random.Random(21)
    checked = set()
    for _ in range(40):
        na = rng.choice([2, 3, 4])
        f = random_regular_table(rng, rng.randint(na + 1, 9), na * rng.randint(1, 5), na)
        report, rep = check_structure_theorems(f), classify(f)
        assert report.to_dict() == oracle_theorem_report(f, rep)
        _assert_members(f, report, rep)
        checked.update((i["name"], i["ok"]) for i in report.implications)
    # some tables meet the variance bound with equality; none has quasi-symmetric duals
    assert checked == {("variance_equality_dual_quasi_symmetric", False)}


def _oracle_members(f):
    rows = f.to_table().array.tolist()
    return [oracle_design_params([[int(v == a) for v in row] for row in rows])
            for a in range(f.a_size)]


def _force(monkeypatch, flag):
    """Make check_structure_theorems read classify reports with flag set, and
    return that classify."""
    real = mosaichash.designs.classify

    def forced(f, budget):
        rep = real(f, budget)
        if flag == "variance":
            rep.equality = {**rep.equality, "variance": True}
        else:
            setattr(rep, flag, True)
        return rep

    monkeypatch.setattr(mosaichash.designs, "classify", forced)
    return forced


@pytest.mark.parametrize("flag", ["ocfu", "variance", "ou"])
def test_theorem_checks_fail_on_tables_whose_members_are_not_designs(monkeypatch, flag):
    """Each check forced on random regular tables and on planted tables, whose
    automorphism makes the sum's scan read orbit representatives only."""
    forced = _force(monkeypatch, flag)
    rng = random.Random(23)
    for n in range(12):
        na = rng.choice([2, 3])
        if n % 2:
            f = planted_cyclic_table(rng, na, rng.randint(2, 3), rng.randint(1, 2), na)
        else:
            f = random_regular_table(rng, rng.randint(na + 1, 8), na * rng.randint(2, 4), na)
        report = check_structure_theorems(f)
        assert report.to_dict() == oracle_theorem_report(f, forced(f, 10**7))
        assert not report.ok
        members = report.members  # the member parameters design --theorems prints
        assert members is not None or flag == "ou"
        assert members is None or [p.to_dict() for p in members] == _oracle_members(f)


def test_forced_ou_checks_match_the_oracle_on_irregular_and_value_moving_families(monkeypatch):
    """The sum's pair counts are the agreement counts of classify's pass: exact
    on irregular tables, whose pass counts agreements alone, and under
    automorphisms that move values or split the point orbits."""
    forced = _force(monkeypatch, "ou")
    rng = random.Random(29)
    families = [transversal(q, include_infinity=inf) for q in (3, 4, 5) for inf in (False, True)]
    families.append(field_multiply(2, 4, 2))
    for _ in range(12):
        na = rng.choice([2, 3])
        families.append(random_table(rng, rng.randint(na + 1, 9), rng.randint(1, 8), na))
    assert not all(classify(f).regular for f in families)
    for f in families:
        report = check_structure_theorems(f)
        assert report.to_dict() == oracle_theorem_report(f, forced(f, 10**7))


@pytest.mark.parametrize("kernel", KERNELS)
def test_forced_ou_checks_match_the_oracle_under_each_pair_kernel(monkeypatch, kernel):
    """The sum's block intersections are the pair counts of the transposed
    table, counted by either kernel: random regular tables with |A| up to 8,
    and planted tables, whose seed orbits leave representatives apart."""
    force_kernel(monkeypatch, kernel)
    forced = _force(monkeypatch, "ou")
    rng = random.Random(37)
    for n in range(16):
        na = rng.randint(2, 8)
        if n % 4 == 3:
            f = planted_cyclic_table(rng, 2, rng.randint(2, 3), rng.randint(1, 2), 2)
        else:
            f = random_regular_table(rng, rng.randint(na + 1, 11), na * rng.randint(1, 3), na)
        report = check_structure_theorems(f)
        assert report.to_dict() == oracle_theorem_report(f, forced(f, 10**7))


@pytest.mark.parametrize("table_backed", [False, True])
def test_theorem_checks_reuse_the_pair_pass_of_classify(monkeypatch, table_backed):
    f = affine(4, 2)
    if table_backed:
        f = f.to_table().to_family("a42")
    real, calls = mosaichash._count.pair_classes, []
    monkeypatch.setattr(mosaichash._count, "pair_classes",
                        lambda *args: calls.append(args) or real(*args))
    rep = classify(f)
    report = check_structure_theorems(f)
    assert rep.ou and report.ok
    assert "ou_sum_is_resolvable_bibd" in [i["name"] for i in report.implications]
    assert len(calls) == 1


def _level_set_params(f, a):
    """DesignParams of member a, the level set f == a_labels[a], and of its dual,
    from histograms counted by plain loops over evaluate's 0/1 rows."""
    rows = [[int(f.evaluate(x, s) == f.a_labels[a]) for s in f.s_labels] for x in f.x_labels]

    def half(lines):  # histograms of the line sums and of the pair counts of two lines
        sums, pairs = [0] * (len(lines[0]) + 1), [0] * (len(lines[0]) + 1)
        for i, u in enumerate(lines):
            sums[sum(u)] += 1
            for w in lines[i + 1:]:
                pairs[sum(p * q for p, q in zip(u, w))] += 2  # (u, w) and (w, u)
        return sums, pairs

    points, blocks = half(rows), half([list(col) for col in zip(*rows)])
    return _design_params(points, blocks), _design_params(blocks, points)


def _member_records(f):
    T = f.to_table().array
    return [member_counts(f, T, a) for a in range(f.a_size)]


def _value_moving_table(rng):
    """A planted table whose one automorphism takes each value a to a + 1."""
    na = rng.choice([2, 3])
    return planted_cyclic_table(rng, na * rng.randint(1, 2), rng.randint(2, 3), rng.randint(1, 3),
                                na, moves_values=True)


@pytest.mark.parametrize("kernel", KERNELS)
def test_the_pair_pass_marks_each_value_exactly(monkeypatch, kernel):
    """diagonal[a] of the pass, which counts orbit representatives only and
    marks each bin at its value orbit, is the presence set of N(x, x', a, a)
    over every pair x < x' counted by plain loops: planted tables whose
    automorphism moves values, and transversal families with infinity."""
    force_kernel(monkeypatch, kernel)
    families = [_value_moving_table(random.Random(n)) for n in range(60)]
    families += [transversal(q, include_infinity=True) for q in (3, 4, 5, 8)]
    for f in families:
        rows = f.to_table().array.tolist()
        want = [[False] * (f.s_size + 1) for _ in range(f.a_size)]
        for i, u in enumerate(rows):
            for w in rows[i + 1:]:
                for a in range(f.a_size):
                    want[a][sum(p == q == a for p, q in zip(u, w))] = True
        assert pair_pass(f, f.to_table().array)["diagonal"].tolist() == want, f.name


@pytest.mark.parametrize("route", [*KERNELS, "level sets"])
def test_the_seed_pass_marks_each_value_and_bin_exactly(monkeypatch, route):
    """The seed pass, which counts seed-orbit representatives only, against the
    presence sets of N(s, s', a, a') over every seed pair s < s' counted by
    plain loops: its per-value diagonal marks, and with every bin asked for
    (under each pair kernel) its all-bin marks, plus 0 where two blocks of one
    seed meet; the level-set route marks the diagonal alone.  Planted tables
    whose automorphism moves values, transversal families with infinity and
    dual_affine(3, 2)."""
    full = route != "level sets"
    if full:
        force_kernel(monkeypatch, route)
    families = [_value_moving_table(random.Random(n)) for n in range(60)]
    families += [transversal(q, include_infinity=True) for q in (3, 4, 5, 8)] + [dual_affine(3, 2)]
    for f in families:
        columns = list(zip(*f.to_table().array.tolist()))
        diagonal = [[False] * (f.x_size + 1) for _ in range(f.a_size)]
        every = [False] * (f.x_size + 1)
        every[0] = f.a_size >= 2
        for i, u in enumerate(columns):
            for w in columns[i + 1:]:
                for a in range(f.a_size):
                    diagonal[a][sum(p == q == a for p, q in zip(u, w))] = True
                    for b in range(f.a_size):
                        every[sum(p == a and q == b for p, q in zip(u, w))] = True
        marks, blocks, _ = seed_classes(f, f.to_table().array, full)
        assert marks.tolist() == diagonal, f.name
        assert (blocks.tolist() == every) if full else (blocks is None), f.name


@pytest.mark.parametrize("kernel", KERNELS)
def test_member_records_match_plain_counts_of_each_level_set(monkeypatch, kernel):
    """Each member's record, its pair counts marked by the pair pass on orbit
    representatives at their value orbits, its block intersections one
    product, gives the DesignParams of plain-loop counts, for the member and
    its dual: named families whose automorphisms move values (transversal) or
    not (affine, dual_affine), their generator-free rebuilds, random regular
    tables, and planted tables whose automorphism moves values."""
    force_kernel(monkeypatch, kernel)
    rng = random.Random(41)
    named = [transversal(q, include_infinity=inf) for q in (3, 4, 5) for inf in (False, True)]
    named += [affine(2, 2), affine(3, 2), affine(2, 3), dual_affine(2, 2), dual_affine(3, 2)]
    families = named + [f.to_table().to_family(f"rebuilt {f.name}") for f in named]
    for _ in range(8):
        na = rng.choice([2, 3, 4])
        nx, ns = rng.randint(na + 1, 9), na * rng.randint(1, 4)
        families.append(random_regular_table(rng, nx, ns, na))
        families.append(_value_moving_table(rng))
    for f in families:
        got = [(_design_params(p, b), _design_params(b, p))
               for p, b in _member_records(f)]
        assert got == [_level_set_params(f, a) for a in range(f.a_size)], f.name
        members = check_structure_theorems(f).members
        assert members is None or members == [p for p, _ in got]


@pytest.mark.parametrize("make, check", [
    (lambda: affine(3, 2), "ou_sum_is_resolvable_bibd"),
    (lambda: transversal(8, include_infinity=True), "variance_equality_dual_quasi_symmetric"),
], ids=["affine(3,2)", "transversal(8,inf)"])
def test_named_families_verify_their_generators_once(monkeypatch, make, check):
    """classify and then check_structure_theorems verify f's automorphisms once:
    the OU sum's seed orbits and the members' value orbits are the pass's."""
    real, calls = mosaichash._count.representatives, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (mosaichash._count, mosaichash.designs):  # wherever a module binds the name
        monkeypatch.setattr(module, "representatives", counted, raising=False)
    f = make()
    classify(f)
    report = check_structure_theorems(f)
    assert report.ok and check in [i["name"] for i in report.implications]
    assert len(calls) == 1


def test_generators_reassigned_after_classify_leave_the_members_unchanged(monkeypatch):
    """The member records read the orbits the pass verified, not f.automorphisms
    as it is later: neither no generators nor a false one (every value moved,
    nothing else) changes them or the members reported.  Member checks are
    forced on planted tables."""
    _force(monkeypatch, "ocfu")
    makers = [lambda: affine(3, 2), lambda: transversal(8, include_infinity=True)]
    makers += [lambda n=n: _value_moving_table(random.Random(n)) for n in range(6)]
    for make in makers:
        f = make()
        want = check_structure_theorems(f).members, _member_records(f)
        false = (np.arange(f.x_size), np.arange(f.s_size), np.roll(np.arange(f.a_size), 1))
        for generators in ((), (false,)):
            f = make()
            classify(f)
            f.automorphisms = generators
            got = check_structure_theorems(f).members, _member_records(f)
            assert got == want, f.name


@pytest.mark.parametrize("make", [lambda: affine(4, 2), lambda: transversal(8, include_infinity=True)],
                         ids=["affine(4,2)", "transversal(8,inf)"])
@pytest.mark.parametrize("table_backed", [False, True])
def test_theorem_checks_scan_the_seed_side_once_and_take_no_member_products(
        monkeypatch, make, table_backed):
    """classify and then two theorem checks scan the seed side once, verify the
    generators once and take no m_a^T m_a."""
    calls = {name: [] for name in ("seed_classes", "gram_half", "representatives")}
    for name, log in calls.items():
        real = getattr(mosaichash._count, name)
        monkeypatch.setattr(mosaichash._count, name,
                            lambda *args, real=real, log=log: log.append(args) or real(*args))
    f = make()
    if table_backed:
        f = f.to_table().to_family(f.name)
    classify(f)
    reports = [check_structure_theorems(f).to_dict() for _ in range(2)]
    assert reports[0] == reports[1] and reports[0]["ok"]
    assert [len(log) for log in calls.values()] == [1, 0, 1]


def test_a_seed_pass_for_the_members_alone_is_counted_again_once_for_the_sum(monkeypatch):
    real, calls = mosaichash._count.seed_classes, []
    monkeypatch.setattr(mosaichash._count, "seed_classes",
                        lambda *args: calls.append(args[2]) or real(*args))
    f = affine(3, 2)
    T = f.to_table().array
    records = _member_records(f)
    for _ in range(2):
        sum_counts(f, T)
        assert _member_records(f) == records
    assert calls == [False, True]


def _seed_classes(f):
    return Resolution(tuple(tuple(range(h * f.a_size, (h + 1) * f.a_size))
                            for h in range(f.s_size)))


def _assert_resolution_mosaic(rng, d, res):
    """mosaic_from_resolution against the column-by-column oracle, under a
    random labelling of each class."""
    labeling = [rng.sample(range(len(c)), len(c)) for c in res.classes]
    m = mosaic_from_resolution(d, res, labeling)
    want = oracle_mosaic_from_resolution(d.matrix.tolist(), res.classes, labeling)
    assert [x.matrix.tolist() for x in m.members] == want
    assert m.points == d.points and m.block_indices == tuple(range(len(res.classes)))
    assert m.a_labels == tuple(range(len(want)))
    table = function_from_mosaic(m).to_table().array  # entry (x, h): the member holding it
    assert all(want[a][x][h] for x, row in enumerate(table.tolist()) for h, a in enumerate(row))


def test_mosaic_from_resolution_matches_the_column_by_column_fill():
    rng = random.Random(31)
    families = [affine(q, t) for q, t in [(2, 2), (3, 2), (4, 2), (2, 3)]]
    families.append(transversal(4, include_infinity=True))
    for _ in range(20):
        na = rng.choice([2, 3, 4])
        nx, ns = rng.randint(na + 1, 9), na * rng.randint(1, 4)
        families.append(random_regular_table(rng, nx, ns, na))
    for f in families:
        total = _sum(f)
        for _ in range(3):
            _assert_resolution_mosaic(rng, total, _seed_classes(f))


def test_mosaic_from_resolution_of_found_resolutions_matches_the_fill():
    """Sums with their block columns shuffled, so find_resolution returns
    classes other than the seed classes."""
    rng = random.Random(32)
    for f in [affine(2, 2), affine(3, 2), affine(2, 3), transversal(3)]:
        total = _sum(f)
        order = rng.sample(range(total.b), total.b)
        shuffled = IncidenceStructure(total.matrix[:, order], total.points,
                                      [total.block_indices[j] for j in order])
        res = find_resolution(shuffled)
        assert isinstance(res, Resolution) and res.classes != _seed_classes(f).classes
        for _ in range(3):
            _assert_resolution_mosaic(rng, shuffled, res)


def test_mosaic_views_read_the_table_and_build_no_members():
    f = transversal(4, include_infinity=True)
    m = mosaic_from_function(f)
    assert m._table is f.to_table().array and not m._table.flags.writeable
    dual = dual_mosaic(m)
    sum_mosaic(m)
    sum_mosaic(dual)
    g = function_from_mosaic(m)
    function_from_mosaic(dual)
    assert "members" not in m.__dict__ and "members" not in dual.__dict__
    assert g.to_table().array.tolist() == f.to_table().array.tolist()
    assert np.shares_memory(dual._table, m._table) and not dual._table.flags.writeable
    rows = f.to_table().array.tolist()
    assert [d.matrix.tolist() for d in m.members] == \
        [[[int(v == a) for v in row] for row in rows] for a in range(f.a_size)]
    assert m.members is m.members  # built once


def test_a_dual_carries_its_original_record_swapped(monkeypatch):
    """A dual reads its original's record, swapped: the original's two Gram
    halves are counted once, whether the original or the dual is read first,
    and the dual's record is the transposed copy's."""
    real, calls = _count.gram_half, []
    monkeypatch.setattr(_count, "gram_half", lambda m: calls.append(m.shape) or real(m))
    rng = random.Random(34)
    for v, b in [(5, 7), (1, 4), (6, 1), (9, 9)]:
        m = _random_01(rng, v, b)
        want = gram_counts(m.T.copy())
        for dual_first in (False, True):
            original = IncidenceStructure(m)
            dual = original.dual()
            calls.clear()
            for d in (dual, original) if dual_first else (original, dual):
                d._counts
            assert calls == [(v, b), (b, v)]  # the original's halves, once
            assert dual._counts == want and original._counts == want[::-1]
            assert dual.dual()._counts == original._counts and len(calls) == 2
            assert "_original" not in vars(original) and dual._original is original


@pytest.mark.parametrize("make", [
    lambda: affine(3, 2), lambda: transversal(4, include_infinity=True),
    lambda: random_table(random.Random(35), 6, 5, 3),
])
def test_dual_mosaic_members_are_duals_of_the_members(make):
    """The dual's members are the transposes of the original's, its level sets
    of _table.T, and their records, read from the original's, are those of
    fresh copies."""
    m = mosaic_from_function(make())
    records = [analyze_structure(d) for d in m.members]
    dual = dual_mosaic(m)
    table = m._table.T
    for a, d in enumerate(dual.members):
        assert np.shares_memory(d.matrix, m.members[a].matrix)
        assert d.matrix.tolist() == (table == a).astype(np.int8).tolist()
        assert (d.points, d.block_indices) == (m.block_indices, m.points)
        assert d._original is m.members[a]
        assert d._counts == IncidenceStructure(d.matrix.copy())._counts
    assert records == [analyze_structure(d.dual()) for d in dual.members]
    assert "_original" not in vars(m) and dual._original is m


def test_function_from_mosaic_of_user_members_is_the_source_table():
    rng = random.Random(33)
    for _ in range(20):
        nx, ns, na = rng.randint(1, 7), rng.randint(1, 6), rng.randint(1, 4)
        t = random_table(rng, nx, ns, na).to_table()
        members = [IncidenceStructure([[int(v == a) for v in row] for row in t.array.tolist()],
                                      t.x_labels, t.s_labels) for a in range(na)]
        labels = [f"a{a}" for a in range(na)]
        back = function_from_mosaic(Mosaic(members, labels)).to_table()
        assert back.array.tolist() == t.array.tolist() and back.a_labels == tuple(labels)
        assert (back.x_labels, back.s_labels) == (t.x_labels, t.s_labels)


def test_mosaic_and_sum_of_a_family_with_no_points_read_back_from_json():
    f = FunctionTable([], range(3), range(2), []).to_family()
    m = mosaic_from_function(f)
    back = Mosaic.from_json(m.to_json())
    assert back.to_json() == m.to_json() and back._table.shape == (0, 3)
    assert back.block_indices == (0, 1, 2) and back.a_labels == (0, 1)
    total = sum_mosaic(m)
    again = IncidenceStructure.from_json(total.to_json())
    assert again.matrix.shape == (0, 6) and again.to_json() == total.to_json()
    d = IncidenceStructure.from_json('{"rows": [], "points": [], "block_indices": [0, 1, 2]}')
    assert d.matrix.shape == (0, 3) and d.block_indices == (0, 1, 2)


def _one_seed():
    return FunctionTable(range(4), ["s"], range(2), [[0], [1], [1], [0]]).to_family("one seed")


def _one_value():
    return FunctionTable(range(3), range(4), ["a"], [[0] * 4] * 3).to_family("one value")


def _one_point():
    return FunctionTable(["x"], range(4), range(2), [[0, 1, 1, 0]]).to_family("one point")


NAMED_SMALL = [
    ("affine(2,2)", lambda: affine(2, 2)), ("affine(3,2)", lambda: affine(3, 2)),
    ("affine(2,3)", lambda: affine(2, 3)), ("dual_affine(2,2)", lambda: dual_affine(2, 2)),
    ("dual_affine(3,2)", lambda: dual_affine(3, 2)), ("transversal(3)", lambda: transversal(3)),
    ("transversal(4,inf)", lambda: transversal(4, include_infinity=True)),
    ("toeplitz(2,1,2)", lambda: toeplitz(2, 1, 2)), ("toeplitz(2,2,3)", lambda: toeplitz(2, 2, 3)),
    ("field_multiply(2,3,1)", lambda: field_multiply(2, 3, 1)),
    ("field_multiply(2,3,1,nonzero)", lambda: field_multiply(2, 3, 1, exclude_zero=True)),
]
MOSAIC_CORPUS = [
    *NAMED_SMALL,
    *[(f"table {name}", lambda make=make: make().to_table().to_family("table"))
      for name, make in NAMED_SMALL],
    *[(f"regular {n}", lambda n=n: random_regular_table(
        random.Random(n), 3 + n % 5, (2 + n % 3) * (1 + n % 2), 2 + n % 3)) for n in range(6)],
    *[(f"irregular {n}", lambda n=n: random_table(random.Random(n), 2 + n % 6, 1 + n % 5, 2 + n % 2))
      for n in range(6)],
    ("one seed", _one_seed), ("one value", _one_value), ("one point", _one_point),
]


def _hold(f, passes):
    """f's memo holding nothing, a seed pass for the members alone, or one with every bin."""
    T = f.to_table().array
    if passes != "none":
        _count.seed_pass(f, T, full=passes == "sum")
    return T


def _refuse(*args):
    raise AssertionError("counted a Gram half")


@pytest.mark.parametrize("make", [make for _, make in MOSAIC_CORPUS],
                         ids=[name for name, _ in MOSAIC_CORPUS])
def test_mosaic_structures_read_the_held_passes_or_count_as_bare_copies(monkeypatch, make):
    """Members, dual members and the sum of a family's mosaic give the DesignParams
    of bare copies, with nothing held, a seed pass for the members alone and one
    with every bin.  A record the passes hold is read with gram_half refusing to
    run and is never kept as _counts; the members' full records, which
    is_isomorphic compares, stay those of fresh copies."""
    f = make()
    for passes in ("none", "members", "sum"):
        T = _hold(f, passes)
        m = mosaic_from_function(f)
        members, duals, total = m.members, dual_mosaic(m).members, sum_mosaic(m)
        structures = [*members, *duals, total]
        want = [analyze_structure(IncidenceStructure(d.matrix.copy())) for d in structures]
        regular = passes != "none" and "diagonal" in pair_pass(f, T)
        held = [regular] * (2 * len(members)) + [passes == "sum"]
        with monkeypatch.context() as patch:
            patch.setattr(_count, "gram_half", _refuse)
            got = [analyze_structure(d) if h else None for d, h in zip(structures, held)]
        got = [g or analyze_structure(d) for g, d in zip(got, structures)]
        assert got == want, passes
        assert all("_counts" not in vars(d) for d, h in zip(structures, held) if h)
        for d in (*members, *duals):
            assert d._counts == IncidenceStructure(d.matrix.copy())._counts
        rng = random.Random(f.x_size)
        for d in members[:2]:
            assert is_isomorphic(d, IncidenceStructure(_permuted(rng, d.matrix)))


@pytest.mark.parametrize("make", [lambda: affine(2, 3), lambda: affine(3, 2), lambda: affine(4, 2)],
                         ids=["affine(2,3)", "affine(3,2)", "affine(4,2)"])
@pytest.mark.parametrize("table_backed", [False, True])
def test_members_read_from_held_passes_still_reject_switched_copies_at_no_node(make, table_backed):
    f = make()
    if table_backed:
        f = f.to_table().to_family("table")
    assert check_structure_theorems(f).ok
    rng = random.Random(f.x_size)
    for d in mosaic_from_function(f).members:
        analyze_structure(d)
        assert is_isomorphic(d, IncidenceStructure(_permuted(rng, d.matrix)))
        copy = IncidenceStructure(_switched(rng, _permuted(rng, d.matrix)))
        assert not is_isomorphic(d, copy, node_budget=0)


def _resolve(d, budget):
    try:
        got = find_resolution(d, node_budget=budget)
    except SearchBudgetExceeded as e:
        return "budget", str(e)
    return got if isinstance(got, Resolution) else got.reason


@pytest.mark.parametrize("make", [make for _, make in MOSAIC_CORPUS] + [
    lambda: FunctionTable(range(3), [], range(2), [[], [], []]).to_family("no seeds"),
    lambda: FunctionTable([], range(3), range(2), []).to_family("no points"),
], ids=[name for name, _ in MOSAIC_CORPUS] + ["no seeds", "no points"])
def test_a_sum_resolves_by_its_seed_classes_as_a_bare_copy_does(monkeypatch, make):
    """The sum's carried seed classes give the bare copy's answer, the budget
    message at node_budget = b - 1 and the empty structure included, and no scan
    of its matrix; a dual of the sum carries no classes.  No pass is counted on
    an empty seed set, which classify rejects."""
    f = make()
    for passes in ("none", "sum") if f.s_size else ("none",):
        _hold(f, passes)
        total = sum_mosaic(mosaic_from_function(f))
        bare = IncidenceStructure(total.matrix.copy(), total.points, total.block_indices)
        budgets = (DEFAULT_NODE_BUDGET, total.b, total.b - 1)
        want = [_resolve(bare, budget) for budget in budgets]
        assert want[-1] == ("empty structure" if total.matrix.size == 0 else
                            ("budget", f"resolution search used {total.b} nodes, "
                                       f"over its node_budget of {total.b - 1}"))
        with monkeypatch.context() as patch:
            patch.setattr(mosaichash.designs, "_first_leaf", _refuse)
            assert [_resolve(total, budget) for budget in budgets] == want
        assert total.dual()._runs is None


def _old_mosaic_json(m):
    """Mosaic.to_json as each member's own document parsed back."""
    return json.dumps({"a_labels": m.a_labels, "members": [json.loads(d.to_json()) for d in m.members]})


def _labelled_table(rng):
    """A random table whose labels are unicode strings, tuples, floats and ints."""
    nx, ns, na = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
    rows = [[rng.randrange(na) for _ in range(ns)] for _ in range(nx)]
    return FunctionTable([f"xé{i}" for i in range(nx)], [(s, "s→") for s in range(ns)],
                         [a + 0.5 if a % 2 else a for a in range(na)], rows).to_family("labels")


def test_mosaic_json_is_byte_identical_to_each_member_document_parsed_back():
    """to_json is byte-identical to parsing each member's own document back, and
    from_json reads back the same mosaic as reading each member's text, on the
    named kinds, their duals, and random tables with unicode, tuple and float labels."""
    rng = random.Random(53)
    mosaics = [mosaic_from_function(make()) for _, make in NAMED_SMALL]
    mosaics += [mosaic_from_function(_labelled_table(rng)) for _ in range(20)]
    mosaics += [dual_mosaic(m) for m in mosaics[:5]]
    for m in mosaics:
        text = m.to_json()
        assert text == _old_mosaic_json(m)
        back = Mosaic.from_json(text)
        members, a_labels = json.loads(text)["members"], json.loads(text)["a_labels"]
        old = Mosaic([IncidenceStructure.from_json(json.dumps(d)) for d in members],
                     [decode_label(a) for a in a_labels])
        assert back.to_json() == old.to_json() == text
        assert (back.points, back.block_indices, back.a_labels) == (m.points, m.block_indices,
                                                                    m.a_labels)


@pytest.mark.parametrize("member", [
    5, "abc", None, [1], {"rows": 5}, {"rows": [[1]], "points": [0]},
    {"rows": [[1]], "points": [{"a": 1}], "block_indices": [0]},
], ids=repr)
def test_a_malformed_mosaic_member_raises_the_message_its_own_document_does(member):
    with pytest.raises(DomainError) as own:
        IncidenceStructure.from_json(json.dumps(member))
    with pytest.raises(DomainError) as whole:
        Mosaic.from_json(json.dumps({"members": [member], "a_labels": [0]}))
    assert str(whole.value) == str(own.value)


def test_a_pickled_mosaic_leaves_its_family_behind():
    """A family's formula need not pickle; the mosaic's table and labels do, and
    its copy's members, dual and sum are the original's."""
    m = mosaic_from_function(affine(3, 2))
    m.members
    for mos in (m, dual_mosaic(m)):
        copy = pickle.loads(pickle.dumps(mos))
        assert copy._family is None and copy.to_json() == mos.to_json()
        assert sum_mosaic(copy).to_json() == sum_mosaic(mos).to_json()


def _views_and_eager_copies(f):
    """Each member, dual member and the sum of f's mosaic and of its dual mosaic,
    fresh, paired with an eager structure of the same level set, transpose or
    incidence, built here by plain loops over f's table."""
    rows = f.to_table().array.tolist()
    cols = [list(col) for col in zip(*rows)]
    m = mosaic_from_function(f)
    pairs = []
    for mos, table in ((m, rows), (dual_mosaic(m), cols)):
        level = [[[int(v == a) for v in row] for row in table] for a in range(f.a_size)]
        for a, d in enumerate(mos.members):
            eager = IncidenceStructure(np.array(level[a], dtype=np.int8), mos.points,
                                       mos.block_indices)
            pairs += [(d, eager), (d.dual(), IncidenceStructure(eager.matrix.T, eager.block_indices,
                                                                eager.points))]
        incidence = [[int(v == a) for v in row for a in range(f.a_size)] for row in table]
        labels = [(s, a) for s in mos.block_indices for a in mos.a_labels]
        pairs.append((sum_mosaic(mos), IncidenceStructure(incidence, mos.points, labels)))
    return pairs


@pytest.mark.parametrize("make", [make for _, make in MOSAIC_CORPUS],
                         ids=[name for name, _ in MOSAIC_CORPUS])
def test_mosaic_views_are_the_eager_structures_they_stand_for(make):
    """A view's shape is read without its matrix; once read, its matrix, labels,
    JSON, pickle and isomorphism class are the eager structure's."""
    for view, eager in _views_and_eager_copies(make()):
        assert (view.v, view.b) == (eager.v, eager.b) and "matrix" not in vars(view)
        assert view.matrix.dtype == np.int8 and not view.matrix.flags.writeable
        assert np.array_equal(view.matrix, eager.matrix)
        assert (view.points, view.block_indices) == (eager.points, eager.block_indices)
        assert view.to_json() == eager.to_json()
        assert pickle.loads(pickle.dumps(view)).to_json() == eager.to_json()
        assert is_isomorphic(view, eager)


@pytest.mark.parametrize("make", [make for _, make in MOSAIC_CORPUS] + [
    lambda: FunctionTable(range(3), [], range(2), [[], [], []]).to_family("no seeds"),
    lambda: FunctionTable([], range(3), range(2), []).to_family("no points"),
], ids=[name for name, _ in MOSAIC_CORPUS] + ["no seeds", "no points"])
def test_a_sum_resolves_without_building_its_matrix_or_block_labels(make):
    """The seed classes, the budget message at node_budget = b - 1 and the
    empty structure's answer all come from the sum's shape and runs."""
    f = make()
    X, S, A = f.x_size, f.s_size, f.a_size
    total = sum_mosaic(mosaic_from_function(f))
    got = [_resolve(total, budget) for budget in (DEFAULT_NODE_BUDGET, S * A)]
    if X and S:
        want = Resolution(tuple(tuple(range(h, h + A)) for h in range(0, S * A, A)))
        assert got == [want, want]
        assert _resolve(sum_mosaic(mosaic_from_function(f)), S * A - 1) == (
            "budget", f"resolution search used {S * A} nodes, over its node_budget of {S * A - 1}")
    else:
        assert got == ["empty structure"] * 2
    assert "matrix" not in vars(total) and "block_indices" not in vars(total)


@pytest.mark.parametrize("make", [make for _, make in MOSAIC_CORPUS],
                         ids=[name for name, _ in MOSAIC_CORPUS])
def test_held_records_are_read_without_building_a_matrix(make):
    """With the pair pass and a seed pass with every bin held, analyze_structure
    of a regular family's members and their duals, and of any family's sum, reads
    the held record: no matrix is built, nor the sum's block labels."""
    f = make()
    T = _hold(f, "sum")
    m = mosaic_from_function(f)
    total = sum_mosaic(m)
    regular = "diagonal" in pair_pass(f, T)
    held = [total, *m.members, *dual_mosaic(m).members] if regular else [total]
    for d in held:
        analyze_structure(d)
        assert "matrix" not in vars(d), d
    assert "block_indices" not in vars(total)
    assert all("matrix" not in vars(d) for d in m.members)  # a dual read its original's record
