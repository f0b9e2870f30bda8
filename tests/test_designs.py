import random
import time

import numpy as np
import pytest

from mosaichash import (
    IncidenceStructure,
    Mosaic,
    NotResolvable,
    Resolution,
    affine,
    analyze_structure,
    check_structure_theorems,
    dual_affine,
    dual_mosaic,
    field_multiply,
    find_resolution,
    function_from_mosaic,
    is_isomorphic,
    mosaic_from_function,
    mosaic_from_resolution,
    sum_mosaic,
    transversal,
)
from mosaichash.errors import BadLabeling, DomainError, NotAMosaic, SearchBudgetExceeded
from oracles import (
    oracle_design_params,
    oracle_find_resolution,
    oracle_is_isomorphic,
)
from util import random_table

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
    d = IncidenceStructure([[0, 1], [1, 0]], ["p", "q"], [0, 1])
    assert d.v == 2 and d.b == 2
    assert d.dual().points == (0, 1)


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
        assert is_isomorphic(IncidenceStructure(a), IncidenceStructure(other)) == want
        if sorted(a.sum(0)) == sorted(other.sum(0)) and sorted(a.sum(1)) == sorted(other.sum(1)):
            answers_with_equal_sums.add(want)
    assert answers_with_equal_sums == {True, False}


AFFINE_MEMBERS = [(4, 2), (2, 4), (3, 3), (5, 2), (8, 2)]


@pytest.mark.parametrize("q,t", AFFINE_MEMBERS)
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


def _sum(f):
    return sum_mosaic(mosaic_from_function(f))


@pytest.mark.parametrize("structure", [
    *[lambda q=q, t=t: _sum(affine(q, t)) for q, t in [(2, 2), (4, 2), (2, 3), (3, 3), (4, 3), (8, 2)]],
    lambda: _sum(transversal(8, include_infinity=True)),
    lambda: IncidenceStructure(FANO),
])
def test_find_resolution_matches_the_recursive_search(structure):
    _assert_same_search(structure())


def _assert_same_search(d):
    """Same answer as the recursive search, with the same node count."""
    want, nodes = oracle_find_resolution(d.matrix.tolist())
    got = find_resolution(d, node_budget=nodes)
    assert (got.classes if isinstance(got, Resolution) else None) == want
    if nodes:
        with pytest.raises(SearchBudgetExceeded, match=f"used {nodes} nodes"):
            find_resolution(d, node_budget=nodes - 1)


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
    total = _sum(family())
    res = find_resolution(total)
    assert isinstance(res, Resolution)
    _assert_resolution(total, res.classes)


def _structures(q, t):
    mos = mosaic_from_function(affine(q, t))
    return mos.members + dual_mosaic(mos).members + [sum_mosaic(mos)]


def test_analyze_structure_matches_integer_loops():
    rng = random.Random(4)
    structures = [d for q, t in [(2, 2), (3, 2), (2, 3)] for d in _structures(q, t)]
    structures += [IncidenceStructure(FANO), IncidenceStructure(_random_01(rng, 9, 12))]
    for d in structures:
        assert analyze_structure(d).to_dict() == oracle_design_params(d.matrix.tolist())
