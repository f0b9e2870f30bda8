"""The JSON contract: every report's ``to_dict`` keys and value forms, and the
exact bytes of every ``to_json`` with what they read back as.

A report renders its own fields under their own names, so these pins are
what ties a field rename to a change of the documented output."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mosaichash import (
    FunctionTable,
    IncidenceStructure,
    JointSource,
    Mosaic,
    Quasigroup,
    affine,
    analyze_structure,
    check_structure_theorems,
    classify,
    iid_extend,
    mosaic_from_function,
    run_pa,
    seed_lower_bounds,
    sum_mosaic,
)
from mosaichash.designs import DesignParams

AFFINE_22_BOUNDS = {
    "x_size": 4, "a_size": 2, "eps": "1/3", "optimal_eps": "1/3",
    "lb_variance": "4/1", "lb_simple": "6/1", "lb_ocfu": "6/1", "lb_au": "3/1",
    "lb_asu_variance": None, "lb_asu_simple": "6/1",
    "variance_applies": False, "variance_interval_nonempty": False, "asu_simple_applies": False,
}


def test_regular_classify_renders_fractions_reprs_and_its_bounds():
    assert classify(affine(2, 2)).to_dict() == {
        "family": "affine(2,2)", "x_size": 4, "s_size": 6, "a_size": 2,
        "regular": True, "block_size": 3,
        "eps_au": "1/3", "eps_acfu": "1/3", "eps_asu": "2/3", "eps_balanced": None,
        "witnesses": {"AU": "((0, 0), (0, 1))", "ACFU": "((0, 0), (0, 1), 0)",
                      "ASU": "((0, 0), (0, 1), 0, 1)"},
        "ocfu": True, "ou": True,
        "bounds": AFFINE_22_BOUNDS,
        "equality": {"variance": False, "simple": True, "ocfu": True, "au": False,
                     "asu_variance": False, "asu_simple": True},
    }


def test_irregular_classify_renders_not_regular_and_a_missing_witness():
    f = FunctionTable([0], [0, 1], [0, 1], [[0, 0]]).to_family("one row")
    assert classify(f).to_dict() == {
        "family": "one row", "x_size": 1, "s_size": 2, "a_size": 2,
        "regular": False, "block_size": None,
        "eps_au": "0/1", "eps_acfu": "NotRegular", "eps_asu": "NotRegular",
        "eps_balanced": None, "witnesses": {"AU": "None"},
        "ocfu": False, "ou": False, "bounds": None, "equality": {},
    }


def test_bound_report_renders_every_bound():
    assert classify(affine(2, 2)).bounds.to_dict() == AFFINE_22_BOUNDS
    assert seed_lower_bounds(4, 2, Fraction(1, 2)).to_dict() == {
        "x_size": 4, "a_size": 2, "eps": "1/2", "optimal_eps": "1/3",
        "lb_variance": "3/1", "lb_simple": "4/1", "lb_ocfu": None, "lb_au": "2/1",
        "lb_asu_variance": "5/1", "lb_asu_simple": "4/1",
        "variance_applies": False, "variance_interval_nonempty": False,
        "asu_simple_applies": False,
    }


def test_design_params_render_lambda_and_sorted_intersection_numbers():
    p = DesignParams(7, 7, 3, 3, 1, True, (2, 0), False, True, True, False)
    assert p.to_dict() == {
        "v": 7, "b": 7, "k": 3, "r": 3, "lambda": 1, "is_bibd": True,
        "intersection_numbers": [0, 2], "symmetric": False, "quasi_symmetric": True,
        "relations_ok": True, "affine_block_count": False,
    }
    d = analyze_structure(IncidenceStructure([[1, 0], [1, 1]])).to_dict()
    assert d["lambda"] == 1 and "lam" not in d and d["k"] is None


def test_theorem_report_renders_ok_and_leaves_out_members():
    report = check_structure_theorems(affine(2, 2))
    assert report.members is not None
    assert report.to_dict() == {
        "family": "affine(2,2)",
        "implications": [
            {"name": "ocfu_members_are_bibds", "ok": True,
             "details": {"v": "4", "k": "2", "lam": "1", "b": "6", "r": "3"}},
            {"name": "ou_sum_is_resolvable_bibd", "ok": True,
             "details": {"sum_params": {
                 "v": 4, "b": 12, "k": 2, "r": 6, "lambda": 2, "is_bibd": True,
                 "intersection_numbers": [0, 1, 2], "symmetric": False,
                 "quasi_symmetric": False, "relations_ok": True,
                 "affine_block_count": False}}},
        ],
        "violations": [],
        "ok": True,
    }


def test_pa_result_renders_fractions_the_distance_as_a_float_and_the_witness():
    f = affine(2, 2)
    q, e = Fraction(1, 8), Fraction(1, 4)
    src = JointSource(f.x_labels, ["z0", "z1"], [[q, q], [e, 0], [0, e], [q, q]])
    d = run_pa(src, f).to_dict()
    floats = {k: d.pop(k) for k in ("entropy_h2", "theorem_bound", "security_distance_float")}
    assert d == {
        "family": "affine(2,2)", "eps_acfu": "1/3", "key_marginal": ["1/2", "1/2"],
        "independence_verified": True, "security_distance": "2/3",
        "distance_witness": "(0, 1)", "renyi_inner": "3/8", "radicand": "1/6",
    }
    assert floats["security_distance_float"] == 2 / 3
    assert floats["entropy_h2"] == pytest.approx(math.log2(8 / 3))
    assert floats["theorem_bound"] == pytest.approx(2 * math.sqrt(1 / 6))


def test_function_table_json_writes_tuple_labels_as_arrays():
    T = FunctionTable([(0, "a"), (1, ("b", 2))], ["s", ("t",)], [0, "one"], [[0, 1], [1, 0]])
    text = T.to_json()
    assert text == ('{"x_labels": [[0, "a"], [1, ["b", 2]]], "s_labels": ["s", ["t"]], '
                    '"a_labels": [0, "one"], "rows": [[0, 1], [1, 0]]}')
    assert FunctionTable.from_json(text) == T


def _mosaic():
    table = FunctionTable([0, 1], [(0, 0), "s"], ["a", "b"], [[0, 1], [1, 1]])
    return mosaic_from_function(table.to_family())


def test_sum_structure_json_writes_pair_labels_as_arrays():
    total = sum_mosaic(_mosaic())
    text = total.to_json()
    assert text == ('{"points": [0, 1], "block_indices": [[[0, 0], "a"], [[0, 0], "b"], '
                    '["s", "a"], ["s", "b"]], "rows": [[1, 0, 0, 1], [0, 1, 0, 1]]}')
    back = IncidenceStructure.from_json(text)
    assert (back.points, back.block_indices) == (total.points, total.block_indices)
    assert np.array_equal(back.matrix, total.matrix)


def test_mosaic_json_writes_each_member():
    m = _mosaic()
    text = m.to_json()
    assert text == ('{"a_labels": ["a", "b"], "members": ['
                    '{"points": [0, 1], "block_indices": [[0, 0], "s"], "rows": [[1, 0], [0, 0]]}, '
                    '{"points": [0, 1], "block_indices": [[0, 0], "s"], "rows": [[0, 1], [1, 1]]}]}')
    back = Mosaic.from_json(text)
    assert (back.a_labels, back.points, back.block_indices) == (m.a_labels, m.points,
                                                                m.block_indices)
    assert np.array_equal(back._table, m._table)


def test_quasigroup_json_writes_labels_and_rows():
    a, b = (0, "a"), (1, "b")
    q = Quasigroup([a, b], [[b, a], [a, b]])
    text = q.to_json()
    assert text == '{"labels": [[0, "a"], [1, "b"]], "rows": [[[1, "b"], [0, "a"]], [[0, "a"], [1, "b"]]]}'
    back = Quasigroup.from_json(text)
    assert back.labels == q.labels
    assert [[back.mul(u, v) for v in q.labels] for u in q.labels] == [[b, a], [a, b]]


def test_iid_source_json_writes_tuple_labels_and_rationals():
    base = JointSource([0, 1], ["z", ("w", 1)],
                       [[Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 8), Fraction(1, 8)]])
    src = iid_extend(base, 2)
    text = src.to_json()
    assert text == (
        '{"x_labels": [[0, 0], [0, 1], [1, 0], [1, 1]], '
        '"z_labels": [["z", "z"], ["z", ["w", 1]], [["w", 1], "z"], [["w", 1], ["w", 1]]], '
        '"probabilities": [["1/4", "1/8", "1/8", "1/16"], ["1/16", "1/16", "1/32", "1/32"], '
        '["1/16", "1/32", "1/16", "1/32"], ["1/64", "1/64", "1/64", "1/64"]]}')
    back = JointSource.from_json(text)
    assert (back.x_labels, back.z_labels, back.den) == (src.x_labels, src.z_labels, src.den)
    assert back.p == src.p
