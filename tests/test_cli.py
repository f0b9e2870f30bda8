import json
from fractions import Fraction
from functools import partial

import pytest

from mosaichash import (
    FunctionTable,
    JointSource,
    Mosaic,
    affine,
    toeplitz,
    uniform_source,
)
from mosaichash import cli, designs
from mosaichash.cli import main
from oracles import ref_field_multiply
from util import flip_source


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def family_file(tmp_path, capsys, *argv):
    path = tmp_path / (argv[0].lstrip("-") + ".json")
    code = main(["-o", str(path), "family", *argv])
    out = capsys.readouterr().out  # drop the summary so later captures are clean
    assert code == 0
    return path, out


def test_family_writes_table(tmp_path, capsys):
    path, out = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    T = FunctionTable.from_json(path.read_text())
    assert len(T.x_labels) == 4 and len(T.s_labels) == 6
    assert json.loads(out)["s_size"] == 6


def test_family_over_a_prime_above_the_table_size(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=67", "t=1")
    T = FunctionTable.from_json(path.read_text())
    assert T.s_labels[5] == ((1,), 5) and T.a_labels == tuple(range(67))
    assert [list(r) for r in T.entries] == [
        [(x[0] + b) % 67 for (_, b) in T.s_labels] for x in T.x_labels
    ]


def test_family_over_gf256(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--field-multiply", "q=2", "n=8", "m=4")
    T = FunctionTable.from_json(path.read_text())
    (X, S, A), rows = ref_field_multiply(2, 8, 4)
    assert (list(T.x_labels), list(T.s_labels), list(T.a_labels)) == (X, S, A)
    assert [[T.a_labels[e] for e in row] for row in T.entries] == rows


def test_family_requires_one_kind(capsys):
    code, _, err = run(capsys, "family", "q=2", "t=2")
    assert code == 2 and "family kind" in err
    code, _, err = run(capsys, "family", "--affine", "--toeplitz", "q=2", "t=2")
    assert code == 2


def test_verify_affine(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["eps_acfu"] == "1/3"
    assert rep["ocfu"] is True
    assert rep["equality"]["ocfu"] is True


def test_verify_dual_affine_variance_equality(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--dual-affine", "q=2", "t=2")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["eps_acfu"] == "1/2"
    assert rep["equality"]["variance"] is True


def test_verify_irregular_table(tmp_path, capsys):
    T = FunctionTable([0, 1], [0, 1], [0, 1], [[0, 0], [0, 1]])
    path = tmp_path / "irr.json"
    path.write_text(T.to_json())
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["eps_acfu"] == "NotRegular"
    assert rep["eps_asu"] == "NotRegular"


def test_design_theorems_affine(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    code, out, _ = run(capsys, "design", str(path), "--theorems")
    assert code == 0
    rep = json.loads(out)
    assert rep["theorems"]["ok"] is True
    for member in rep["members"]:
        assert (member["v"], member["k"], member["lambda"]) == (4, 2, 1)
        assert member["is_bibd"]


def test_design_resolve(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    code, out, _ = run(capsys, "design", str(path), "--resolve")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["resolution"]) == 6


def test_design_resolve_transversal_16(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--transversal", "--infinity", "q=16")
    code, out, err = run(capsys, "design", str(path), "--resolve")
    assert code == 0 and err == ""
    classes = json.loads(out)["resolution"]
    assert len(classes) == 256 and {len(c) for c in classes} == {16}
    assert sorted(j for c in classes for j in c) == list(range(256 * 16))
    rows = FunctionTable.from_json(path.read_text()).entries
    for c in classes:  # block j of the sum is (seed j // 16, value j % 16)
        assert sorted(x for x, row in enumerate(rows) for j in c
                      if row[j // 16] == j % 16) == list(range(len(rows)))


def test_design_resolve_budget_exhausted(tmp_path, capsys, monkeypatch):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=3")
    monkeypatch.setattr(cli, "find_resolution", partial(designs.find_resolution, node_budget=3))
    code, out, err = run(capsys, "design", str(path), "--resolve")
    assert code == 2 and out == ""
    assert err == "error: resolution search used 4 nodes, over its node_budget of 3\n"


def test_design_dual_output(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    dual_path = tmp_path / "dual.json"
    code, out, _ = run(capsys, "-o", str(dual_path), "design", str(path), "--dual")
    assert code == 0
    m = Mosaic.from_json(dual_path.read_text())
    assert m.members[0].matrix.shape == (6, 4)


def test_design_sum_output(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    sum_path = tmp_path / "sum.json"
    code, out, _ = run(capsys, "-o", str(sum_path), "design", str(path), "--sum")
    assert code == 0
    rep = json.loads(out)
    assert rep["sum"]["is_bibd"] is True


def test_construct_seed_extension(tmp_path, capsys):
    g, _ = family_file(tmp_path, capsys, "--field-multiply", "q=2", "n=3", "m=1",
                    "--exclude-zero")
    out_path = tmp_path / "ext.json"
    code, out, _ = run(capsys, "-o", str(out_path), "construct", str(g),
                       "--seed-ext")
    assert code == 0
    T = FunctionTable.from_json(out_path.read_text())
    assert len(T.s_labels) == 14


def test_construct_concat_bound_annotation(tmp_path, capsys):
    f1, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    # second stage points must equal the first stage's value set F_2
    T = FunctionTable([0, 1], [0, 1], [0, 1], [[0, 1], [1, 0]])
    f2 = tmp_path / "stage2.json"
    f2.write_text(T.to_json())
    out_path = tmp_path / "concat.json"
    code, out, _ = run(capsys, "-o", str(out_path), "construct", str(f1),
                       str(f2), "--concat")
    assert code == 0
    rep = json.loads(out)
    assert "acfu_bound" in rep
    T2 = FunctionTable.from_json(out_path.read_text())
    assert len(T2.s_labels) == 12


def test_construct_concat_mismatch_exits_2(tmp_path, capsys):
    f1, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    f2, _ = family_file(tmp_path, capsys, "--transversal", "q=2")
    code, _, err = run(capsys, "construct", str(f1), str(f2), "--concat")
    assert code == 2 and "value set" in err


@pytest.mark.parametrize("files, flag", [(1, "--concat"), (3, "--concat"), (2, "--seed-ext"),
                                         (2, "--point-ext"), (2, "--double-ext")])
def test_construct_wrong_input_count_exits_2(tmp_path, capsys, files, flag):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    code, _, err = run(capsys, "construct", *[str(path)] * files, flag)
    assert code == 2
    assert err.splitlines() == [err.strip()] and err.startswith("error: ")


def test_construct_double_extension(tmp_path, capsys):
    # a(y, h) = y * h mod 3 on value labels whose order is not alphabetical
    L = ["c", "a", "b"]
    T = FunctionTable([0, 1, 2], [0, 1, 2], L, [[y * h % 3 for h in range(3)] for y in range(3)])
    path, out_path = tmp_path / "a.json", tmp_path / "double.json"
    path.write_text(T.to_json())
    code, _, _ = run(capsys, "-o", str(out_path), "construct", str(path), "--double-ext")
    assert code == 0

    def add(u, v):  # the cyclic group on the value labels, in their order
        return L[(L.index(u) + L.index(v)) % 3]

    def a(y, h):
        return L[T.entries[y][h]]

    D = FunctionTable.from_json(out_path.read_text())
    assert D.x_labels == tuple((y, b) for y in range(3) for b in L)
    assert D.s_labels == tuple((h, c) for h in range(3) for c in L)
    assert [[D.a_labels[e] for e in row] for row in D.entries] == [
        [add(add(a(y, h), b), c) for h, c in D.s_labels] for y, b in D.x_labels
    ]


@pytest.mark.parametrize("entry", [1.0, 0.5, "a"])
def test_verify_non_integer_entry_exits_2(tmp_path, capsys, entry):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"x_labels": [0, 1], "s_labels": [0, 1], "a_labels": [0, 1],
                                "rows": [[0, entry], [1, 0]]}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: table entries must be integers"]


def test_pa_uniform_zero_distance(tmp_path, capsys):
    fam, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=3")
    src = tmp_path / "src.json"
    src.write_text(uniform_source(affine(2, 3).x_labels).to_json())
    code, out, _ = run(capsys, "pa", str(src), str(fam))
    assert code == 0
    rep = json.loads(out)
    assert rep["security_distance"] == "0/1"
    assert rep["theorem_bound"] == 0.0


def test_pa_iid_decay(tmp_path, capsys):
    fam1, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=1")
    base = flip_source(2, Fraction(1, 4))
    relabeled = JointSource(
        affine(2, 1).x_labels, base.z_labels,
        [base.p[0], base.p[1]],
    )
    src = tmp_path / "src.json"
    src.write_text(relabeled.to_json())
    code, out, _ = run(capsys, "pa", str(src), str(fam1))
    assert code == 0
    d1 = Fraction(json.loads(out)["security_distance"])

    fam2, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    # the two-fold product source on pairs, matching affine(2,2) points
    src2 = JointSource(
        affine(2, 2).x_labels,
        [(z, w) for z in base.z_labels for w in base.z_labels],
        [
            [base.p[x1][z1] * base.p[x2][z2]
             for z1 in range(2) for z2 in range(2)]
            for x1 in range(2) for x2 in range(2)
        ],
    )
    src2_path = tmp_path / "src2.json"
    src2_path.write_text(src2.to_json())
    code, out, _ = run(capsys, "pa", str(src2_path), str(fam2))
    assert code == 0
    d2 = Fraction(json.loads(out)["security_distance"])
    assert d2 <= d1


def test_pa_irregular_family_exits_2(tmp_path, capsys):
    fam, _ = family_file(tmp_path, capsys, "--toeplitz", "q=2", "m=1", "n=2")
    src = tmp_path / "src.json"
    src.write_text(uniform_source(toeplitz(2, 1, 2).x_labels).to_json())
    code, _, err = run(capsys, "pa", str(src), str(fam))
    assert code == 2 and "ACFU1" in err


@pytest.mark.parametrize("argv", [
    ["--jobs", "2", "verify", "{f}"],
    ["--rng-seed", "1", "verify", "{f}"],
    ["family", "--transversal", "--full-H", "q=2"],
    ["construct", "{f}", "--seed-ext", "--cyclic"],
])
def test_removed_flags_exit_2(tmp_path, capsys, argv):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    with pytest.raises(SystemExit) as exc:
        main([a.format(f=path) for a in argv])
    assert exc.value.code == 2


def test_pa_zero_mass_key_exits_2(tmp_path, capsys):
    T = FunctionTable([0, 1], [0, 1], [0, 1], [[0, 0], [0, 0]])
    fam = tmp_path / "const.json"
    fam.write_text(T.to_json())
    src = tmp_path / "src.json"
    src.write_text(uniform_source([0, 1]).to_json())
    code, _, err = run(capsys, "pa", str(src), str(fam))
    assert code == 2 and "zero mass" in err


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2
    # valid JSON of the wrong shape
    for doc, why in (('{"x_labels": [0]}', "arrays s_labels, a_labels, rows"),
                     ('{"x_labels": 0, "s_labels": [], "a_labels": [], "rows": []}', "x_labels"),
                     ("[1, 2]", "JSON object"),
                     ('{"x_labels": [{"a": 1}], "s_labels": [0], "a_labels": [0], "rows": [[0]]}',
                      'not {"a": 1}')):
        path.write_text(doc)
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and why in err
        assert err.startswith("error: ") and err.count("\n") == 1
    fam, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=1")
    src = tmp_path / "src.json"
    src.write_text(json.dumps({"x_labels": [[0], [1]], "z_labels": [0],
                               "probabilities": [["1/0"], ["1/2"]]}))
    code, _, err = run(capsys, "pa", str(src), str(fam))
    assert code == 2 and "zero denominator" in err
    for probabilities in ([1, 0], [[float("inf")], [0]]):
        src.write_text(json.dumps({"x_labels": [[0], [1]], "z_labels": [0],
                                   "probabilities": probabilities}))
        code, _, err = run(capsys, "pa", str(src), str(fam))
        assert code == 2 and "rows of rationals" in err
    src.write_text("[]")
    code, _, err = run(capsys, "pa", str(src), str(fam))
    assert code == 2 and "JSON object" in err
    latin = tmp_path / "latin.json"
    for doc, why in (('{"labels": [0, 1]}', "arrays rows"),
                     ('{"labels": [0, 1], "rows": [5, 6]}', "rows must be arrays")):
        latin.write_text(doc)
        code, _, err = run(capsys, "construct", str(fam), "--seed-ext", "--latin", str(latin))
        assert code == 2 and why in err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n, code", [("0", 2), ("-2", 2), ("1", 0)])
def test_pa_iid_below_one_exits_2(tmp_path, capsys, n, code):
    fam, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=1")
    src = tmp_path / "src.json"
    src.write_text(uniform_source(affine(2, 1).x_labels).to_json())
    got, _, err = run(capsys, "pa", str(src), str(fam), "--iid", n)
    assert got == code and ("n must be >= 1" in err) == (code == 2)


def test_table_format_output(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    code, out, _ = run(capsys, "--format", "table", "verify", str(path))
    assert code == 0
    assert "eps_acfu: 1/3" in out
