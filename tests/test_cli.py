import ast
import json
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from mosaichash import (
    FunctionTable,
    JointSource,
    Mosaic,
    affine,
    toeplitz,
    transversal,
    uniform_source,
)
from mosaichash import cli, designs, families, privacy
from mosaichash.cli import main
from oracles import oracle_design_params, ref_field_multiply
from util import flip_source, run_python


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
    assert T.array.tolist() == [
        [(x[0] + b) % 67 for (_, b) in T.s_labels] for x in T.x_labels
    ]


def test_family_over_gf256(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--field-multiply", "q=2", "n=8", "m=4")
    T = FunctionTable.from_json(path.read_text())
    (X, S, A), rows = ref_field_multiply(2, 8, 4)
    assert (list(T.x_labels), list(T.s_labels), list(T.a_labels)) == (X, S, A)
    assert [[T.a_labels[e] for e in row] for row in T.array.tolist()] == rows


def test_family_transversal_over_an_h_subset(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--transversal", "--H", "0,1", "q=3")
    assert path.read_text() == transversal(3, h_subset=[0, 1]).to_table().to_json() + "\n"


def test_family_requires_one_kind(capsys):
    for kinds in ((), ("--affine", "--toeplitz")):
        assert run(capsys, "family", *kinds, "q=2", "t=2") == (
            2, "", "error: choose exactly one family kind\n")


def test_family_flags_are_the_named_kinds(capsys):
    with pytest.raises(SystemExit):
        main(["family", "--help"])
    lines = capsys.readouterr().out.splitlines()  # the option lines, not the usage
    flags = [line.split()[0] for line in lines if line.startswith("  --")]
    kinds = [f"--{kind.replace('_', '-')}" for kind in families.NAMED]
    assert flags == kinds + ["--H", "--infinity", "--exclude-zero"]


def test_family_rejects_a_dimension_below_one(capsys):
    code, out, err = run(capsys, "family", "--affine", "q=2", "t=-1")
    assert (code, out, err) == (2, "", "error: the affine dimension t must be positive\n")


@pytest.mark.parametrize("argv, err", [
    (["--affine", "--H", "0,1", "q=2", "t=2"], "--H and --infinity apply only to --transversal"),
    (["--affine", "--infinity", "q=2", "t=2"], "--H and --infinity apply only to --transversal"),
    (["--transversal", "--exclude-zero", "q=3"], "--exclude-zero applies only to --field-multiply"),
])
def test_family_rejects_an_option_of_another_kind(capsys, argv, err):
    assert run(capsys, "family", *argv) == (2, "", f"error: {err}\n")


def test_family_over_the_label_budget_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "family", "--affine", "q=2", "t=30")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: 1073741824 points of affine(2,30) exceed budget "
                                       "10000000\n")


def test_budget_flag_bounds_the_table(tmp_path, capsys):
    code, out, err = run(capsys, "--budget", "3", "family", "--affine", "q=2", "t=2")
    assert (code, out, err) == (2, "", "error: 4 x 6 table exceeds budget 3\n")
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    code, out, err = run(capsys, "--budget", "3", "verify", str(path))
    assert (code, out, err) == (2, "", "error: 4 x 6 table exceeds budget 3\n")


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


def test_design_theorems_affine(tmp_path, capsys, monkeypatch):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")

    def analysed_again(d):
        raise AssertionError("members are read from the theorem check's records")
    monkeypatch.setattr(designs, "analyze_structure", analysed_again)
    code, out, _ = run(capsys, "design", str(path), "--theorems")
    assert code == 0
    rep = json.loads(out)
    assert rep["theorems"]["ok"] is True
    for member in rep["members"]:
        assert (member["v"], member["k"], member["lambda"]) == (4, 2, 1)
        assert member["is_bibd"]


def test_design_theorems_violation_exits_1_and_prints_the_report(tmp_path, capsys, monkeypatch):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    real = designs.check_structure_theorems

    def violated(f, budget):
        rep = real(f, budget)
        rep.violations.append("planted")
        return rep
    monkeypatch.setattr(designs, "check_structure_theorems", violated)
    code, out, err = run(capsys, "design", str(path), "--theorems")
    assert (code, err) == (1, "")
    rep = json.loads(out)
    assert rep["theorems"]["ok"] is False and rep["theorems"]["violations"] == ["planted"]
    assert [m["lambda"] for m in rep["members"]] == [1, 1]


def test_design_theorems_members_without_a_member_check(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--field-multiply", "q=2", "n=3", "m=1",
                          "--exclude-zero")
    code, out, _ = run(capsys, "design", str(path), "--theorems")
    rep = json.loads(out)
    assert code == 0 and [i["name"] for i in rep["theorems"]["implications"]] == [
        "ou_sum_is_resolvable_bibd", "ou_au_equality_sum_is_affine"]
    rows = FunctionTable.from_json(path.read_text()).array.tolist()
    assert rep["members"] == [oracle_design_params([[int(v == a) for v in row] for row in rows])
                              for a in range(2)]


@pytest.mark.parametrize("argv", [
    ["--affine", "q=2", "t=2"], ["--affine", "q=4", "t=3"],
    ["--field-multiply", "q=2", "n=6", "m=3"], ["--transversal", "q=16", "--infinity"],
    ["--transversal", "q=8"], ["--dual-affine", "q=3", "t=2"], ["--toeplitz", "q=2", "m=2", "n=4"],
], ids=" ".join)
def test_design_prints_the_same_members_with_and_without_theorems(tmp_path, capsys, argv):
    """members come from the theorem report where it read them, else from each
    member analysed: both give the same output."""
    path, _ = family_file(tmp_path, capsys, *argv)
    outputs = [run(capsys, "design", str(path), *flags) for flags in ((), ("--theorems",))]
    assert [code for code, _, _ in outputs] == [0, 0]
    plain, theorems = (json.loads(out)["members"] for _, out, _ in outputs)
    assert plain == theorems


@pytest.mark.parametrize("argv", [["verify", "{f}"], ["design", "{f}", "--theorems"],
                                  ["pa", "{src}", "{f}"], ["construct", "{f}", "--double-ext"]])
def test_empty_seed_set_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "f.json"
    path.write_text(FunctionTable(range(3), [], range(2), [[], [], []]).to_json())
    src = tmp_path / "src.json"
    src.write_text(uniform_source([0, 1, 2]).to_json())
    code, out, err = run(capsys, *[a.format(f=path, src=src) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "empty seed set" in err


def test_design_resolve_of_an_empty_seed_set_is_not_resolvable(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(FunctionTable(range(3), [], range(2), [[], [], []]).to_json())
    code, out, err = run(capsys, "design", str(path), "--resolve")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"resolution": "NotResolvable('empty structure')"}


@pytest.mark.parametrize("argv, warning", [
    (["construct", "{irregular}", "--point-ext"],
     "point extension of irregular {irregular}: the result fails (ACFU1)"),
    (["pa", "{src}", "{regular}"], "dropping z letters with zero mass"),
], ids=["construct", "pa"])
def test_library_warnings_print_as_one_line(tmp_path, capsys, argv, warning):
    paths = {"irregular": tmp_path / "i.json", "regular": tmp_path / "r.json",
             "src": tmp_path / "src.json"}
    paths["irregular"].write_text(FunctionTable([0, 1], [0, 1], [0, 1], [[0, 1], [0, 0]]).to_json())
    paths["regular"].write_text(FunctionTable([0, 1], [0, 1], [0, 1], [[0, 1], [1, 0]]).to_json())
    paths["src"].write_text(json.dumps({"x_labels": [0, 1], "z_labels": ["z", "dead"],
                                        "probabilities": [["1/2", "0"], ["1/2", "0"]]}))
    code, out, err = run(capsys, *[a.format(**paths) for a in argv])
    assert code == 0 and out
    assert err == f"warning: {warning.format(**paths)}\n"


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
    rows = FunctionTable.from_json(path.read_text()).array.tolist()
    for c in classes:  # block j of the sum is (seed j // 16, value j % 16)
        assert sorted(x for x, row in enumerate(rows) for j in c
                      if row[j // 16] == j % 16) == list(range(len(rows)))


def test_design_resolve_budget_exhausted(tmp_path, capsys, monkeypatch):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=3")
    monkeypatch.setattr(designs, "find_resolution",
                        partial(designs.find_resolution, node_budget=3))
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


def test_design_sum_and_resolve_build_the_sum_once(tmp_path, capsys, monkeypatch):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    alone = {**json.loads(run(capsys, "design", str(path), "--sum")[1]),
             **json.loads(run(capsys, "design", str(path), "--resolve")[1])}
    built, calls = designs.sum_mosaic, []
    monkeypatch.setattr(designs, "sum_mosaic", lambda m: calls.append(m) or built(m))
    code, out, _ = run(capsys, "design", str(path), "--sum", "--resolve")
    assert code == 0 and len(calls) == 1
    assert out == json.dumps(alone, indent=2, sort_keys=True) + "\n"


def test_design_dual_and_sum_to_one_file_exits_2(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    out_path = tmp_path / "x.json"
    code, out, err = run(capsys, "-o", str(out_path), "design", str(path), "--dual", "--sum")
    assert code == 2 and out == "" and not out_path.exists()
    assert err == "error: -o names one structure file: choose --dual or --sum\n"


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


def test_construct_concat_checks_the_domains_before_any_epsilon(tmp_path, capsys, monkeypatch):
    """field_multiply(2,6,3) fails (ACFU1): its pass must not run before the
    mismatch of affine(2,2)'s values with its 64 points is reported."""
    f1, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    f2, _ = family_file(tmp_path, capsys, "--field-multiply", "q=2", "n=6", "m=3")
    calls = []
    monkeypatch.setattr(cli, "min_epsilon", lambda *a: calls.append(a))
    code, out, err = run(capsys, "construct", str(f1), str(f2), "--concat")
    assert code == 2 and out == "" and calls == []
    assert err == f"error: value set of {f1} does not match the point set of {f2}\n"


@pytest.mark.parametrize("files, flag", [(1, "--concat"), (3, "--concat"), (2, "--seed-ext"),
                                         (2, "--point-ext"), (2, "--double-ext")])
def test_construct_wrong_input_count_exits_2(tmp_path, capsys, files, flag):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    code, _, err = run(capsys, "construct", *[str(path)] * files, flag)
    assert code == 2
    assert err.splitlines() == [err.strip()] and err.startswith("error: ")


def test_construct_takes_exactly_one_construction(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    with pytest.raises(SystemExit) as exc:
        main(["construct", str(path), "--seed-ext", "--double-ext"])
    assert exc.value.code == 2 and "not allowed with" in capsys.readouterr().err
    code, out, err = run(capsys, "construct", str(path))
    assert code == 2 and out == "" and err == "error: choose a construction\n"


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
        return L[T.array[y, h]]

    D = FunctionTable.from_json(out_path.read_text())
    assert D.x_labels == tuple((y, b) for y in range(3) for b in L)
    assert D.s_labels == tuple((h, c) for h in range(3) for c in L)
    assert [[D.a_labels[e] for e in row] for row in D.array.tolist()] == [
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


def test_pa_prints_plus_zero_entropy_where_z_determines_x(tmp_path, capsys):
    fam, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=1")
    src = tmp_path / "src.json"
    src.write_text(json.dumps({"x_labels": [[0], [1]], "z_labels": [0, 1],
                               "probabilities": [["1/2", "0"], ["0", "1/2"]]}))
    code, out, _ = run(capsys, "pa", str(src), str(fam))
    assert code == 0 and '"entropy_h2": 0.0' in out


def test_pa_theorem_violation_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    fam, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    src = tmp_path / "src.json"
    src.write_text(uniform_source(FunctionTable.from_json(fam.read_text()).x_labels).to_json())
    monkeypatch.setattr(privacy, "security_distance",
                        lambda joint: (Fraction(5, 2), ("w0", "w1")))
    code, out, err = run(capsys, "pa", str(src), str(fam))
    assert (code, out) == (1, "")
    assert err.startswith("error: security distance 5/2 ") and err.count("\n") == 1


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
                      'not {"a": 1}'),
                     ('{"x_labels": [0, 1], "s_labels": [0, 1], "a_labels": [0], '
                      '"rows": [[0, 0], [0]]}', "table shape does not match domains"),
                     ('{"x_labels": [1, true], "s_labels": [0], "a_labels": [0], '  # 1 == True
                      '"rows": [[0], [0]]}', "error: duplicate labels in domain X\n")):
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


def test_running_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    """Exit 1 says a check failed; a command that cannot finish is an input error."""
    fam, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")

    def exhausted(f, budget):
        raise MemoryError
    monkeypatch.setattr(cli, "classify", exhausted)
    code, out, err = run(capsys, "verify", str(fam))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_cli_imports_no_private_name():
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "mosaichash")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("n, code", [("0", 2), ("-2", 2), ("1", 0)])
def test_pa_iid_below_one_exits_2(tmp_path, capsys, n, code):
    fam, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=1")
    src = tmp_path / "src.json"
    src.write_text(uniform_source(affine(2, 1).x_labels).to_json())
    got, _, err = run(capsys, "pa", str(src), str(fam), "--iid", n)
    assert got == code and ("n must be >= 1" in err) == (code == 2)


def test_pa_iid_past_the_budget_exits_2_at_once(tmp_path, capsys):
    fam, _ = family_file(tmp_path, capsys, "--affine", "q=3", "t=1")
    src = tmp_path / "src.json"
    src.write_text(uniform_source(affine(3, 1).x_labels).to_json())
    start = time.perf_counter()
    code, out, err = run(capsys, "pa", str(src), str(fam), "--iid", "100000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: 100000000-tuple labels exceed budget 1000000"]


def test_table_format_output(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    code, out, _ = run(capsys, "--format", "table", "verify", str(path))
    assert code == 0
    assert "eps_acfu: 1/3" in out


# Runs one command in a fresh interpreter and prints its exit code and the
# mosaichash modules it loaded.
LOADS = """
import contextlib, io, json, sys
from mosaichash.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "mosaichash")]))
"""
CORE = ["_count", "cli", "errors", "families", "fields", "verify"]


@pytest.mark.parametrize("argv, extra", [
    (["-o", "{out}", "family", "--affine", "q=2", "t=2"], None),
    (["verify", "{f}"], None),
    (["design", "{f}", "--theorems", "--sum", "--resolve"], "designs"),
    (["-o", "{out}", "construct", "{f}", "--seed-ext"], "construct"),
    (["pa", "{src}", "{f}"], "privacy"),
], ids=["family", "verify", "design", "construct", "pa"])
def test_each_command_imports_only_what_it_runs(tmp_path, argv, extra):
    f, src = tmp_path / "f.json", tmp_path / "src.json"
    f.write_text(affine(2, 2).to_table().to_json())
    src.write_text(uniform_source(affine(2, 2).x_labels).to_json())
    res = run_python("-c", LOADS, *[a.format(f=f, src=src, out=tmp_path / "out.json")
                                    for a in argv])
    assert res.returncode == 0, res.stderr
    want = ["mosaichash", *sorted(f"mosaichash.{m}" for m in CORE + [extra] if m)]
    assert json.loads(res.stdout) == [0, want]
