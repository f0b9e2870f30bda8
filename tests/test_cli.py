import json
from fractions import Fraction

import pytest

from mosaichash import (
    FunctionTable,
    JointSource,
    Mosaic,
    affine,
    toeplitz,
    uniform_source,
)
from mosaichash.cli import main
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


def test_table_format_output(tmp_path, capsys):
    path, _ = family_file(tmp_path, capsys, "--affine", "q=2", "t=2")
    code, out, _ = run(capsys, "--format", "table", "verify", str(path))
    assert code == 0
    assert "eps_acfu: 1/3" in out
