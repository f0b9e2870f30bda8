"""The benchmark's workloads: seeded inputs, fixed op lists and output checks.

``build(name, seed, root, work_dir)`` is the set-up a fresh process pays:
it warms the field cache and builds every input from the seed.  Each op is one question a user asks; its
``run`` is the timed call, ``collect`` turns the raw result into what
``check`` reads, and ``check`` compares against ``reference`` answers
computed lazily, outside any timed region.  ``known_defect`` names the
seed defect an op is expected to show and the status it fails with; such ops
still count as failed, and one that fails in any other way is a surprise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable

import mosaichash as mh
import numpy as np
from mosaichash import cli as mh_cli

import reference as ref
from clock import CLOCK

WORKLOADS = ("ladder", "tables", "cli")
ORACLE_MAX_CELLS = 10_000  # naive security-distance oracle only below this many joint cells


@dataclass(frozen=True)
class Defect:
    what: str
    status: str  # regular expression the failed op's status must match in full

    def matches(self, status):
        return re.fullmatch(self.status, status, re.DOTALL) is not None


ISO_HANG = Defect("is_isomorphic does not finish", "deadline")
RESOLUTION_RECURSION = Defect("find_resolution raises RecursionError", "raised RecursionError")
# a child process exits 1 with the traceback; cli.main in process raises
CLI_RESOLVE_TRACEBACK = Defect("design --resolve ends in a bare RecursionError traceback, exit 1",
                               r"exit 1: RecursionError: .*|raised RecursionError")


@dataclass
class Op:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is right, else the reason
    deadline_s: float
    work: dict = field(default_factory=dict)  # computed work counts, exact
    known_defect: Defect | None = None
    collect: Callable[[Any], Any] = lambda out: out
    failure: Callable[[Any], str | None] = lambda out: None  # a failure the output reports
    argv: list | None = None  # cli ops: the command line after `mosaichash`


@dataclass
class Workload:
    name: str
    ops: list
    cli: Any = None  # CliSession for the cli workload, whose ops are child processes

    @property
    def in_process(self):
        return self.cli is None


def rat(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def report_summary(rep) -> dict:
    """A ``VerificationReport`` in the canonical form ``reference.classify`` returns."""
    return verify_json_summary(rep.to_dict())


def verify_json_summary(d: dict) -> dict:
    """The same from ``VerificationReport.to_dict()`` or the ``verify`` JSON."""
    keys = ("regular", "block_size", "eps_au", "eps_acfu", "eps_asu", "eps_balanced",
            "witnesses", "ocfu", "ou", "equality")
    out = {k: d[k] for k in keys}
    for k in ("eps_acfu", "eps_asu"):
        if out[k] == "NotRegular":
            out[k] = None
    return out


def diff(got, want, what="output"):
    if got == want:
        return None
    if isinstance(got, dict) and isinstance(want, dict):
        keys = [k for k in sorted(set(got) | set(want), key=str) if got.get(k) != want.get(k)]
        return f"{what} differs at {keys[:3]}: got {[got.get(k) for k in keys[:3]]}, " \
               f"want {[want.get(k) for k in keys[:3]]}"
    return f"{what} differs: got {str(got)[:120]}, want {str(want)[:120]}"


def pairs_work(nx):
    """Point pairs x < x' that each epsilon scan visits."""
    return nx * (nx - 1) // 2


def table_work(shape):
    nx, ns, na = shape
    return {"table_entries": nx * ns, "eps_pairs": pairs_work(nx)}


def isotope(rng, labels):
    """A random latin square on labels: the cyclic group with permuted rows, columns, symbols."""
    n = len(labels)
    r, c, s = (rng.sample(range(n), n) for _ in range(3))
    return [[labels[s[(r[i] + c[j]) % n]] for j in range(n)] for i in range(n)]


def flip_source(rng, x_labels, nz):
    """X with seeded weights; Z is a seeded letter per x, kept with prob 1-f, else uniform."""
    w = [rng.randint(1, 4) for _ in x_labels]
    total = sum(w)
    rows = []
    for wx in w:
        f = Fraction(rng.randint(1, 3), 8)
        keep = rng.randrange(nz)
        px = Fraction(wx, total)
        rows.append([px * (1 - f) if z == keep else px * f / (nz - 1) for z in range(nz)])
    return rows  # f >= 1/8 spreads mass from every x to every z letter


def binary_source(rng):
    a, b, c = (rng.randint(1, 6) for _ in range(3))
    d = rng.randint(1, 6)
    t = a + b + c + d
    return [[Fraction(a, t), Fraction(b, t)], [Fraction(c, t), Fraction(d, t)]]


def check_pa(res, p, f: ref.RefFamily, inner=None, oracle=True):
    """Theory checks on a ``PAResult`` plus the naive distance oracle when small."""
    summary = ref.classify(f)
    eps = Fraction(summary["eps_acfu"])
    inner = ref.renyi_inner(p) if inner is None else inner
    na = len(f.a_labels)
    rad = (1 - eps) * na * inner + na * eps - 1
    dist = Fraction(res["security_distance"])
    if Fraction(res["eps_acfu"]) != eps:
        return f"eps_acfu {res['eps_acfu']} != {eps}"
    if Fraction(res["renyi_inner"]) != inner:
        return f"renyi inner {res['renyi_inner']} != {inner}"
    if Fraction(res["radicand"]) != rad:
        return f"radicand {res['radicand']} != {rad}"
    if dist * dist > 4 * rad:
        return f"distance {dist} breaks dist^2 <= 4 * radicand {rad}"
    if not res["independence_verified"]:
        return "key not independent of Z for a regular family"
    if any(Fraction(v) != Fraction(1, na) for v in res["key_marginal"]):
        return "key marginal is not uniform"
    if oracle and len(p[0]) * f.shape[1] * na <= ORACLE_MAX_CELLS:
        want = ref.security_distance(p, f)
        if dist != want:
            return f"security distance {dist} != oracle {want}"
    return None


def pa_dict(res):
    return {"eps_acfu": rat(res.eps_acfu), "renyi_inner": rat(res.renyi_inner),
            "radicand": rat(res.radicand), "security_distance": rat(res.security_distance),
            "independence_verified": res.independence_verified,
            "key_marginal": [rat(v) for v in res.key_marginal]}


# ---------------------------------------------------------------------------
# ladder: named families and constructions, built fresh, then classified
# ---------------------------------------------------------------------------


def named(kind, *params):
    """Library builder called by name at run time, so a traced rebinding is seen."""
    builder = {"transversal": lambda q: mh.transversal(q, include_infinity=True)}.get(kind)
    return (builder or getattr(mh, kind))(*params)


@lru_cache(maxsize=None)
def ref_named(kind, *params):
    return getattr(ref, kind)(*params)


def label(kind, params):
    suffix = ",inf" if kind == "transversal" else ""
    return f"{kind}({','.join(map(str, params))}{suffix})"


def _classify_check(want_fn, theory=None):
    def check(rep):
        want = want_fn()
        if theory:
            problem = theory(want)
            if problem:
                return "reference disagrees with theory: " + problem
        return diff(report_summary(rep), want, "classify report")
    return check


def _affine_theory(q, t):
    def theory(want):
        X = q**t
        opt = rat(Fraction(X - q, q * (X - 1)))
        if not (want["ocfu"] and want["ou"] and want["eps_acfu"] == opt
                and want["equality"].get("ocfu")):
            return f"affine({q},{t}) must be OCFU and OU with eps {opt}"
        return None
    return theory


LADDER = [("affine", (2, 2)), ("affine", (3, 2)), ("affine", (4, 2)), ("affine", (5, 2)),
          ("affine", (7, 2)), ("affine", (8, 2)), ("affine", (4, 3)),
          ("transversal", (8,)), ("transversal", (16,)),
          ("dual_affine", (3, 2)), ("toeplitz", (2, 2, 4)), ("field_multiply", (2, 6, 3))]


def build_ladder(seed):
    rng = random.Random(seed)
    for q in (2, 3, 4, 5, 7, 8, 16):
        mh.field_for_order(q)
    for n in (4, 5, 6):
        mh.field_new(2, n)
    ops = []
    for kind, params in LADDER:
        fam = named(kind, *params)
        shape = (fam.x_size, fam.s_size, fam.a_size)
        theory = _affine_theory(*params) if kind == "affine" else None
        ops.append(Op(
            id=f"classify {label(kind, params)}",
            run=lambda k=kind, p=params: mh.classify(named(k, *p)),
            check=_classify_check(lambda k=kind, p=params: ref.classify(ref_named(k, *p)), theory),
            deadline_s=60.0, work=table_work(shape)))

    fm_labels = list(named("field_multiply", 2, 4, 2).a_labels)
    q4 = mh.Quasigroup(fm_labels, isotope(rng, fm_labels))
    q3_rows = isotope(rng, [0, 1, 2])
    q3 = mh.Quasigroup([0, 1, 2], q3_rows)
    p3_rows = isotope(rng, [0, 1, 2])
    p3 = mh.Quasigroup([0, 1, 2], p3_rows)
    q4_rows = [[q4.mul(a, b) for b in fm_labels] for a in fm_labels]

    def fm():
        return named("field_multiply", 2, 4, 2)

    def a32():
        return named("affine", 3, 2)

    rfm, ra32 = (lambda: ref_named("field_multiply", 2, 4, 2)), (lambda: ref_named("affine", 3, 2))
    constructions = [
        ("seed_extension(field_multiply(2,4,2))",
         lambda: mh.classify(mh.seed_extension(fm(), q4)),
         lambda: ref.seed_extension(rfm(), fm_labels, q4_rows), (16, 64, 4)),
        ("seed_extension(affine(3,2))",
         lambda: mh.classify(mh.seed_extension(a32(), q3)),
         lambda: ref.seed_extension(ra32(), [0, 1, 2], q3_rows), (9, 36, 3)),
        ("point_extension(affine(3,2))",
         lambda: mh.classify(mh.point_extension(a32(), p3)),
         lambda: ref.point_extension(ra32(), [0, 1, 2], p3_rows), (27, 12, 3)),
        ("double_extension(field_multiply(2,4,2))",
         lambda: mh.classify(mh.double_extension(fm())),
         lambda: ref.double_extension(rfm()), (64, 64, 4)),
        ("double_extension(affine(3,2))",
         lambda: mh.classify(mh.double_extension(a32())),
         lambda: ref.double_extension(ra32()), (27, 36, 3)),
        ("concatenate(field_multiply(2,4,2),affine(2,2))",
         lambda: mh.classify(mh.concatenate(fm(), named("affine", 2, 2))),
         lambda: ref.concatenate(rfm(), ref_named("affine", 2, 2)), (16, 96, 2)),
    ]
    for op_id, run, want, shape in constructions:
        ops.append(Op(id=op_id, run=run, check=_classify_check(lambda w=want: ref.classify(w())),
                      deadline_s=60.0, work=table_work(shape)))

    def krawczyk():
        lifted, eps = mh.krawczyk_lift(fm())
        return eps, mh.classify(lifted)

    def check_krawczyk(out):
        eps, rep = out
        base = ref.classify(rfm())
        if rat(eps) != base["eps_balanced"]:
            return f"lift eps {eps} != balanced eps {base['eps_balanced']}"
        lifted = ref.classify(ref.seed_extension(rfm(), fm_labels, ref.group_rows(rfm())))
        if Fraction(lifted["eps_asu"]) > eps:
            return f"lifted family is only {lifted['eps_asu']}-ASU, above {eps}"
        return diff(report_summary(rep), lifted, "lifted classify report")

    ops.append(Op(id="krawczyk_lift(field_multiply(2,4,2))", run=krawczyk, check=check_krawczyk,
                  deadline_s=60.0, work=table_work((16, 64, 4))))

    for kind, params in (("field_multiply", (2, 5, 3)), ("affine", (2, 3))):
        def check_balanced(out, k=kind, p=params):
            eps, w = ref.balanced_epsilon(ref_named(k, *p))
            return diff((rat(out[0]), repr(out[1])), (rat(eps), repr(w)), "balanced epsilon")
        fam = named(kind, *params)
        ops.append(Op(id=f"balanced_epsilon({label(kind, params)})",
                      run=lambda k=kind, p=params: mh.balanced_epsilon(named(k, *p)),
                      check=check_balanced, deadline_s=60.0,
                      work={"table_entries": fam.x_size * fam.s_size,
                            "eps_pairs": pairs_work(fam.x_size)}))
    rng.shuffle(ops)
    return Workload("ladder", ops)


# ---------------------------------------------------------------------------
# tables: table-backed families; designs, isomorphism and privacy
# ---------------------------------------------------------------------------

TABLE_FAMILIES = [("affine", (2, 2)), ("affine", (3, 2)), ("affine", (4, 2)), ("affine", (5, 2)),
                  ("affine", (2, 3)), ("affine", (2, 4)), ("affine", (2, 5)), ("affine", (2, 6)),
                  ("affine", (3, 3)), ("affine", (4, 3)), ("affine", (8, 2)), ("affine", (16, 2)),
                  ("transversal", (8,)), ("transversal", (16,)), ("dual_affine", (3, 2))]
ISO_CASES = [(2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (3, 3), (5, 2)]
ISO_HANGS = {(4, 2), (2, 4), (3, 3), (5, 2)}
ISO_DEADLINE_S = 1.0  # for the sizes that hang; the ROADMAP's target for a fixed search
ISO_COPIES = 3  # random copies per op, so one lucky or unlucky search order moves an op less


def _switched(rng, m):
    """A copy of m with one 2x2 switch that keeps row and column sums but breaks
    the constant pair count, so it cannot be isomorphic to the 2-design m."""
    v, b = m.shape
    for _ in range(10_000):
        i, j = rng.sample(range(v), 2)
        s, t = rng.sample(range(b), 2)
        if m[i, s] == 1 and m[i, t] == 0 and m[j, s] == 0 and m[j, t] == 1:
            c = m.copy()
            c[i, s], c[i, t], c[j, s], c[j, t] = 0, 1, 1, 0
            pairs = (c.astype(np.int64) @ c.T.astype(np.int64))[~np.eye(v, dtype=bool)]
            if len(set(pairs.tolist())) > 1:
                return c
    raise RuntimeError("no breaking switch found")


def build_tables(seed):
    rng = random.Random(seed)
    fams, refs = {}, {}
    for kind, params in TABLE_FAMILIES:
        name = label(kind, params)
        fams[name] = named(kind, *params).to_table().to_family(name)
        refs[name] = (lambda k=kind, p=params: ref_named(k, *p).without_groups())
    for name, (nx, ns, na) in (("random(24,36,4)", (24, 36, 4)), ("random(27,54,3)", (27, 54, 3))):
        rows = []
        for _ in range(nx):
            row = list(range(na)) * (ns // na)
            rng.shuffle(row)
            rows.append(row)
        fams[name] = mh.FunctionTable(range(nx), range(ns), range(na), rows).to_family(name)
        refs[name] = (lambda r=rows, n=(nx, ns, na):
                      ref.from_rows(range(n[0]), range(n[1]), range(n[2]), r))

    def shape(name):
        f = fams[name]
        return f.x_size, f.s_size, f.a_size

    ops = []
    for name in ("affine(2,2)", "affine(3,2)", "affine(4,2)", "affine(2,3)", "affine(4,3)",
                 "affine(8,2)", "transversal(8,inf)", "transversal(16,inf)", "dual_affine(3,2)",
                 "random(24,36,4)", "random(27,54,3)"):
        def check_theorems(rep, n=name):
            f = refs[n]()
            want = ref.expected_theorems(f, ref.classify(f))
            got = [imp["name"] for imp in rep.implications]
            if not rep.ok:
                return f"theorem violations {rep.violations}"
            return diff(got, want, "implications checked")
        ops.append(Op(id=f"theorems {name}", run=lambda n=name: mh.check_structure_theorems(fams[n]),
                      check=check_theorems, deadline_s=30.0, work=table_work(shape(name))))

    for name in ("affine(4,3)", "affine(8,2)", "transversal(8,inf)", "random(24,36,4)"):
        def structure(n=name):
            mos = mh.mosaic_from_function(fams[n])
            return ([mh.analyze_structure(d) for d in mos.members],
                    [mh.analyze_structure(d) for d in mh.dual_mosaic(mos).members],
                    mh.analyze_structure(mh.sum_mosaic(mos)))

        def check_structure(out, n=name):
            f = refs[n]()
            want = ([ref.design_params(m) for m in ref.members(f)],
                    [ref.design_params(m.T) for m in ref.members(f)],
                    ref.design_params(ref.sum_matrix(f)))
            got = ([p.to_dict() for p in out[0]], [p.to_dict() for p in out[1]], out[2].to_dict())
            return diff(got, want, "design parameters")
        nx, ns, na = shape(name)
        ops.append(Op(id=f"structure {name}", run=structure, check=check_structure,
                      deadline_s=30.0, work={"incidence_entries": 3 * nx * ns * na}))

    for name in ("affine(2,2)", "affine(4,2)", "affine(4,3)", "affine(8,2)",
                 "transversal(8,inf)", "affine(16,2)", "transversal(16,inf)"):
        def resolve(n=name):
            return mh.find_resolution(mh.sum_mosaic(mh.mosaic_from_function(fams[n])))

        def check_resolution(res, n=name):
            if not isinstance(res, mh.Resolution):
                return f"no resolution returned: {res!r}"
            return ref.resolution_problem(ref.sum_matrix(refs[n]()), res.classes)
        nx, ns, na = shape(name)
        big = name in ("affine(16,2)", "transversal(16,inf)")
        ops.append(Op(id=f"resolve sum {name}", run=resolve, check=check_resolution,
                      deadline_s=30.0, work={"sum_blocks": ns * na},
                      known_defect=RESOLUTION_RECURSION if big else None))

    for q, t in ISO_CASES:
        name = f"affine({q},{t})"
        member = mh.mosaic_from_function(fams[name]).members[rng.randrange(q)]
        m = member.matrix
        hangs = (q, t) in ISO_HANGS

        def permuted():
            rows, cols = rng.sample(range(m.shape[0]), m.shape[0]), rng.sample(range(m.shape[1]), m.shape[1])
            return m[rows][:, cols]
        cases = [(f"isomorphic permuted members {name}",
                  [mh.IncidenceStructure(permuted()) for _ in range(ISO_COPIES)], True)]
        if not hangs:
            cases.append((f"isomorphic switched members {name}",
                          [mh.IncidenceStructure(_switched(rng, permuted())) for _ in range(ISO_COPIES)],
                          False))
        for op_id, copies, answer in cases:
            ops.append(Op(
                id=op_id, run=lambda a=member, cs=copies: [mh.is_isomorphic(a, c) for c in cs],
                check=lambda out, want=answer: None if all(o is want for o in out)
                else f"got {out}, want {want} for every copy",
                deadline_s=ISO_DEADLINE_S if hangs else 5.0,
                work={"v": m.shape[0], "b": m.shape[1], "copies": ISO_COPIES},
                known_defect=ISO_HANG if hangs else None))

    for name, nz in (("affine(4,2)", 3), ("affine(5,2)", 3), ("affine(3,3)", 3),
                     ("affine(8,2)", 2), ("affine(4,3)", 2)):
        p = flip_source(rng, fams[name].x_labels, nz)
        src = mh.JointSource(fams[name].x_labels, list(range(nz)), p)
        nx, ns, na = shape(name)
        ops.append(Op(id=f"run_pa flip({nz}) {name}",
                      run=lambda s=src, n=name: mh.run_pa(s, fams[n]),
                      check=lambda res, p=p, n=name: check_pa(pa_dict(res), p, refs[n]()),
                      deadline_s=30.0, work={"joint_cells": nz * ns * na,
                                             "eps_pairs": pairs_work(nx)}))

    base = binary_source(rng)
    binary = mh.JointSource([0, 1], [0, 1], base)
    for n in range(2, 7):
        name = f"affine(2,{n})"
        nx, ns, na = shape(name)

        def check_iid(res, n=name, k=n):
            return check_pa(pa_dict(res), ref.product_source(base, k), refs[n](),
                            inner=ref.renyi_inner(base) ** k,
                            oracle=2**k * ns * na <= ORACLE_MAX_CELLS)
        ops.append(Op(id=f"run_pa iid_extend(binary,{n}) {name}",
                      run=lambda n=n, name=name: mh.run_pa(mh.iid_extend(binary, n), fams[name]),
                      check=check_iid, deadline_s=30.0,
                      work={"joint_cells": 2**n * ns * na, "eps_pairs": pairs_work(nx)}))
    rng.shuffle(ops)
    return Workload("tables", ops)


# ---------------------------------------------------------------------------
# cli: one fresh `python -m mosaichash.cli` per op, README session order
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int | None
    stdout: bytes
    stderr: bytes
    files: dict
    maxrss_kb: int = 0


class CliSession:
    def __init__(self, root, work_dir):
        self.work = work_dir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.cmd = [sys.executable, "-m", "mosaichash.cli"]

    def subprocess_op(self, argv):
        out_path = os.path.join(self.work, ".stdout")
        err_path = os.path.join(self.work, ".stderr")

        def run():
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                proc = subprocess.Popen(self.cmd + argv, cwd=self.work, env=self.env,
                                        stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            code, usage = CLOCK.wait_child(proc)
            return code, usage.ru_maxrss, None, None  # output is in the files
        return run

    def inprocess_op(self, argv, call=None):
        """cli.main(argv) in this process; ``call`` wraps it in a trace span."""
        def run():
            out, err = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(self.work)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = call(mh_cli.main, argv) if call else mh_cli.main(argv)
            finally:
                os.chdir(cwd)
            return code, 0, out.getvalue().encode(), err.getvalue().encode()
        return run

    def _read(self, name):
        with open(os.path.join(self.work, name), "rb") as fh:
            return fh.read()

    def collect(self, files):
        """Turn (exit code, peak RSS, stdout, stderr) into a CliResult with the written files."""
        def collect(raw):
            code, maxrss, stdout, stderr = raw
            if stdout is None:
                stdout, stderr = self._read(".stdout"), self._read(".stderr")
            return CliResult(code, stdout, stderr, {name: self._read(name) for name in files},
                             maxrss)
        return collect


CLI_FAMILIES = {
    "a22": ("affine", (2, 2), ["--affine", "q=2", "t=2"]),
    "a43": ("affine", (4, 3), ["--affine", "q=4", "t=3"]),
    "fm": ("field_multiply", (2, 6, 3), ["--field-multiply", "q=2", "n=6", "m=3"]),
    "t16": ("transversal", (16,), ["--transversal", "q=16", "--infinity"]),
}


def _json_label(label):
    return [_json_label(x) for x in label] if isinstance(label, tuple) else label


def _table_json(f: ref.RefFamily):
    """The reference table as the family file must hold it."""
    return {"x_labels": [_json_label(x) for x in f.x_labels],
            "s_labels": [_json_label(s) for s in f.s_labels],
            "a_labels": [_json_label(a) for a in f.a_labels], "rows": f.T.tolist()}


def _cli_exit(res: CliResult):
    """A nonzero exit, with the last line of stderr, as the op's failure status."""
    if res.code == 0:
        return None
    lines = res.stderr.decode(errors="replace").strip().splitlines()
    return f"exit {res.code}: {lines[-1] if lines else ''}"


def _cli_check(inner):
    """JSON on stdout (after a zero exit), then the op-specific comparison."""
    def check(res: CliResult):
        try:
            data = json.loads(res.stdout)
        except ValueError:
            return "stdout is not JSON"
        return inner(data, res.files)
    return check


def build_cli(seed, root, work_dir):
    rng = random.Random(seed)
    session = CliSession(root, work_dir)
    sources = {}
    for key, (kind, params, _) in CLI_FAMILIES.items():
        if key == "t16":
            continue
        x_labels = named(kind, *params).x_labels
        p = flip_source(rng, x_labels, 2)
        sources[key] = p
        with open(os.path.join(work_dir, f"src_{key}.json"), "w") as fh:
            fh.write(mh.JointSource(x_labels, [0, 1], p).to_json())
    base = binary_source(rng)
    with open(os.path.join(work_dir, "bin.json"), "w") as fh:
        fh.write(mh.JointSource([0, 1], [0, 1], base).to_json())

    sessions = []
    for key, (kind, params, flags) in CLI_FAMILIES.items():
        table = lambda k=kind, p=params: ref_named(k, *p).without_groups()
        ext = lambda t=table: ref.seed_extension(t(), list(t().a_labels), ref.cyclic_rows(list(t().a_labels)))
        fam = named(kind, *params)
        nx, ns, na = fam.x_size, fam.s_size, fam.a_size
        steps = []

        def family_check(data, files, k=key, t=table):
            want = _table_json(t())
            got = json.loads(files[f"{k}.json"])
            if (data["x_size"], data["s_size"], data["a_size"]) != t().shape:
                return "sizes differ"
            return diff(got, want, "family table file")
        steps.append((["-o", f"{key}.json", "family", *flags], [f"{key}.json"], family_check,
                       {"table_entries": nx * ns}))

        def verify_check(data, files, t=table):
            return diff(verify_json_summary(data), ref.classify(t()), "verify JSON")
        steps.append((["verify", f"{key}.json"], [], verify_check,
                       {"table_entries": nx * ns, "eps_pairs": pairs_work(nx)}))
        if key == "t16":
            def resolve_check(data, files, t=table):
                if not isinstance(data.get("resolution"), list):
                    return f"no resolution: {data.get('resolution')!r}"
                return ref.resolution_problem(ref.sum_matrix(t()), data["resolution"])
            steps.append((["design", f"{key}.json", "--resolve"], [], resolve_check,
                          {"sum_blocks": ns * na}, CLI_RESOLVE_TRACEBACK))
            sessions.append(steps)
            continue

        def theorems_check(data, files, t=table):
            f = t()
            th = data["theorems"]
            if not th["ok"]:
                return f"theorem violations {th['violations']}"
            names = [imp["name"] for imp in th["implications"]]
            return (diff(names, ref.expected_theorems(f, ref.classify(f)), "implications")
                    or diff(data["members"], [ref.design_params(m) for m in ref.members(f)],
                            "member parameters"))
        steps.append((["design", f"{key}.json", "--theorems"], [], theorems_check,
                       {"table_entries": nx * ns, "eps_pairs": pairs_work(nx)}))

        def sum_check(data, files, k=key, t=table):
            m = ref.sum_matrix(t())
            rows = json.loads(files[f"{k}.sum.json"])["rows"]
            return diff(data["sum"], ref.design_params(m), "sum parameters") or \
                diff(rows, m.tolist(), "sum incidence file")
        steps.append((["-o", f"{key}.sum.json", "design", f"{key}.json", "--sum"],
                      [f"{key}.sum.json"], sum_check, {"incidence_entries": nx * ns * na}))

        def resolve_check(data, files, t=table):
            if not isinstance(data.get("resolution"), list):
                return f"no resolution: {data.get('resolution')!r}"
            return ref.resolution_problem(ref.sum_matrix(t()), data["resolution"])
        steps.append((["design", f"{key}.json", "--resolve"], [], resolve_check,
                      {"sum_blocks": ns * na}))

        def ext_check(data, files, k=key, e=ext):
            return diff(json.loads(files[f"{k}.ext.json"]), _table_json(e()), "seed extension file")
        steps.append((["-o", f"{key}.ext.json", "construct", f"{key}.json", "--seed-ext"],
                      [f"{key}.ext.json"], ext_check, {"table_entries": nx * ns * na}))

        def ext_verify_check(data, files, e=ext):
            return diff(verify_json_summary(data), ref.classify(e()), "verify JSON")
        steps.append((["verify", f"{key}.ext.json"], [], ext_verify_check,
                       {"table_entries": nx * ns * na, "eps_pairs": pairs_work(nx)}))

        # field_multiply is irregular at x = 0, so privacy runs on its seed extension
        pa_target, pa_ref, pa_s = ((f"{key}.ext.json", ext, ns * na) if key == "fm"
                                   else (f"{key}.json", table, ns))

        def pa_check(data, files, p=sources[key], r=pa_ref):
            return check_pa(data, p, r())
        steps.append((["pa", f"src_{key}.json", pa_target], [], pa_check,
                      {"joint_cells": 2 * pa_s * na, "eps_pairs": pairs_work(nx)}))
        if key == "a22":
            def iid_check(data, files, r=table):
                return check_pa(data, ref.product_source(base, 2), r(),
                                inner=ref.renyi_inner(base) ** 2)
            steps.append((["pa", "bin.json", f"{key}.json", "--iid", "2"], [], iid_check,
                          {"joint_cells": 4 * ns * na}))
        sessions.append(steps)

    rng.shuffle(sessions)
    ops = []
    for steps in sessions:
        for step in steps:
            argv, files, inner, work = step[:4]
            known = step[4] if len(step) > 4 else None
            ops.append(Op(id=" ".join(argv), run=session.subprocess_op(argv),
                          check=_cli_check(inner), deadline_s=60.0, work=dict(work),
                          known_defect=known, collect=session.collect(files),
                          failure=_cli_exit, argv=argv))
    return Workload("cli", ops, cli=session)


def build(name, seed, root, work_dir):
    if name == "ladder":
        return build_ladder(seed)
    if name == "tables":
        return build_tables(seed)
    if name == "cli":
        return build_cli(seed, root, work_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
