"""Tests of the benchmark itself: tracing coverage, checks, contract and refusal.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import mosaichash  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Slow ops (seconds each at the seed) are left out; every traced name is still reached.
SLOW = ("transversal(16", "affine(16", "field_multiply(2,6,3)", "affine(4,3)", "affine(8,2)",
        "affine(7,2)", "iid_extend(binary,6)", "permuted members affine(2,4)",
        "permuted members affine(3,3)", "permuted members affine(5,2)", "t16", "a43")

EXPECTED_SPANS = {
    "ladder": {"families.to_table", "verify.classify", "verify.regularity_check",
               "verify.min_epsilon.AU", "verify.min_epsilon.ACFU", "verify.min_epsilon.ASU",
               "verify.min_epsilon.BALANCED",
               *(f"construct.{n}" for n in spans.CONSTRUCTIONS)},
    "tables": {"families.to_table", "verify.classify", "designs.mosaic_from_function",
               "designs.analyze_structure", "designs.sum_mosaic", "designs.find_resolution",
               "designs.is_isomorphic", "designs.check_structure_theorems",
               "privacy.pa_joint", "privacy.security_distance", "privacy.renyi2_conditional",
               "privacy.iid_extend", "privacy.run_pa"},
    "cli": {"families.json", "families.to_table", "verify.classify", "designs.analyze_structure",
            "designs.find_resolution", "designs.check_structure_theorems",
            "construct.seed_extension", "privacy.run_pa", "privacy.iid_extend",
            *(f"cli.main.{c}" for c in ("family", "verify", "design", "construct", "pa"))},
}


def traced_pass(name, tmp_path):
    """Set-up and one traced in-process pass over the fast ops of a workload."""
    mosaichash.field_for_order.cache_clear()  # so every set-up builds its fields again
    mosaichash.fields._field_cached.cache_clear()
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = "setup"
        wl = workloads.build(name, 7, str(ROOT), str(tmp_path))
        ops = [op for op in wl.ops if not any(s in op.id for s in SLOW)]
        fn_for = None
        if not wl.in_process:
            def fn_for(op):
                return wl.cli.inprocess_op(op.argv, lambda main, argv: tracer.call(
                    f"cli.main.{run.argv_command(argv)}", main, argv))
        before = tracer.counters()
        _, outcomes = run.run_pass(ops, fn_for, tracer)
        after = tracer.counters()
    finally:
        tracer.uninstall()
    run.check_outcomes(outcomes)
    names = {rec[spans.NAME] for rec in tracer.spans if rec[spans.OP] != "setup"}
    return tracer, outcomes, names, tracer.layer_metrics({op.id for op in ops}, before, after)


@pytest.fixture(scope="module", autouse=True)
def clock():
    run.CLOCK.start()
    yield
    run.CLOCK.stop()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_wrapped_name_records_calls(name, tmp_path):
    tracer, outcomes, names, m = traced_pass(name, tmp_path)
    assert EXPECTED_SPANS[name] <= names, EXPECTED_SPANS[name] - names
    assert m["families.evaluate.calls"] > 0
    assert m["fields.field_new.calls"] > 0  # the set-up builds fields
    if name == "ladder":
        assert m["fields.ops.calls"] > 0
        assert m["construct.to_table.s"] > 0
    assert not [(o.op.id, o.status) for o in run.surprises(outcomes)]


def test_no_field_arithmetic_on_tables(tmp_path):
    _, outcomes, _, m = traced_pass("tables", tmp_path)
    assert m["fields.ops.calls"] == 0
    assert m["designs.is_isomorphic.deadline"] == 1  # affine(4,2); the other hanging cases are SLOW
    assert m["designs.find_resolution.calls"] > 0


def test_a_known_defect_failing_another_way_is_a_surprise(tmp_path):
    wl = workloads.build("tables", 7, str(ROOT), str(tmp_path))
    hang = next(op for op in wl.ops if op.id == "isomorphic permuted members affine(4,2)")
    recursion = next(op for op in wl.ops if op.id == "resolve sum affine(16,2)")
    fast_wrong = dataclasses.replace(hang, run=lambda: [False] * workloads.ISO_COPIES)
    raises = dataclasses.replace(recursion, run=lambda: 1 / 0)
    outcomes = [run.run_op(op) for op in (hang, recursion, fast_wrong, raises)]
    run.check_outcomes(outcomes)
    assert [o.status for o in outcomes] == [
        "deadline", "raised RecursionError", "wrong: got [False, False, False], want True for "
        "every copy", "raised ZeroDivisionError"]
    assert run.surprises(outcomes) == outcomes[2:]  # so the run reports correct=false


def test_cli_exit_status_and_its_known_defect():
    def outcome(code, stderr):
        res = workloads.CliResult(code, b"", stderr, {})
        op = workloads.Op(id="design t16.json --resolve", run=lambda: None, check=lambda out: None,
                          deadline_s=1, known_defect=workloads.CLI_RESOLVE_TRACEBACK)
        return run.Outcome(op, 0.0, workloads._cli_exit(res) or "ok", res)
    traceback = b"Traceback (most recent call last):\n  ...\nRecursionError: maximum recursion depth\n"
    expected = outcome(1, traceback)
    assert expected.status == "exit 1: RecursionError: maximum recursion depth"
    assert not run.surprises([expected])
    assert run.surprises([outcome(1, b"Traceback ...\nValueError: bad table\n")])
    assert run.surprises([outcome(2, b"usage: mosaichash ...\n")])
    assert outcome(0, b"").status == "ok"


def test_speed_samples_are_dropped_while_the_program_runs_threads():
    stop, span = threading.Event(), []

    def threaded():
        worker = threading.Thread(target=stop.wait)
        worker.start()
        span.append(time.perf_counter())
        time.sleep(0.3)
        span.append(time.perf_counter())
        stop.set()
        worker.join()
    dropped = run.CLOCK.dropped
    op = workloads.Op(id="threads", run=threaded, check=lambda out: None, deadline_s=5)
    outcome = run.run_op(op)
    assert not outcome.failed and run.CLOCK.dropped >= dropped + 3
    assert not [t for t in run.CLOCK.times if span[0] <= t <= span[1]]
    assert outcome.norm > 0  # scaled by the samples taken before the op


def test_uninstall_restores_every_binding():
    originals = {(mod, key): val for mod in (mosaichash.verify, mosaichash.designs, mosaichash.cli,
                                            mosaichash.privacy, mosaichash.construct)
                 for key, val in vars(mod).items() if callable(val)}
    add, to_table = mosaichash.Field.add, mosaichash.HashFamily.to_table
    tracer = spans.Tracer()
    tracer.install()
    assert mosaichash.cli.classify is mosaichash.designs.classify
    assert mosaichash.cli.classify is not originals[(mosaichash.verify, "classify")]
    tracer.uninstall()
    for (mod, key), val in originals.items():
        assert getattr(mod, key) is val
    assert mosaichash.Field.add is add and mosaichash.HashFamily.to_table is to_table


def test_self_time_and_recursion():
    t = spans.Tracer()
    t.op = "op"
    t.spans = [["privacy.run_pa", 0.0, 10.0, -1, "op", "ok", None],
               ["privacy.pa_joint", 1.0, 4.0, 0, "op", "ok", {"cells": 12}],
               ["families.to_table", 2.0, 3.0, 1, "op", "ok", {"entries": 6, "family": t}],
               ["privacy.iid_extend", 5.0, 9.0, 0, "op", "ok", None],
               ["privacy.iid_extend", 6.0, 8.0, 3, "op", "ok", None],
               ["families.to_table", 11.0, 12.0, -1, "other op", "ok", {"entries": 6, "family": t}]]
    m = t.layer_metrics({"op"}, t.counters(), t.counters())
    assert m["privacy.run_pa.self_s"] == 3.0  # 10 minus its children pa_joint (3) and iid_extend (4)
    assert m["privacy.iid_extend.s"] == 4.0  # a nested call of the same name is not added again
    assert m["privacy.joint_cells"] == 12
    assert m["families.to_table.calls"] == 1 and m["families.to_table.unique_ratio"] == 1.0


def test_harrell_davis_quantile():
    assert run.hd_quantile([1, 2, 3, 4, 5], 0.5) == pytest.approx(3)
    assert run.hd_quantile([7] * 9, 0.9) == pytest.approx(7)
    # the middle op moving across a gap moves the plain median by 6, the estimate by far less
    before, after = [1, 2, 3, 10, 11, 12, 13], [1, 2, 3, 4, 11, 12, 13]
    assert abs(run.hd_quantile(before, 0.5) - run.hd_quantile(after, 0.5)) < 3


def test_short_ops_repeat_and_report_the_median():
    calls = []
    op = workloads.Op(id="short", run=lambda: calls.append(1), check=lambda out: None,
                      deadline_s=5)
    once, repeated = run.run_op(op), run.run_op(op, repeat=True)
    assert len(calls) == 1 + run.REPEAT_MAX and not once.failed and not repeated.failed


def test_deadline_stops_an_op():
    op = workloads.Op(id="spin", run=lambda: all(True for _ in iter(int, 1)), check=lambda out: None,
                      deadline_s=0.2)
    start = time.perf_counter()
    outcome = run.run_op(op)
    assert outcome.status == "deadline" and time.perf_counter() - start < 2


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert name.match(m["name"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ladder", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
