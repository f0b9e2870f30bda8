"""Benchmark of mosaichash: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
provenance, every op's outcome and computed work counts, and the known
seed defects.  See bench/README.md for the workloads and metrics.
"""

import os

# One BLAS thread, set before numpy loads; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any

from clock import CLOCK, OpDeadline

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_DEADLINE_S = 150
REPEAT_UNTIL_S = 0.25  # in-process passes repeat an op until its calls took this long
REPEAT_MAX = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ok_frac": "ratio", "peak_rss_mb": "MB",
                    "latency_p50_s": "s", "latency_p90_s": "s"}


@dataclass
class Outcome:
    op: Any
    latency: float  # raw seconds
    status: str  # "ok", "deadline", "raised <Type>", or "wrong: <reason>" after checking
    out: Any = None
    mode: str = "untraced"
    norm: float = 0.0  # seconds at the reference speed; raw for an op stopped by its deadline
    counters: dict | None = None  # traced pass: hot-function calls made by this op

    @property
    def failed(self):
        return self.status != "ok"


def run_once(op, fn=None):
    """Time one call of an op under its deadline; collect its output untimed.

    A full garbage collection ends the timed call, so each op pays for the
    cyclic garbage it leaves and for none that another left.
    """
    CLOCK.sample_between_ops()
    status, raw = "ok", None
    t0 = time.perf_counter()
    try:
        CLOCK.set_deadline(op.deadline_s)
        try:
            raw = (fn or op.run)()
        finally:
            CLOCK.set_deadline(None)
    except OpDeadline:
        status = "deadline"
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        status = f"raised {type(exc).__name__}"
    gc.collect()
    t1 = time.perf_counter()
    norm = t1 - t0 if status == "deadline" else CLOCK.at_reference(t0, t1)
    out = op.collect(raw) if status == "ok" else None
    if out is not None:
        status = op.failure(out) or status
    return Outcome(op, t1 - t0, status, out, norm=norm)


def run_op(op, fn=None, repeat=False):
    """One op; with repeat, an op under REPEAT_UNTIL_S runs again, up to REPEAT_MAX
    times, and reports the median of its calls, because a short op's single time
    is mostly noise.  The first call's output is the one checked."""
    calls = [run_once(op, fn)]
    while (repeat and not calls[-1].failed and len(calls) < REPEAT_MAX
           and sum(c.latency for c in calls) < REPEAT_UNTIL_S):
        calls.append(run_once(op, fn))
    first = calls[0]
    if not first.failed and len(calls) > 1:
        first.latency = statistics.median(c.latency for c in calls)
        first.norm = statistics.median(c.norm for c in calls)
        first.status = next((c.status for c in calls if c.failed), "ok")
    return first


def run_pass(ops, fn_for=None, tracer=None, mode="untraced", repeat=False):
    """One pass over ops; returns (raw wall, outcomes)."""
    outcomes = []
    t0 = time.perf_counter()
    for op in ops:
        if tracer:
            tracer.op = op.id
            before = tracer.counters()
        outcome = run_op(op, fn_for(op) if fn_for else None, repeat)
        outcome.mode = mode
        if tracer:
            outcome.counters = {k: v - before[k] for k, v in tracer.counters().items()}
        outcomes.append(outcome)
    return time.perf_counter() - t0, outcomes


def run_passes(ops, seconds, repeat):
    """Whole passes until another would end after `seconds`; at least one."""
    walls, passes = [], []
    start = time.perf_counter()
    while True:
        wall, outcomes = run_pass(ops, repeat=repeat)
        walls.append(wall)
        passes.append(outcomes)
        if time.perf_counter() - start + wall > seconds:
            return walls, passes


def check_outcomes(outcomes):
    for o in outcomes:
        if o.status != "ok":
            continue
        try:
            reason = o.op.check(o.out)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            o.status = "wrong: " + reason


def surprises(outcomes):
    """Failed outcomes other than a known defect failing in its known way."""
    return [o for o in outcomes
            if o.failed and not (o.op.known_defect and o.op.known_defect.matches(o.status))]


def fresh_process_times(argv, n, work_dir):
    """Raw and reference-speed seconds of n fresh interpreters, one at a time,
    each from spawn to exit."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    err_path = os.path.join(work_dir, ".probe.stderr")
    raw, ref = [], []
    for _ in range(n):
        CLOCK.sample_between_ops()
        t0 = time.perf_counter()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                    stderr=err, stdin=subprocess.DEVNULL)
        CLOCK.set_deadline(PROBE_DEADLINE_S)  # past it, OpDeadline kills the child and ends the run
        try:
            code, _ = CLOCK.wait_child(proc)
        finally:
            CLOCK.set_deadline(None)
        t1 = time.perf_counter()
        if code != 0:
            with open(err_path, "rb") as err:
                raise RuntimeError(f"{argv[1:]} exited {code}: "
                                   f"{err.read().decode(errors='replace')[-400:]}")
        raw.append(t1 - t0)
        ref.append(CLOCK.at_reference(t0, t1))
    return raw, ref


def hd_quantile(values, p, steps=64):
    """Harrell-Davis estimate of the p-quantile: every order statistic weighted by
    the Beta(p(n+1), (1-p)(n+1)) mass of its slot, so the estimate does not jump
    when two ops with far-apart latencies trade places next to the quantile."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        ts = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                           for t in ts))
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine_settings": "unchanged: no cache drops, no system-wide tracing; "
                            "only this process and its children are measured",
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def untraced(args, work_dir):
    """End-to-end metrics from untraced passes over the workload's op list."""
    import workloads

    probe = [sys.executable, os.path.join(BENCH, "run.py"), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)]
    setup_raw, setup_times = fresh_process_times(probe, SETUP_PROBES, work_dir)
    wl = workloads.build(args.workload, args.seed, ROOT, work_dir)
    gc.collect()
    gc.freeze()  # the inputs live for the whole run; keep them out of every collection
    walls, passes = run_passes(wl.ops, args.seconds, repeat=wl.in_process)
    if wl.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(o.out.maxrss_kb for p in passes for o in p if o.out is not None)
    outcomes = [o for p in passes for o in p]
    check_outcomes(outcomes)
    per_op = [statistics.median(p[i].norm for p in passes) for i in range(len(wl.ops))]
    p50, p90 = hd_quantile(per_op, 0.5), hd_quantile(per_op, 0.9)
    failed = sum(o.failed for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(o.norm for o in p) for p in passes),
        "ok_frac": 1 - failed / len(outcomes),
        "peak_rss_mb": peak_kb / 1024,
        "latency_p50_s": p50,
        "latency_p90_s": p90,
    }
    notes = {"raw_setup_probe_s": setup_raw, "raw_pass_wall_s": walls, "passes": len(passes),
             "latency_samples": f"{len(wl.ops)} ops, each the median of {len(passes)} passes",
             "speed_kernel_median_s": statistics.median(CLOCK.kernel_s),
             "peak_rss_of": "this process" if wl.in_process else "the largest cli child"}
    return wl, outcomes, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def traced(args, work_dir):
    """Per-layer metrics from one traced pass, plus an untraced pass for the overhead.

    The cli workload first runs its ops as subprocesses (exit codes and
    latency), then both passes call ``cli.main`` in this process.
    """
    import spans
    import workloads

    import_times, _ = fresh_process_times([sys.executable, "-c", "import mosaichash.cli"],
                                          IMPORT_PROBES, work_dir)
    tracer = spans.Tracer()
    tracer.install()
    tracer.op = "setup"
    wl = workloads.build(args.workload, args.seed, ROOT, work_dir)
    tracer.uninstall()
    gc.collect()
    gc.freeze()
    metrics = {f"cli.exit.{k}": 0 for k in ("0", "1", "2", "other")}
    metrics["cli.overhead_s"] = 0.0
    outcomes, runner = [], {True: None, False: None}
    if not wl.in_process:
        _, sub = run_pass(wl.ops, mode="subprocess")
        outcomes += sub
        for o in sub:
            code = o.out.code if o.out is not None else None
            metrics[f"cli.exit.{code if code in (0, 1, 2) else 'other'}"] += 1

        def span(main, argv):
            return tracer.call(f"cli.main.{argv_command(argv)}", main, argv)

        runner = {True: lambda op: wl.cli.inprocess_op(op.argv, span),
                  False: lambda op: wl.cli.inprocess_op(op.argv)}
    tracer.install()
    before = tracer.counters()
    wall_traced, traced_out = run_pass(wl.ops, runner[True], tracer, mode="traced")
    after = tracer.counters()
    tracer.uninstall()
    wall_plain, plain_out = run_pass(wl.ops, runner[False], mode="untraced")
    outcomes += traced_out + plain_out
    check_outcomes(outcomes)
    if not wl.in_process:
        gaps = [s.latency - p.latency for s, p in zip(sub, plain_out)
                if not s.failed and not p.failed]
        metrics["cli.overhead_s"] = statistics.median(gaps)
        for s, t in zip(sub, traced_out):
            if not s.failed and not t.failed and s.out.stdout != t.out.stdout:
                t.status = "wrong: in-process JSON differs from the subprocess JSON"
    metrics.update(tracer.layer_metrics({op.id for op in wl.ops}, before, after))
    metrics["cli.import_s"] = statistics.median(import_times)
    metrics["trace.overhead_s"] = sum(o.norm for o in traced_out) - sum(o.norm for o in plain_out)
    with open(os.path.join(work_dir, "spans.json"), "w") as fh:
        json.dump(tracer.dump(), fh)
    notes = {"traced_wall_s": wall_traced, "untraced_wall_s": wall_plain,
             "cli_import_probe_s": import_times, "spans": len(tracer.spans),
             "spans_file": os.path.relpath(os.path.join(work_dir, "spans.json"), ROOT)}
    return wl, outcomes, {k: (metrics[k], u) for k, u in spans.PER_LAYER.items()}, notes


def argv_command(argv):
    return next(a for a in argv if a in ("family", "verify", "design", "construct", "pa"))


def report(wl, outcomes, notes, args):
    print(f"# mosaichash benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    print("# run " + json.dumps(notes, sort_keys=True))
    print("# ops (latency: median over the op's first-mode runs, raw and at the reference "
          "speed; work counts are computed from the inputs)")
    for op in wl.ops:
        mine = [o for o in outcomes if o.op is op]
        bad = sorted({f"{o.mode}: {o.status}" for o in mine if o.failed})
        first = [o for o in mine if o.mode == mine[0].mode]
        lat = statistics.median(o.latency for o in first)
        ref = statistics.median(o.norm for o in first)
        flag = "KNOWN DEFECT " if op.known_defect else ""
        ok = sum(not o.failed for o in mine)
        counted = next((o.counters for o in mine if o.counters), None)
        print(f"#   {lat:9.4f} s raw {ref:9.4f} s ref  {ok}/{len(mine)} ok  "
              f"{op.id}  work(computed)={json.dumps(op.work, sort_keys=True)}"
              + (f"  traced counters={json.dumps(counted)}" if counted else "")
              + (f"  {flag}{'; '.join(bad)}" if bad else ""))
    known = [op for op in wl.ops if op.known_defect]
    known_failed = sum(o.failed for o in outcomes if o.op.known_defect)
    runs = len(outcomes) // len(wl.ops)
    print(f"# known seed defects: {len(known)} ops per pass, so {len(known) * runs} expected "
          f"failures at the seed over {runs} passes; observed {known_failed}")
    for op in known:
        print(f"#   {op.id}: {op.known_defect.what} (expected status: {op.known_defect.status})")
    unexpected = surprises(outcomes)
    for o in unexpected:
        print(f"# UNEXPECTED FAILURE {o.mode} {o.op.id}: {o.status}")
    return not unexpected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mosaichash", "__init__.py")):
        print("error: run from the root of a mosaichash checkout; src/mosaichash is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import mosaichash

    if not os.path.abspath(mosaichash.__file__).startswith(src + os.sep):
        print(f"error: imported mosaichash from {mosaichash.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    work_dir = os.path.join(ROOT, ".bench_work", args.workload + ("-setup" if args.setup_only else ""))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    if args.setup_only:
        workloads.build(args.workload, args.seed, ROOT, work_dir)
        return 0

    CLOCK.start()
    try:
        wl, outcomes, metrics, notes = (traced if args.trace else untraced)(args, work_dir)
    finally:
        CLOCK.stop()
    notes["threads_in_process"] = threading.active_count()
    notes["speed_samples_dropped_for_threads"] = CLOCK.dropped
    correct = report(wl, outcomes, notes, args)
    failed = sum(o.failed for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
