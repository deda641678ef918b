"""Benchmark of ionsynth: one workload per run, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload design --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --repeat 5      # steadiness report

The last line of a single run is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md in this
directory for the metrics, the workloads and the layer map.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before NumPy loads: every workload is single-threaded.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, ".out")
# An untraced run splits its time over this many fresh worker processes, one
# after another.  Timings differ more between processes than within one, so
# pooling several processes per run is what keeps the medians steady.
WORKERS = 5
END_TO_END = {"setup_s": "s", "op_s.p50": "s", "op_s.mix": "s", "peak_rss_mb": "MB"}


def _import_program() -> None:
    """Import ionsynth from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, SRC)
    import ionsynth

    if os.path.dirname(os.path.dirname(os.path.abspath(ionsynth.__file__))) != SRC:
        sys.exit(f"error: imported ionsynth from {ionsynth.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def worker(workload: str, seed: int, seconds: float, trace: bool, index: int) -> None:
    """One fresh process: set up, run the timed loop, print one JSON line.

    Worker 0 also runs the once-per-run output checks.
    """
    _import_program()
    import workloads
    from calibrate import Kernel
    from spans import Tracer, summarize

    tracer = Tracer() if trace else None
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    try:
        if tracer:
            tracer.install()
            root = tracer.open("bench.setup", "bench")
        try:
            state = workloads.setup(workload, seed, workloads.Config(), workdir, index)
        finally:
            if tracer:
                tracer.close(root)
                tracer.uninstall()
        ready = time.monotonic()
        result = workloads.run_loop(state, seconds, tracer, Kernel())
        if index == 0:
            workloads.check(state, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {
        "ready": ready,
        "ops": [dataclasses.asdict(op) for op in result.ops],
        "check_errors": result.check_errors,
        "calibration_s": statistics.median(result.calibration_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        traced_ops = sum(1 for op in result.ops if op.traced)
        out["layer"] = summarize(tracer, traced_ops)
        out["layer"]["trace.overhead_s"], out["layer"]["trace.overhead_ratio"] = (
            workloads.trace_overhead(result.ops)
        )
        os.makedirs(OUT, exist_ok=True)
        out["spans"] = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
        tracer.write(out["spans"], {"workload": workload, "seed": seed, "environment": environment()})
    print(json.dumps(out))


def _spawn_worker(workload: str, seed: int, seconds: float, trace: bool, index: int) -> tuple[float, dict]:
    """Run one worker; returns its set-up time (spawn to ready) and its report."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(int(trace)), "--worker", str(index)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: worker {index} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["wall_s"] = time.monotonic() - start
    return report["ready"] - start, report


def _fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    import workloads

    env = environment()
    workers = 1 if trace else WORKERS
    print(f"workload: {workload}  seed: {seed}  seconds: {seconds}  trace: {int(trace)}  "
          f"workers: {workers}")
    print("environment: " + json.dumps(env))
    setup_times, reports = [], []
    for index in range(workers):
        setup_s, report = _spawn_worker(workload, seed, seconds / workers, trace, index)
        setup_times.append(setup_s)
        reports.append(report)
    # Scale each worker's timings to the reference machine speed.
    scales = [REFERENCE_S / r["calibration_s"] for r in reports]
    print("machine speed per worker (calibration kernel, reference = 1): "
          + ", ".join(f"{s:.3f}" for s in scales))
    print("worker wall times: " + ", ".join(f"{r['wall_s']:.3g} s" for r in reports))
    ops = [workloads.Op(**op) for r in reports for op in r["ops"]]
    raw = workloads.summarize(ops, None)["op_s"]
    print(f"raw op_s: mean {_fmt(raw['mean'])} s  p50 {_fmt(raw['p50'])} s  (not normalised)")
    raw_setup = statistics.median(setup_times)
    setup_times = [t * k for t, k in zip(setup_times, scales)]
    ops = [
        dataclasses.replace(workloads.Op(**op), **{f: op[f] * k for f in ("compile_s", "verify_s", "total_s")})
        for r, k in zip(reports, scales) for op in r["ops"]
    ]
    check_errors = [e for r in reports for e in r["check_errors"]]
    peak_rss_mb = max(r["peak_rss_mb"] for r in reports)
    trials = workloads.Config().sweep_trials if workload == "sweep" else None
    summary = workloads.summarize(ops, trials)

    unit = "row" if workload == "sweep" else "compile->verify pair"
    print(f"operation: one {unit}; attempted {summary['attempted']}, failed {summary['failed']}, "
          f"failed_ratio {summary['failed_ratio']:.6g}")
    for message, count in sorted(summary["errors"].items()):
        print(f"  failed x{count}: {message}")
    for message in check_errors:
        print(f"  check failed: {message}")
    print(f"setup_s: {statistics.median(setup_times):.6g} s (median of {len(setup_times)} fresh "
          "processes: " + ", ".join(f"{t:.4g}" for t in setup_times) + f"; raw {raw_setup:.4g} s)")
    for kind in ("op_s", "compile_s", "verify_s", "row_s"):
        if kind in summary:
            d = summary[kind]
            short = "" if d["n"] >= 100 else " (p90 below 100 samples)"
            mix = f"mix {_fmt(d['mix'])} s  " if kind == "op_s" else ""
            print(f"{kind}: {mix}mean {_fmt(d['mean'])} s  p50 {_fmt(d['p50'])} s  "
                  f"p75 {_fmt(d['p75'])} s  p90 {_fmt(d['p90'])} s  n={d['n']}{short}")
    if "trials_per_s" in summary:
        print(f"trials_per_s: {summary['trials_per_s']:.6g} 1/s")
    print(f"peak_rss_mb: {peak_rss_mb:.6g} MB")

    correct = not check_errors and not any(op.check_failed for op in ops)
    if trace:
        layer = reports[0]["layer"]
        if layer["trace.self_sum_error_s"] > 1e-9:
            correct = False
            print(f"check failed: layer self times miss the request time by "
                  f"{layer['trace.self_sum_error_s']:.3g} s")
        traced_ops = sum(1 for op in ops if op.traced)
        print(f"traced operations: {traced_ops} (per-layer values are per traced operation)")
        for name, value in layer.items():
            print(f"  {name}: {_fmt(value)} {_layer_unit(name)}")
        print(f"spans: {reports[0]['spans']}")
        metrics = {
            name: {"value": 0.0 if value is None else value, "unit": _layer_unit(name)}
            for name, value in layer.items()
        }
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "op_s.p50": summary["op_s"]["p50"],
            "op_s.mix": summary["op_s"]["mix"],
            "peak_rss_mb": peak_rss_mb,
        }
        if None in values.values():
            correct = False
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items() if v is not None}
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("us_per_pulse"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def repeat(names: list[str], seed: int, seconds: float, n: int) -> int:
    """Run each workload n times with seeds seed..seed+n-1 and report the spread."""
    report = {}
    for workload in names:
        runs = []
        for k in range(n):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed + k), "--seconds", repr(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600, cwd=ROOT,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr)
                return proc.returncode
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed + k}: "
                  + "  ".join(f"{m}={v['value']:.5g}" for m, v in runs[-1]["metrics"].items())
                  + f"  failed={runs[-1]['failed']}/{runs[-1]['attempted']}"
                  + ("" if runs[-1]["correct"] else "  INCORRECT"), flush=True)
        if n < 2:
            continue
        report[workload] = {}
        for metric, unit in END_TO_END.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            report[workload][metric] = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}
            print(f"  {workload} {metric}: median {q2:.5g} {unit}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {(q3 - q1) / q2:.2%}")
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("design", "ld-scan", "sweep", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times and print the median and "
                             "quartiles of every end-to-end metric")
    parser.add_argument("--worker", type=int, default=-1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ionsynth", "__init__.py")):
        sys.exit(f"error: no ionsynth sources at {SRC}; run from the root of a checkout")
    if args.worker >= 0:
        worker(args.workload, args.seed, args.seconds, bool(args.trace), args.worker)
        return 0
    names = ["design", "ld-scan", "sweep"] if args.workload == "all" else [args.workload]
    if args.repeat or len(names) > 1:
        return repeat(names, args.seed, args.seconds, max(args.repeat, 1))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
