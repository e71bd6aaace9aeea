"""End-to-end serving benchmark of the repro package, in both clocks.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
        [--seconds T] [--repeat R] [--trace [0|1]] [--smoke] [--out FILE]

Every workload runs in its own fresh child process, so ``setup_s`` and
``peak_rss_mb`` are per workload.  A child sets its workload up several
times (``setup_s`` is the median), measures it for ``--seconds`` of
host time with tracing off, and verifies its outputs.  Host times are
reported at a reference host speed (``calibrate.py``).  A ``--trace``
run reports no end-to-end metrics: the child splits its seconds into
an untraced half, which only gives the untraced throughput the tracing
overhead is judged against, and a traced half whose spans give the
per-layer metrics (``spans.py``) and whose outputs must equal the
untraced half's.  ``--repeat`` runs every workload R
times, interleaved.

The metric names, units and directions, the workloads' reasons and the
default ``--seconds`` come from ``BENCHMARK.json``.  The command prints
every metric as ``workload metric value unit``, writes per-repeat
values, medians, min/max spread, wall times and a host fingerprint to
``--out``, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics, or with ``--trace`` the per-layer ones.  It exits
non-zero if any output check failed.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Simulated-clock results, deterministic for a seed:
#: ``name -> (unit, better)``.  Not every workload has every one.
SIMULATED = {
    "sim.latency_ms_p50": ("sim_ms", "lower"),
    "sim.latency_ms_p90": ("sim_ms", "lower"),
    "sim.latency_ms_p99": ("sim_ms", "lower"),
    "sim.goodput_rps": ("req/sim_s", "higher"),
    "sim.slo_attainment": ("fraction", "higher"),
}

#: A child is stopped after this many seconds.
CHILD_TIMEOUT_S = 170

#: Timed operations a smoke phase runs at least — requests (b1
#: serving), passes over the trace (batched serving) or trace runs
#: (cluster) — in place of the workload's ``min_ops``.
SMOKE_FLOOR = {"serving": 3, "cluster": 2}

#: Smoke mode shrinks the open-loop traces to these request counts.
SMOKE_REQUESTS = 8, 20_000


# ---------------------------------------------------------------------------
# Child: one workload in a fresh process
# ---------------------------------------------------------------------------

def _setups(workload, seed: int, smoke: bool, calibrator):
    """Set the workload up several times; returns the last state, the
    raw durations and the durations scaled to the reference host speed
    (by the mean slowdown of the calibration points around each).

    At least three set-ups, and up to nine while they take under 1.5 s
    together.  Each earlier state is dropped before the next set-up, so
    peak memory holds one set-up, not several.
    """
    raw, scaled = [], []
    start = time.perf_counter()
    while True:
        state = None
        gc.collect()
        calibrator.point()
        before = calibrator.slowdown
        t0 = time.perf_counter()
        state = workload.setup(seed)
        raw.append(time.perf_counter() - t0)
        calibrator.point()
        scaled.append(raw[-1] * 2 / (before + calibrator.slowdown))
        n = len(raw)
        if smoke or (n >= 3 and (n >= 9
                                 or time.perf_counter() - start >= 1.5)):
            return state, raw, scaled


def _smoke(workload):
    small = copy.copy(workload)
    if hasattr(small, "requests"):
        small.requests = SMOKE_REQUESTS[small.kind == "cluster"]
    return small


def child(name: str, seed: int, seconds: float, traced: bool,
          smoke: bool, trace_path: str) -> dict:
    """Run one workload in this process; returns its raw results."""
    import resource

    import numpy as np
    import repro  # noqa: F401  (set-up is timed from after this import)

    import verify
    import workloads
    from calibrate import Calibrator
    workload = workloads.WORKLOADS[name]
    if smoke:
        workload = _smoke(workload)
    floor = workload.min_ops
    if smoke:
        floor = min(floor, SMOKE_FLOOR[workload.kind])
    elif traced:
        floor = workload.traced_ops
    phase_s = 0.0 if smoke else seconds / 2 if traced else seconds

    calibrator = Calibrator(workload.kernels)
    state, setup_raw, setup_s = _setups(workload, seed, smoke, calibrator)
    measured = workload.run(state, seed, phase_s, floor, calibrator)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = measured.attempted, measured.failed
    errors = list(measured.errors)
    if workload.kind == "serving":
        problems = verify.verify_kept(state["compiled"], measured.kept)
        attempted += len(state["warmups"])
        failed += len(problems)
        errors += problems

    def stats(setups, ms, seconds):
        samples = np.asarray(ms or [float("nan")])
        return {"setup_s": float(statistics.median(setups)),
                "host_ms_p50": float(np.percentile(samples, 50)),
                "host_ms_p90": float(np.percentile(samples, 90)),
                "host_rps": measured.requests / seconds}

    result = {
        "workload": name, "seed": seed, "numpy": np.__version__,
        "samples": {"setups": len(setup_s), "host": len(measured.host_ms)},
        "calibration": calibrator.summary(),
        "sim": measured.sim,
    }
    if not traced:
        result.update(
            raw=stats(setup_raw, measured.raw_ms, measured.raw_s),
            end_to_end=dict(stats(setup_s, measured.host_ms,
                                  measured.host_s), peak_rss_mb=rss_mb))
    else:
        import spans
        untraced_rps = measured.requests / measured.host_s
        state = None
        gc.collect()
        recorder = spans.SpanRecorder()
        extra = ({"reference": measured.reference}
                 if measured.reference is not None else {})
        with spans.installed(recorder):
            state = workload.setup(seed)
            recorder.region = "timed"
            traced_run = workload.run(state, seed, phase_s, floor,
                                      calibrator, recorder=recorder,
                                      **extra)
        if traced_run.sim != measured.sim:
            traced_run.fail(1, "tracing changed the simulated results")
        if not verify.same_kept(measured.kept, traced_run.kept):
            traced_run.fail(1, "tracing changed the served outputs")
        overhead = 1.0 - (traced_run.requests / traced_run.host_s
                          / untraced_rps)
        metrics, detail = spans.layer_metrics(recorder, traced_run,
                                              overhead)
        recorder.write_chrome(trace_path)
        attempted += traced_run.attempted
        failed += traced_run.failed
        errors += traced_run.errors
        names = [m["name"] for m in BENCH["per_layer"]]
        result.update(per_layer={n: metrics.get(n, 0.0) for n in names},
                      not_reached=[n for n in names if n not in metrics],
                      untraced_host_rps=untraced_rps,
                      detail={k: list(v) for k, v in detail.items()},
                      reconciliation=recorder.reconciliation(),
                      absent=recorder.absent, chrome_trace=trace_path)
    result.update(attempted=attempted, failed=failed, errors=errors[:20])
    return result


# ---------------------------------------------------------------------------
# Parent: spawn, aggregate, report
# ---------------------------------------------------------------------------

def _spawn(name: str, args, trace_path: pathlib.Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--child", name,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--trace-file", str(trace_path)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # A fixed string-hash seed gives every child the same dict and set
    # layout, which halves the run-to-run spread of host times.
    env["PYTHONHASHSEED"] = "0"
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {name} did not finish within "
                         f"{CHILD_TIMEOUT_S} s")
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {name} exited with code "
                         f"{proc.returncode}")
    print(f"{name}: child ran {wall_s:.1f} s wall", file=sys.stderr)
    return dict(json.loads(lines[-1]), wall_s=wall_s)


def _spread(values) -> dict:
    med = statistics.median(values)
    iqr = 0.0
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return {"values": values, "median": med, "min": min(values),
            "max": max(values),
            "iqr_over_median": iqr / med if med else 0.0}


def _fingerprint(args, numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    blas_env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {"cpu": cpu, "nproc": os.cpu_count(), "affinity": affinity,
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform(),
            "blas_threads_env": {k: os.environ.get(k) for k in blas_env},
            "git_sha": sha, "seed": args.seed}


def summarise(runs: dict, args) -> dict:
    """Aggregate per-repeat child results into the results document."""
    why = {w["name"]: w["why"] for w in BENCH["workloads"]}
    out = {}
    for name, results in runs.items():
        entry = {"why": why[name],
                 "repeats": len(results),
                 "wall_s": [r["wall_s"] for r in results],
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "errors": [e for r in results for e in r["errors"]][:20],
                 "sim": {}}
        if not args.trace:
            entry["end_to_end"] = {
                m["name"]: dict(unit=m["unit"], better=m["better"],
                                **_spread([r["end_to_end"][m["name"]]
                                           for r in results]))
                for m in BENCH["end_to_end"]}
            entry["raw"] = {metric: _spread([r["raw"][metric]
                                             for r in results])
                            for metric in results[0]["raw"]}
        entry["samples"] = [r["samples"] for r in results]
        entry["calibration"] = [r["calibration"] for r in results]
        first = results[0]["sim"]
        if any(r["sim"] != first for r in results[1:]):
            entry["failed"] += 1
            entry["errors"].append("simulated results differ between "
                                   "repeats of one seed")
        for metric, value in first.items():
            if metric in SIMULATED:
                unit, better = SIMULATED[metric]
                entry["sim"][metric] = {
                    "unit": unit, "better": better, "value": value,
                    "values": [r["sim"].get(metric) for r in results]}
        if args.trace:
            entry["per_layer"] = {
                m["name"]: dict(unit=m["unit"], better=m["better"],
                                **_spread([r["per_layer"][m["name"]]
                                           for r in results]))
                for m in BENCH["per_layer"]}
            entry["not_reached"] = results[0]["not_reached"]
            entry["untraced_host_rps"] = [r["untraced_host_rps"]
                                          for r in results]
            entry["detail"] = {
                metric: {"unit": unit,
                         "values": [r["detail"][metric][0]
                                    for r in results]}
                for metric, (_, unit) in results[0]["detail"].items()}
            entry["reconciliation"] = [r["reconciliation"]
                                       for r in results]
            entry["absent"] = results[0]["absent"]
            entry["chrome_traces"] = [
                os.path.relpath(r["chrome_trace"], ROOT) for r in results]
            for rec in entry["reconciliation"]:
                if rec["reconcile_error"] > 0.05:
                    entry["failed"] += 1
                    entry["errors"].append(
                        "traced self times do not reconcile with the "
                        f"wall total: {rec}")
        out[name] = entry
    return out


def _print_lines(doc: dict, trace_mode: bool) -> None:
    for name, entry in doc["workloads"].items():
        for metric, row in entry.get("end_to_end", {}).items():
            print(f"{name} {metric} {row['median']!r} {row['unit']}")
        for metric, row in entry["sim"].items():
            print(f"{name} {metric} {row['value']!r} {row['unit']}")
        if trace_mode:
            for metric, row in entry["per_layer"].items():
                print(f"{name} {metric} {row['median']!r} {row['unit']}")
            for metric, row in entry["detail"].items():
                values = [v for v in row["values"]
                          if isinstance(v, (int, float))]
                value = (repr(statistics.median(values)) if values
                         else "absent" if "absent" in row["values"]
                         else "n/a")
                print(f"{name} {metric} {value} {row['unit']}")
        for error in entry["errors"]:
            print(f"{name} error: {error}", file=sys.stderr)


def _result_line(doc: dict, trace_mode: bool) -> dict:
    section = "per_layer" if trace_mode else "end_to_end"
    single = len(doc["workloads"]) == 1
    metrics = {}
    for name, entry in doc["workloads"].items():
        for metric, row in entry[section].items():
            key = metric if single else f"{name}:{metric}"
            metrics[key] = {"value": row["median"], "unit": row["unit"]}
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(
        description="End-to-end serving benchmark (host and simulated "
                    "clocks).")
    parser.add_argument("--workload", action="extend", nargs="+",
                        choices=sorted(workloads.WORKLOADS),
                        help="workloads to run (default: all five)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of every generated input and trace")
    parser.add_argument("--seconds", type=float,
                        default=float(BENCH["run_seconds"]),
                        help="host seconds each run measures")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, interleaved")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="traced run: report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="a few operations per workload, no timing "
                             "loop (self-test)")
    parser.add_argument("--out", type=pathlib.Path,
                        default=HERE / "out" / "results.json",
                        help="results JSON (Chrome traces go beside it)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.repeat < 1 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0, --repeat >= 1")

    if args.child:
        result = child(args.child, args.seed, args.seconds,
                       bool(args.trace), args.smoke, args.trace_file)
        print(json.dumps(result))
        return 0

    # Turn a termination request into an exception, so the running
    # child is killed and waited for before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    names = list(dict.fromkeys(args.workload or workloads.WORKLOADS))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    runs = {name: [] for name in names}
    start = time.perf_counter()
    for r in range(args.repeat):
        for name in names:
            chrome = args.out.with_name(
                f"{args.out.stem}.{name}.{r}.trace.json")
            runs[name].append(_spawn(name, args, chrome))
    wall_s = time.perf_counter() - start
    print(f"all runs: {wall_s:.1f} s wall", file=sys.stderr)
    numpy_version = runs[names[0]][0]["numpy"]
    doc = {"benchmark": "e2e",
           "fingerprint": _fingerprint(args, numpy_version),
           "settings": {"seed": args.seed, "seconds": args.seconds,
                        "repeat": args.repeat, "trace": args.trace,
                        "smoke": args.smoke},
           "wall_s": wall_s,
           "workloads": summarise(runs, args)}
    doc["attempted"] = sum(e["attempted"] for e in doc["workloads"].values())
    doc["failed"] = sum(e["failed"] for e in doc["workloads"].values())
    doc["correct"] = doc["failed"] == 0
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
    _print_lines(doc, bool(args.trace))
    print(json.dumps(_result_line(doc, bool(args.trace))))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
