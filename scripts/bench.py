"""Perf benchmark driver: time the simulator hot paths, record the
trajectory, and gate on the headline speedups.

Runs the :mod:`repro.harness.perf` suite — functional LSTM/GRU execution
on the vectorized interpreter, compiled program replay (sequential and
batched vs. the vectorized interpreter), dynamic-batching goodput,
timing-simulator scheduling, and BFP quantization on the Table IV
configs — prints a comparison table, and writes ``BENCH_perf.json`` at
the repository root::

    PYTHONPATH=src python scripts/bench.py            # full suite
    PYTHONPATH=src python scripts/bench.py --quick    # CI smoke subset

Exits non-zero if, on the headline h=1024 LSTM (BW_S10): compiled replay
misses its speedup floor over the vectorized interpreter, batch=16
replay misses its aggregate-throughput floor, or dynamic batching
misses its goodput floor over the batch-1 server (relaxed floors under
``--quick``; see the gate constants in :mod:`repro.harness.perf`). See
docs/PERFORMANCE.md for how to read the numbers. ``repro bench`` is an
equivalent entry point.

Timings are taken with one BLAS thread: ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` default to 1 before numpy is first imported (an
explicit setting in the environment wins), and the payload records the
value as ``blas_threads``.
"""

import argparse
import json
import os
import pathlib
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from repro.harness.perf import (headline_gates, render_table,  # noqa: E402
                                results_from_json, run_suite)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workloads / fewer repeats (CI smoke)")
    parser.add_argument("--output", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_perf.json",
                        help="output JSON path (default: repo root)")
    args = parser.parse_args(argv)

    payload = run_suite(quick=args.quick)
    payload["blas_threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
    results = results_from_json(payload)
    print(render_table(results))

    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    head = payload["headline"]
    workload = (f"headline {head['kind']} h={head['hidden']} on "
                f"{head['config']}")
    rc = 0
    for label, speedup, floor in headline_gates(results, args.quick):
        if speedup is None:
            print(f"{workload}: {label} missing from results",
                  file=sys.stderr)
            rc = max(rc, 2)
            continue
        print(f"{workload}: {label} is {speedup:.2f}x (floor {floor}x)")
        if speedup < floor:
            print(f"FAIL: {label} below the {floor}x floor",
                  file=sys.stderr)
            rc = max(rc, 1)
    return rc


if __name__ == "__main__":
    sys.exit(main())
