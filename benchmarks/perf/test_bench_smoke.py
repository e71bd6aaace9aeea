"""Smoke test for the perf harness (the CI perf gate).

Runs the quick suite end to end through ``scripts/bench.py``, checks the
``BENCH_perf.json`` payload shape, and asserts the headline gates on the
LSTM workload — compiled replay, batch=16 replay and dynamic batching
over their baselines — the same gates CI applies. Full-suite numbers
live in the committed BENCH_perf.json.
"""

import json
import pathlib
import sys

import pytest

from repro.harness.perf import (
    BATCH16_GATE_QUICK,
    BATCHING_GATE,
    BATCHING_GATE_QUICK,
    COMPILED_GATE_QUICK,
    HEADLINE,
    batch16_headline_speedup,
    batching_goodput_ratio,
    bench_batch_sweep,
    bench_compiled_rnn,
    bench_functional_rnn,
    compiled_headline_speedup,
    render_table,
    results_from_json,
    run_suite,
)
from repro.config import BW_S5

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def quick_payload():
    return run_suite(quick=True)


def test_quick_suite_payload_shape(quick_payload):
    assert quick_payload["benchmark"] == "perf"
    assert quick_payload["quick"] is True
    head = quick_payload["headline"]
    assert (head["kind"], head["hidden"], head["config"]) == HEADLINE
    names = {(r["name"], r["config"]) for r in quick_payload["results"]}
    kind, hidden, cfg = HEADLINE
    assert (f"functional_{kind}_h{hidden}", cfg) in names
    assert (f"compiled_{kind}_h{hidden}", cfg) in names
    assert (f"batched_{kind}_h{hidden}_b16", cfg) in names
    for row in quick_payload["results"]:
        assert row["unit_ms"] > 0
        assert row["repeats"] >= 1


def test_headline_compiled_beats_vectorized(quick_payload):
    results = results_from_json(quick_payload)
    speedup = compiled_headline_speedup(results)
    assert speedup is not None
    assert speedup >= COMPILED_GATE_QUICK, (
        f"compiled replay is {speedup:.2f}x the vectorized interpreter "
        f"on the headline LSTM — the replay layer regressed")
    agg = batch16_headline_speedup(results)
    assert agg is not None
    assert agg >= BATCH16_GATE_QUICK, (
        f"batch=16 replay aggregate throughput is only {agg:.2f}x the "
        f"vectorized interpreter — the batched layer regressed")


def test_headline_dynamic_batching_goodput(quick_payload):
    """The serving-layer gate: dynamic batching must beat the batch-1
    server on goodput at the same p99 SLO."""
    kind, hidden, cfg = HEADLINE
    names = {(r["name"], r["config"])
             for r in quick_payload["results"]}
    assert (f"batching_goodput_{kind}_h{hidden}", cfg) in names
    ratio = batching_goodput_ratio(results_from_json(quick_payload))
    assert ratio is not None
    assert ratio >= BATCHING_GATE_QUICK, (
        f"dynamic batching sustains only {ratio:.2f}x the batch-1 "
        f"goodput at equal SLO — the serving layer regressed")
    assert quick_payload["headline"]["batching_goodput_ratio"] == ratio


def test_committed_bench_meets_full_batching_gate():
    """The committed full-suite numbers must clear the full (2x)
    goodput floor — regenerate BENCH_perf.json if this trips."""
    payload = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
    ratio = payload["headline"]["batching_goodput_ratio"]
    assert ratio >= BATCHING_GATE, (
        f"committed BENCH_perf.json goodput ratio {ratio:.2f}x is "
        f"below the {BATCHING_GATE}x floor")


def test_render_and_roundtrip(quick_payload):
    results = results_from_json(quick_payload)
    table = render_table(results)
    assert "speedup" in table
    for r in results:
        assert r.name in table


def test_bench_result_guards_divergence():
    """The harness itself must reject a divergent fast path — spot-check
    the equivalence assertions run (they raise, not warn, on mismatch)."""
    res = bench_functional_rnn("lstm", 128, BW_S5, steps=2, repeats=1)
    assert res.unit_ms > 0 and res.speedup is None  # no baseline row
    res = bench_compiled_rnn("lstm", 128, BW_S5, steps=2, repeats=1)
    assert res.speedup is not None
    rows = bench_batch_sweep("lstm", 128, BW_S5, batches=(2,), steps=2,
                             repeats=1)
    assert rows[0].speedup is not None


def test_cli_driver_writes_json(tmp_path, capsys):
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    try:
        import bench
    finally:
        sys.path.pop(0)
    out = tmp_path / "BENCH_perf.json"
    rc = bench.main(["--quick", "--output", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert "speedup" not in payload["headline"]
    assert payload["headline"]["compiled_speedup"] is not None
    assert payload["blas_threads"] >= 1
    assert "headline" in capsys.readouterr().out
