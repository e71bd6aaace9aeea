"""CLI smoke tests: every headline subcommand exits 0 and produces
parseable output files."""

import json
import pathlib

import pytest

from repro.cli import main

pytestmark = pytest.mark.tier1

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"


def _trace_events(path):
    with open(path) as fh:
        trace = json.load(fh)
    events = trace["traceEvents"]
    assert events, "empty trace"
    return {e["name"] for e in events}


@pytest.mark.parametrize("workload", ["lstm", "gru"])
def test_trace_rnn_smoke(workload, tmp_path, capsys):
    out = tmp_path / "trace.json"
    jsonl = tmp_path / "events.jsonl"
    rc = main(["trace", workload, "--hidden", "64", "--steps", "2",
               "--out", str(out), "--jsonl", str(jsonl)])
    assert rc == 0
    names = _trace_events(out)
    assert {"run", "chain"} <= names
    assert jsonl.exists()
    for line in jsonl.read_text().splitlines():
        json.loads(line)
    stdout = capsys.readouterr().out
    assert "occupancy" in stdout
    assert "match: yes" in stdout


def test_trace_serve_faults_smoke(tmp_path, capsys):
    out = tmp_path / "serve.json"
    rc = main(["trace", "serve-faults", "--hidden", "64", "--steps", "2",
               "--requests", "60", "--rate", "600", "--out", str(out)])
    assert rc == 0
    assert _trace_events(out)
    assert "availability" in capsys.readouterr().out


def test_serve_faults_smoke(capsys):
    rc = main(["serve-faults", "--requests", "120", "--rate", "600",
               "--replicas", "2", "--seed", "3"])
    assert rc == 0
    assert "serving under faults" in capsys.readouterr().out.lower()


def test_fuzz_smoke(capsys):
    rc = main(["fuzz", "--seed", "5", "--iterations", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 failure(s)" in out
    assert "all engines agree" in out


def test_fuzz_replay_smoke(capsys):
    rc = main(["fuzz", "--replay", str(CORPUS_DIR)])
    assert rc == 0
    assert "0 failure(s)" in capsys.readouterr().out


def test_fuzz_corpus_dir_stays_empty_on_pass(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    rc = main(["fuzz", "--seed", "6", "--iterations", "3",
               "--corpus-dir", str(corpus)])
    assert rc == 0
    assert not list(corpus.glob("*.json")) if corpus.exists() else True
    capsys.readouterr()


def test_fuzz_pinned_config_and_profile(capsys):
    rc = main(["fuzz", "--seed", "1", "--iterations", "3",
               "--profile", "mvm", "--config", "fuzz8_exact",
               "--no-timing"])
    assert rc == 0
    capsys.readouterr()


def _stub_bench_payload(compiled_ms=1.0, batch16_ms=0.5,
                        goodput_ms=0.4):
    """A minimal but schema-true perf payload, so the bench CLI can be
    smoke-tested without running the (slow) real suite — that runs in
    the perf CI step via benchmarks/perf/test_bench_smoke.py."""
    from repro.harness.perf import (BenchResult, HEADLINE,
                                    batch16_headline_speedup,
                                    batching_goodput_ratio,
                                    compiled_headline_speedup)
    kind, hidden, cfg = HEADLINE
    rows = [
        BenchResult(name=f"functional_{kind}_h{hidden}", config=cfg,
                    unit_ms=1.0, units=4, repeats=2),
        BenchResult(name=f"compiled_{kind}_h{hidden}", config=cfg,
                    unit_ms=compiled_ms, units=4, repeats=3,
                    baseline_unit_ms=2.0),
        BenchResult(name=f"batched_{kind}_h{hidden}_b16", config=cfg,
                    unit_ms=batch16_ms, units=64, repeats=3,
                    baseline_unit_ms=2.0),
        BenchResult(name=f"batching_goodput_{kind}_h{hidden}",
                    config=cfg, unit_ms=goodput_ms, units=600,
                    repeats=1, baseline_unit_ms=1.0),
    ]
    return {
        "benchmark": "perf", "quick": True,
        "headline": {"kind": kind, "hidden": hidden, "config": cfg,
                     "compiled_speedup": compiled_headline_speedup(rows),
                     "batch16_speedup": batch16_headline_speedup(rows),
                     "batching_goodput_ratio":
                         batching_goodput_ratio(rows)},
        "results": [r.to_json() for r in rows],
    }


def test_bench_cli_table_and_output(monkeypatch, tmp_path, capsys):
    import repro.harness.perf as perf
    monkeypatch.setattr(perf, "run_suite",
                        lambda quick: _stub_bench_payload())
    out = tmp_path / "bench.json"
    rc = main(["bench", "quick", "--output", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "compiled over vectorized" in stdout
    assert "floor" in stdout
    payload = json.loads(out.read_text())
    assert payload["headline"]["compiled_speedup"] == 2.0
    assert payload["headline"]["batch16_speedup"] == 4.0


def test_bench_cli_json_mode(monkeypatch, capsys):
    import repro.harness.perf as perf
    monkeypatch.setattr(perf, "run_suite",
                        lambda quick: _stub_bench_payload())
    rc = main(["bench", "quick", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["benchmark"] == "perf"
    names = {r["name"] for r in payload["results"]}
    assert any(n.startswith("batched_") for n in names)


def test_bench_cli_gate_failure_exits_nonzero(monkeypatch, capsys):
    import repro.harness.perf as perf
    # Compiled replay slower than the vectorized baseline: gate trips.
    monkeypatch.setattr(
        perf, "run_suite",
        lambda quick: _stub_bench_payload(compiled_ms=4.0))
    rc = main(["bench", "quick"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err


def test_monitor_smoke(tmp_path, capsys):
    html = tmp_path / "dash.html"
    prom = tmp_path / "metrics.prom"
    rc = main(["monitor", "rack_loss", "--requests", "8000",
               "--seed", "0", "--html", str(html),
               "--prom", str(prom)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "detection scorecard" in out
    assert "availability" in out
    text = html.read_text()
    assert text.startswith("<!DOCTYPE html>") or "<html" in text
    assert "availability" in text
    lines = prom.read_text().splitlines()
    assert any(l.startswith("# TYPE repro_cluster_requests_total "
               "counter") for l in lines)
    assert any(l.startswith("repro_cluster_latency_ms_bucket")
               for l in lines)


def test_monitor_gate_violation_exits_nonzero(capsys):
    rc = main(["monitor", "rack_loss", "--requests", "8000",
               "--seed", "0", "--min-precision", "1.1"])
    assert rc == 1
    assert "GATE VIOLATED" in capsys.readouterr().out


def test_monitor_all_writes_per_scenario_files(tmp_path, capsys):
    prom = tmp_path / "m.prom"
    rc = main(["monitor", "all", "--requests", "4000", "--seed", "0",
               "--prom", str(prom)])
    assert rc == 0
    capsys.readouterr()
    for name in ("overload", "partition", "rack_loss",
                 "rolling_slow"):
        assert (tmp_path / f"m-{name}.prom").exists()


def test_serve_batch_smoke(tmp_path, capsys):
    """End-to-end quick sweep: calibrate a real curve from batched
    replay, sweep goodput, clear a modest floor, write artifacts."""
    out = tmp_path / "sweep.json"
    prom = tmp_path / "serving.prom"
    rc = main(["serve-batch", "--quick", "--hidden", "64",
               "--min-goodput-ratio", "1.1",
               "--output", str(out), "--prom", str(prom)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "peak goodput" in stdout
    payload = json.loads(out.read_text())
    assert payload["goodput_ratio"] >= 1.1
    assert payload["workload"]["kind"] == "lstm"
    assert payload["curve"]["batches"][0] == 1
    text = prom.read_text()
    assert "repro_serving_batch_occupancy" in text
    assert "repro_serving_dispatches_total" in text


def test_serve_batch_gate_violation_exits_nonzero(monkeypatch, capsys):
    import repro.system.batching as batching
    # A perfectly serial curve: batching buys nothing, so any floor
    # above ~1x trips the gate without a slow calibration pass.
    serial = batching.ServiceTimeCurve((1, 2), (1e-3, 2e-3))
    monkeypatch.setattr(batching, "calibrate_batch_curve",
                        lambda *a, **k: serial)
    rc = main(["serve-batch", "--quick", "--hidden", "64",
               "--min-goodput-ratio", "2.0"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err
