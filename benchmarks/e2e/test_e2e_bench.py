"""Self-test of the end-to-end benchmark (not part of tier 1).

Run explicitly: ``python -m pytest benchmarks/e2e`` (``conftest.py``
keeps it out of a collection of ``benchmarks/``).  Drives the command
in ``--smoke`` mode (a few operations per workload) and checks its
contract: the printed metric names and units are those of
``BENCHMARK.json``, simulated results repeat bit for bit for a seed, a
wrong served output fails the run, the traced run reconciles, and the
comparison rules.
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time

import pytest

import compare
import spans
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _run(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def _printed(stdout):
    """``{(workload, metric): unit}`` of the ``workload metric value
    unit`` lines, and the final JSON line."""
    lines = stdout.strip().splitlines()
    rows = {}
    for line in lines[:-1]:
        workload, metric, _, unit = line.split(" ")
        rows[(workload, metric)] = unit
    return rows, json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "results.json"
    t0 = time.perf_counter()
    proc = _run("--smoke", "--repeat", "2", "--out", str(out))
    elapsed = time.perf_counter() - t0
    return proc, json.loads(out.read_text()), elapsed


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced") / "results.json"
    proc = _run("--smoke", "--trace", "--out", str(out))
    return proc, json.loads(out.read_text())


def test_benchmark_json_is_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert BENCH["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in BENCH["workloads"]] == list(
        workloads.WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in BENCH["end_to_end"] + BENCH["per_layer"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])


def test_smoke_prints_every_metric_with_its_unit(smoke):
    proc, doc, elapsed = smoke
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 2 * 30  # two smoke passes
    rows, last = _printed(proc.stdout)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    expected = {(w["name"], m["name"]): m["unit"]
                for w in BENCH["workloads"] for m in BENCH["end_to_end"]}
    e2e_rows = {k: u for k, u in rows.items()
                if not k[1].startswith("sim.")}
    assert e2e_rows == expected
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        f"{w}:{m}": u for (w, m), u in expected.items()}
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_simulated_results_repeat_bit_identically(smoke):
    _, doc, _ = smoke
    for name, entry in doc["workloads"].items():
        assert entry["sim"], name
        for metric, row in entry["sim"].items():
            assert len(row["values"]) == 2
            assert row["values"][0] == row["values"][1], (name, metric)


def test_injected_wrong_output_fails_the_run(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(
        "import dataclasses\n"
        "try:\n"
        "    from repro.system import microservice\n"
        "except ImportError:\n"
        "    microservice = None\n"
        "if microservice is not None:\n"
        "    invoke = microservice.HardwareMicroservice.invoke\n"
        "    def corrupted(self, *args, **kwargs):\n"
        "        res = invoke(self, *args, **kwargs)\n"
        "        if res.outputs is None:\n"
        "            return res\n"
        "        outs = [o.copy() for o in res.outputs]\n"
        "        outs[0][0] += 1.0\n"
        "        return dataclasses.replace(res, outputs=outs)\n"
        "    microservice.HardwareMicroservice.invoke = corrupted\n")
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    proc = _run("--smoke", "--workload", "gru512_t1_b1", "--out",
                str(tmp_path / "r.json"), env=env)
    assert proc.returncode != 0
    _, last = _printed(proc.stdout)
    assert last["correct"] is False
    assert last["failed"] > 0 and last["failed"] <= last["attempted"]


def test_traced_run_reconciles(traced):
    proc, doc = traced
    assert proc.returncode == 0, proc.stderr
    _, last = _printed(proc.stdout)
    per_layer = [m["name"] for m in BENCH["per_layer"]]
    assert set(last["metrics"]) == {f"{w}:{m}" for w in doc["workloads"]
                                    for m in per_layer}
    # Every per-layer metric is computed on at least one workload.
    assert not set.intersection(*(set(entry["not_reached"])
                                  for entry in doc["workloads"].values()))
    for name, entry in doc["workloads"].items():
        assert "end_to_end" not in entry, name
        assert not entry["absent"], name
        for rec in entry["reconciliation"]:
            assert rec["reconcile_error"] <= 0.05, (name, rec)
        shares = sum(row["values"][0] or 0.0
                     for metric, row in entry["detail"].items()
                     if metric.startswith("layer."))
        unattributed = entry["per_layer"]["trace.unattributed_frac"]
        assert shares + unattributed["median"] == pytest.approx(1, abs=0.05)
        for path in entry["chrome_traces"]:
            events = json.loads((ROOT / path).read_text())
            assert events["traceEvents"], name


def test_missing_entry_point_is_reported_absent(monkeypatch):
    gone = spans.EntryPoint("microservice.gone", "system.microservice",
                            "repro.system.microservice", "FpgaNode",
                            "no_such_method")
    monkeypatch.setattr(spans, "ENTRY_POINTS",
                        spans.ENTRY_POINTS + (gone,))
    recorder = spans.SpanRecorder()
    with spans.installed(recorder):
        pass
    assert recorder.absent == [
        "repro.system.microservice.FpgaNode.no_such_method"]
    assert recorder.absent_spans == {"microservice.gone"}
    metrics, _ = spans.layer_metrics(recorder, workloads.Measured(), 1.0)
    assert metrics["trace.overhead_frac"] == 1.0
    assert all(value == 0.0 for name, value in metrics.items()
               if name != "trace.overhead_frac")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run("--smoke", "--workload", "gru512_t1_b1", cwd=tmp_path,
                env=env)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_compare_verdicts():
    assert compare.verdict([10, 10.1, 9.9], [10, 10, 10.2], "lower",
                           0.1) == "same"
    assert compare.verdict([10, 10.1, 9.9], [12, 12.1, 11.9], "lower",
                           0.1) == "worse"
    assert compare.verdict([10, 10.1, 9.9], [12, 12.1, 11.9], "higher",
                           0.1) == "better"
    assert compare.verdict([5, 10, 15], [6, 11, 16], "lower",
                           0.1) == "unresolved"
    assert compare.verdict([10, 12, 14], [5, 6, 7], "lower",
                           0.1) == "better"
    # setup_s: 25% or 0.05 s, whichever is larger.
    assert compare.verdict([0.08] * 3, [0.11] * 3, "lower", 0.25) == "worse"
    assert compare.verdict([0.08] * 3, [0.11] * 3, "lower", 0.25,
                           0.05) == "same"
    assert compare.verdict([0.08] * 3, [0.14] * 3, "lower", 0.25,
                           0.05) == "worse"
    met, _ = compare.claim([10.0 + 0.01 * i for i in range(10)],
                           [9.0 + 0.01 * i for i in range(10)], "lower")
    assert met
    met, _ = compare.claim([10.0] * 5, [9.0] * 5, "lower")
    assert not met
