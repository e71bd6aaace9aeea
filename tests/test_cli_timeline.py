"""Tests for the CLI and the timeline renderer."""

import json

import pytest

from repro.cli import main
from repro.compiler.lowering import compile_rnn_shape
from repro.config import BW_S10
from repro.errors import ExecutionError
from repro.obs import Tracer
from repro.timing import TimingSimulator, occupancy, render_trace_timeline


class TestCli:
    def test_configs(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "BW_S10" in out and "96000" in out

    def test_time(self, capsys):
        assert main(["time", "gru", "512", "10"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out and "TFLOPS" in out

    def test_disassemble(self, capsys):
        assert main(["disassemble", "lstm", "256"]) == 0
        out = capsys.readouterr().out
        assert "mv_mul" in out and "loop steps {" in out

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_serve_faults(self, capsys):
        assert main(["serve-faults", "--requests", "200"]) == 0
        out = capsys.readouterr().out
        assert "Serving under faults" in out
        assert "avail %" in out

    def test_specialize(self, capsys):
        assert main(["specialize", "gru", "512", "Arria 10 1150"]) == 0
        out = capsys.readouterr().out
        assert "effective TFLOPS" in out

    def test_specialize_unknown_device(self, capsys):
        assert main(["specialize", "gru", "512", "Virtex"]) == 2

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


def _chain(tracer, index, start, completion, mv_mul):
    """One scheduler ``chain`` span as :class:`TimingSimulator` records
    it."""
    tracer.span("chain", start, completion, index=index, mv_mul=mv_mul,
                issue=4.0, depth_first=2.0, rows=1, cols=1)


class TestTimeline:
    def make_report(self, tracer=None):
        compiled = compile_rnn_shape("gru", 1024, BW_S10)
        sim = TimingSimulator(BW_S10, record_chains=True, tracer=tracer)
        return sim.run(compiled.program, bindings={"steps": 3},
                       include_invocation_overhead=False)

    def make_trace(self):
        tracer = Tracer()
        self.make_report(tracer)
        return tracer

    def test_render_contains_rows_and_summary(self):
        text = render_trace_timeline(self.make_trace())
        assert "timeline:" in text
        assert "M" in text          # mv_mul chains
        assert "=" in text          # point-wise chains
        assert "MVM busy" in text

    def test_requires_records(self):
        with pytest.raises(ExecutionError, match="no 'run' span"):
            render_trace_timeline(Tracer())

    def test_max_chains_truncation(self):
        text = render_trace_timeline(self.make_trace(), max_chains=5)
        assert "more chains not shown" in text

    def test_occupancy_summary(self):
        report = self.make_report()
        summary = occupancy(report)
        assert summary.chains == report.chains_executed
        assert 0 < summary.mvm_occupancy < 1
        assert "chains" in summary.render()

    def test_labels(self):
        text = render_trace_timeline(self.make_trace(), max_chains=3,
                                     labels=["alpha", "beta"])
        assert "alpha" in text and "beta" in text

    def test_labels_follow_chain_index_not_row_position(self):
        # Regression: rows must be labeled by each record's chain
        # index, not its row position — records with gaps in their
        # index sequence (matrix chains interleaved, truncated views)
        # used to shift every following label up by one.
        tracer = Tracer()
        run = tracer.begin("run", 0.0, track="scheduler")
        _chain(tracer, 0, 0.0, 10.0, mv_mul=True)
        _chain(tracer, 2, 10.0, 20.0, mv_mul=False)
        tracer.end(run, 20.0)
        labels = ["gates", "SKIPPED", "pointwise"]
        text = render_trace_timeline(tracer, labels=labels)
        rows = [line for line in text.splitlines() if "|" in line]
        assert "gates" in rows[0]
        assert "pointwise" in rows[1]
        assert "SKIPPED" not in text
        # Records beyond the label list fall back to their index.
        assert "#2" in render_trace_timeline(tracer, labels=["gates"])


class TestTraceCli:
    def test_trace_lstm_writes_valid_chrome_trace(self, tmp_path,
                                                  capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        assert main(["trace", "lstm", "--hidden", "256", "--steps", "3",
                     "--out", str(out), "--jsonl", str(jsonl)]) == 0
        text = capsys.readouterr().out
        assert "occupancy (report):" in text
        assert "trace/report MVM occupancy match: yes" in text
        data = json.loads(out.read_text())
        events = data["traceEvents"]
        assert {e["ph"] for e in events} >= {"X", "M"}
        assert any(e["ph"] == "X" and e["name"] == "chain"
                   for e in events)
        assert any(e["ph"] == "X" and e["name"] == "run"
                   for e in events)
        for line in jsonl.read_text().splitlines():
            json.loads(line)

    def test_trace_serve_faults_nested_spans_and_breaker_events(
            self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "serve-faults", "--requests", "150",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "availability:" in text
        events = json.loads(out.read_text())["traceEvents"]
        by_name = {}
        for e in events:
            by_name.setdefault(e["name"], []).append(e)
        # request -> attempt -> replica span nesting (same trace).
        assert len(by_name["request"]) == 150
        assert by_name["attempt"] and by_name["replica"]
        # Scheduled crash/repair markers and breaker transitions.
        assert by_name["fault:crash"][0]["ph"] == "i"
        assert "fault:repair" in by_name
        assert any(e["args"].get("to_state") == "open"
                   for e in by_name.get("breaker", []))

    def test_trace_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["trace", "resnet"])
