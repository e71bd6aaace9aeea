"""Exporter round trips: Chrome-trace validity, JSONL parse-back
equality, and Prometheus golden output."""

import json

import numpy as np
import pytest

from repro.obs import (Metrics, Tracer, chrome_trace_events,
                       from_jsonl, render_prometheus, to_chrome_trace,
                       to_jsonl)
from repro.obs.prom import sanitize_name
from repro.obs.timeseries import TimeSeriesStore

pytestmark = pytest.mark.tier1


def _sample_tracer():
    tracer = Tracer(unit="s")
    run = tracer.begin("run", 0.0, track="sched")
    tracer.span("chain", 0.1, 0.4, track="sched", idx=0)
    tracer.instant("stall", 0.2, track="sched", port="dram")
    tracer.span("chain", 0.3, 0.9, track="net", idx=1)
    tracer.end(run, 1.0)
    tracer.instant("done", 1.0, track="sched", n=2)
    return tracer


class TestChromeTrace:
    def test_document_is_valid_json_and_loadable(self):
        doc = to_chrome_trace(_sample_tracer())
        text = json.dumps(doc)
        back = json.loads(text)
        assert isinstance(back["traceEvents"], list)
        assert back["displayTimeUnit"] == "ms"
        assert back["otherData"]["dropped_events"] == 0

    def test_event_schema(self):
        events = chrome_trace_events(_sample_tracer(), pid=3)
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        for e in events:
            assert isinstance(e["name"], str)
            assert isinstance(e["pid"], int) and e["pid"] == 3
            assert isinstance(e["tid"], int)
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
            if e["ph"] == "i":
                assert e["s"] == "t"
        # Seconds scale to microseconds.
        spans = [e for e in events if e["ph"] == "X"]
        assert all(e["ts"] == pytest.approx(s.start * 1e6)
                   for e, s in zip(spans, _sample_tracer().spans))

    def test_tracks_become_named_threads(self):
        events = chrome_trace_events(_sample_tracer())
        names = {e["args"]["name"] for e in events
                 if e["name"] == "thread_name"}
        assert names == {"sched", "net"}


class TestJsonlRoundTrip:
    def test_parse_back_equality(self):
        tracer = _sample_tracer()
        text = to_jsonl(tracer)
        back = from_jsonl(text)
        assert back.unit == tracer.unit
        assert back.spans == tracer.spans
        assert back.events == tracer.events
        # And the round trip is a fixed point.
        assert to_jsonl(back) == text

    def test_rebuilt_tracer_continues_id_sequence(self):
        back = from_jsonl(to_jsonl(_sample_tracer()))
        ids = {s.id for s in back.spans}
        span = back.begin("next", 2.0, track="sched")
        assert span.id not in ids
        back.end(span, 3.0)

    def test_empty_and_blank_lines(self):
        back = from_jsonl("\n\n")
        assert back.spans == [] and back.events == []

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            from_jsonl('{"kind": "mystery"}')


class TestPrometheus:
    def test_golden_metrics_document(self):
        metrics = Metrics()
        metrics.counter("requests.total").inc(3)
        metrics.gauge("queue.depth").set(2.5)
        hist = metrics.histogram("lat.ms", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            hist.observe(v)
        got = render_prometheus(metrics=metrics)
        assert got == (
            "# HELP repro_lat_ms Histogram lat.ms\n"
            "# TYPE repro_lat_ms histogram\n"
            'repro_lat_ms_bucket{le="1"} 1\n'
            'repro_lat_ms_bucket{le="10"} 2\n'
            'repro_lat_ms_bucket{le="+Inf"} 3\n'
            "repro_lat_ms_sum 55.5\n"
            "repro_lat_ms_count 3\n"
            "# HELP repro_queue_depth Gauge queue.depth\n"
            "# TYPE repro_queue_depth gauge\n"
            "repro_queue_depth 2.5\n"
            "# HELP repro_requests_total_total Counter requests.total\n"
            "# TYPE repro_requests_total_total counter\n"
            "repro_requests_total_total 3\n")

    def test_golden_store_document(self):
        store = TimeSeriesStore(interval_s=1.0, windows=4)
        store.counter("cluster.requests", scope="fleet",
                      status="served").add_increments([1.0, 2.0])
        store.gauge("cluster.nodes_up", scope="fleet").record_values([24])
        # 0.4 ms in window 0, 9.0 ms in window 2.
        store.quantile("cluster.latency_ms", bounds=(1.0, 8.0),
                       scope="fleet").add_counts(
            np.array([[1, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0]]),
            np.array([0.4, 0.0, 9.0, 0.0]))
        got = render_prometheus(store=store)
        assert got == (
            "# HELP repro_cluster_latency_ms Histogram "
            "cluster.latency_ms\n"
            "# TYPE repro_cluster_latency_ms histogram\n"
            'repro_cluster_latency_ms_bucket{le="1",scope="fleet"} 1\n'
            'repro_cluster_latency_ms_bucket{le="8",scope="fleet"} 1\n'
            'repro_cluster_latency_ms_bucket{le="+Inf",scope="fleet"}'
            " 2\n"
            'repro_cluster_latency_ms_sum{scope="fleet"} 9.4\n'
            'repro_cluster_latency_ms_count{scope="fleet"} 2\n'
            "# HELP repro_cluster_nodes_up Gauge cluster.nodes_up\n"
            "# TYPE repro_cluster_nodes_up gauge\n"
            'repro_cluster_nodes_up{scope="fleet"} 24\n'
            "# HELP repro_cluster_requests_total Counter "
            "cluster.requests\n"
            "# TYPE repro_cluster_requests_total counter\n"
            'repro_cluster_requests_total{scope="fleet",'
            'status="served"} 3\n')

    def test_deterministic_and_sorted(self):
        store = TimeSeriesStore(interval_s=1.0, windows=4)
        store.counter("b", scope="rack1").add_increments([1.0])
        store.counter("b", scope="rack0").add_increments([1.0])
        store.counter("a", scope="fleet").add_increments([1.0])
        one = render_prometheus(store=store)
        two = render_prometheus(store=store)
        assert one == two
        assert one.index("repro_a") < one.index("repro_b")
        assert one.index('scope="rack0"') < one.index('scope="rack1"')

    def test_sanitize_name(self):
        assert sanitize_name("cluster.latency-ms") == \
            "cluster_latency_ms"
        assert sanitize_name("9lives") == "_9lives"

    def test_empty_inputs_render_empty(self):
        assert render_prometheus() == ""
        assert render_prometheus(metrics=Metrics()) == ""
