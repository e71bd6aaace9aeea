"""Tests for the observability layer (repro.obs): tracer, metrics,
exporters, layer instrumentation, and trace/untraced equivalence."""

import json
import warnings

import numpy as np
import pytest

from repro.compiler import compile_lstm
from repro.compiler.lowering import compile_rnn_shape
from repro.config import BW_S10
from repro.errors import ExecutionError
from repro.models import LstmReference
from repro.obs import (
    LatencyHistogram,
    Metrics,
    NULL_METRICS,
    NULL_TRACER,
    NullTracer,
    Tracer,
    chrome_trace_events,
    percentile,
    summarize,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
)
from repro.system import (
    CpuStage,
    FaultInjector,
    FaultProfile,
    FederatedRuntime,
    FpgaNode,
    FpgaStage,
    HardwareMicroservice,
    MicroserviceRegistry,
    ResilientClient,
    RetryPolicy,
)
from repro.timing import (
    TimingSimulator,
    build_hdd_tree,
    occupancy,
    occupancy_from_trace,
    records_from_trace,
    render_trace_timeline,
)


class TestTracer:
    def test_nesting_via_stack(self):
        tr = Tracer(unit="cycles")
        outer = tr.begin("outer", 0.0, track="a")
        inner = tr.span("inner", 1.0, 2.0)
        tr.end(outer, 5.0)
        after = tr.span("after", 6.0, 7.0, track="b")
        assert inner.parent == outer.id
        assert inner.track == "a"          # inherited from parent
        assert after.parent is None
        assert outer.duration == 5.0
        assert tr.children(outer) == [inner]

    def test_end_attrs_merge(self):
        tr = Tracer()
        sp = tr.begin("s", 0.0, track="t", a=1)
        tr.end(sp, 2.0, b=2)
        assert sp.attrs == {"a": 1, "b": 2}

    def test_instant_and_find(self):
        tr = Tracer(unit="s")
        tr.instant("fault", 1.5, track="faults", node="n0")
        tr.span("req", 0.0, 1.0, track="client")
        assert tr.find(name="req")[0].end == 1.0
        assert tr.find_events(name="fault")[0].attrs["node"] == "n0"
        assert tr.find(track="nope") == []

    def test_bounded_buffer_drops(self):
        tr = Tracer(max_events=3)
        with pytest.warns(RuntimeWarning, match="Tracer buffer full"):
            for i in range(10):
                tr.span("s", i, i + 1, track="t")
        assert len(tr.spans) == 3
        assert tr.dropped == 7

    def test_drop_warns_once_and_counts_in_metrics(self):
        metrics = Metrics()
        tr = Tracer(max_events=2, metrics=metrics)
        tr.span("keep", 0, 1, track="t")
        tr.instant("keep", 0, track="t")
        with pytest.warns(RuntimeWarning, match="Tracer buffer full"):
            tr.span("lost", 1, 2, track="t")
        # Later drops are counted but do not warn again.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr.instant("lost", 2, track="t")
        assert tr.dropped == 2
        assert metrics.counter("obs.trace.dropped").value == 2

    def test_clear_rearms_drop_warning(self):
        tr = Tracer(max_events=1)
        tr.span("keep", 0, 1, track="t")
        with pytest.warns(RuntimeWarning):
            tr.span("lost", 1, 2, track="t")
        tr.clear()
        tr.span("keep", 0, 1, track="t")
        with pytest.warns(RuntimeWarning):
            tr.span("lost", 1, 2, track="t")

    def test_clear(self):
        tr = Tracer()
        tr.span("s", 0, 1, track="t")
        tr.instant("i", 0, track="t")
        tr.clear()
        assert not tr.spans and not tr.events and tr.dropped == 0

    def test_null_tracer_is_inert(self):
        tr = NullTracer()
        sp = tr.begin("s", 0.0)
        tr.end(sp, 1.0)
        tr.span("s", 0, 1)
        tr.instant("i", 0)
        assert not tr.enabled
        assert tr.spans == [] and tr.events == []
        assert NULL_TRACER.spans == []


class TestMetrics:
    def test_counter_gauge(self):
        m = Metrics()
        m.counter("c").inc()
        m.counter("c").inc(2.5)
        m.gauge("g").set(7)
        assert m.counter("c").value == 3.5
        assert m.gauge("g").value == 7

    def test_percentile_matches_numpy(self, rng):
        samples = list(rng.exponential(1.0, 500))
        for q in (50, 90, 99, 99.9):
            assert percentile(samples, q) == \
                float(np.percentile(samples, q))

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_histogram(self):
        h = LatencyHistogram("lat", bounds=[1.0, 10.0])
        for v in (0.5, 2.0, 3.0, 20.0):
            h.observe(v)
        assert h.count == 4
        assert h.bucket_counts() == [(1.0, 1), (10.0, 2),
                                     (float("inf"), 1)]
        assert h.percentile(50) == float(np.percentile(
            [0.5, 2.0, 3.0, 20.0], 50))
        assert "n=4" in h.render()

    def test_histogram_merge_matches_combined_observes(self, rng):
        bounds = [1.0, 5.0, 20.0]
        left = LatencyHistogram("lat", bounds=bounds)
        right = LatencyHistogram("lat", bounds=bounds)
        whole = LatencyHistogram("lat", bounds=bounds)
        vals = rng.exponential(4.0, 200)
        for v in vals[:120]:
            left.observe(v)
            whole.observe(v)
        for v in vals[120:]:
            right.observe(v)
            whole.observe(v)
        left.merge(right)
        assert left.count == whole.count == 200
        assert left.total == pytest.approx(whole.total)
        assert left.counts == whole.counts
        assert left.percentile(99) == whole.percentile(99)
        assert left.exact

    @pytest.mark.parametrize("max_samples", [None, 150])
    def test_observe_many_matches_sequential_observes(self, rng,
                                                      max_samples):
        """Same samples, counts, max and float sum, bit for bit, across
        two bulk adds onto earlier single observes."""
        bounds = [1e-3, 0.1, 1.0, 5.0]
        one = LatencyHistogram("lat", bounds, max_samples=max_samples)
        bulk = LatencyHistogram("lat", bounds, max_samples=max_samples)
        vals = rng.exponential(2.0, 300) * rng.choice([1e-9, 1.0, 1e6],
                                                      300)
        for v in vals[:10]:
            bulk.observe(float(v))
        bulk.observe_many(vals[10:200])
        bulk.observe_many(vals[200:])
        for v in vals:
            one.observe(float(v))
        assert bulk.samples == one.samples
        assert bulk.counts == one.counts
        assert (bulk.count, bulk.dropped_samples) == \
            (one.count, one.dropped_samples)
        assert repr(bulk.total) == repr(one.total)
        assert bulk._max == one._max

    def test_histogram_merge_bounds_mismatch_raises(self):
        a = LatencyHistogram("a", bounds=[1.0])
        b = LatencyHistogram("b", bounds=[2.0])
        with pytest.raises(ValueError):
            a.merge(b)

    def test_histogram_max_samples_bounds_memory(self):
        h = LatencyHistogram("lat", bounds=[1.0, 10.0], max_samples=5)
        for v in range(20):
            h.observe(float(v))
        assert len(h.samples) == 5
        assert h.dropped_samples == 15
        assert h.count == 20
        assert h.total == sum(range(20))
        assert not h.exact
        # Percentiles degrade to the bucket estimator, not the biased
        # retained prefix.
        assert h.percentile(99) == pytest.approx(10.0)
        assert "n=20" in h.render() and "max=19" in h.render()

    def test_histogram_merge_respects_max_samples(self):
        big = LatencyHistogram("node", bounds=[1.0, 10.0])
        for v in (0.5, 2.0, 12.0):
            big.observe(v)
        rollup = LatencyHistogram("fleet", bounds=[1.0, 10.0],
                                  max_samples=2)
        rollup.merge(big)
        assert rollup.count == 3
        assert len(rollup.samples) == 2
        assert rollup.dropped_samples == 1
        with pytest.raises(ValueError):
            LatencyHistogram("h", max_samples=-1)

    def test_registry_render(self):
        m = Metrics()
        m.counter("a.b").inc(2)
        m.gauge("g").set(1.5)
        m.histogram("h").observe(3.0)
        text = m.render()
        assert "a.b" in text and "g" in text and "h:" in text

    def test_null_metrics_inert(self):
        NULL_METRICS.counter("x").inc(5)
        NULL_METRICS.gauge("y").set(5)
        NULL_METRICS.histogram("z").observe(5)
        assert NULL_METRICS.counter("x").value == 0
        assert NULL_METRICS.histogram("z").count == 0
        assert not NULL_METRICS.enabled


class TestExport:
    def make_tracer(self):
        tr = Tracer(unit="cycles")
        root = tr.begin("run", 0.0, track="scheduler")
        tr.span("chain", 1.0, 4.0, track="MVM", index=0)
        tr.end(root, 5.0)
        tr.instant("marker", 2.0, track="MVM", note=np.float32(1.5))
        return tr

    def test_chrome_events_structure(self):
        events = chrome_trace_events(self.make_tracer())
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        metas = [e for e in events if e["ph"] == "M"]
        assert len(spans) == 2 and len(instants) == 1
        assert {m["name"] for m in metas} >= \
            {"process_name", "thread_name"}
        chain = next(e for e in spans if e["name"] == "chain")
        assert chain["ts"] == 1.0 and chain["dur"] == 3.0
        # numpy attr values must be JSON-serializable
        assert isinstance(instants[0]["args"]["note"], float)
        json.dumps(events)

    def test_seconds_unit_scales_to_us(self):
        tr = Tracer(unit="s")
        tr.span("req", 0.0, 2e-3, track="client")
        events = chrome_trace_events(tr)
        span = next(e for e in events if e["ph"] == "X")
        assert span["dur"] == pytest.approx(2000.0)

    def test_write_and_reload(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), self.make_tracer())
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == count
        assert data["otherData"]["units"] == ["cycles"]

    def test_multiple_tracers_get_distinct_pids(self):
        trace = to_chrome_trace(self.make_tracer(), self.make_tracer())
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert pids == {0, 1}

    def test_jsonl(self):
        lines = to_jsonl(self.make_tracer()).splitlines()
        parsed = [json.loads(line) for line in lines]
        assert sum(1 for p in parsed if p["kind"] == "span") == 2
        assert sum(1 for p in parsed if p["kind"] == "instant") == 1

    def test_summarize(self):
        tr = self.make_tracer()
        m = Metrics()
        m.counter("c").inc()
        text = summarize(tr, m)
        assert "MVM/chain" in text and "counters:" in text
        assert summarize(Tracer(), Metrics()) == "(nothing recorded)"


class TestExecutorTracing:
    def test_per_chain_and_instruction_spans(self, tiny_config):
        compiled = compile_lstm(LstmReference(8, 8, seed=0), tiny_config)
        tracer = Tracer(unit="instructions", max_events=500_000)
        metrics = Metrics()
        sim = compiled.new_simulator(exact=True, tracer=tracer,
                                     metrics=metrics)
        xs = [np.ones(8, dtype=np.float32)] * 2
        compiled.run_sequence(xs, sim=sim)
        chains = tracer.find(name="chain")
        assert len(chains) == sim.stats.chains_executed
        # every chain span contains per-instruction child spans
        first = chains[0]
        kids = tracer.children(first)
        assert kids and all(k.duration == 1.0 for k in kids)
        assert metrics.counter("executor.chains").value == len(chains)
        assert metrics.counter("executor.macs").value == \
            sim.stats.macs
        runs = tracer.find(name="run")
        assert runs and runs[0].attrs["chains"] == len(chains)

    def test_traced_run_matches_untraced(self, tiny_config):
        compiled = compile_lstm(LstmReference(8, 8, seed=1), tiny_config)
        xs = [np.linspace(-1, 1, 8).astype(np.float32)] * 3
        plain = compiled.run_sequence(xs, exact=True)
        sim = compiled.new_simulator(
            exact=True, tracer=Tracer(unit="instructions"),
            metrics=Metrics())
        traced = compiled.run_sequence(xs, sim=sim)
        for a, b in zip(plain, traced):
            np.testing.assert_array_equal(a, b)


class TestSchedulerTracing:
    def make_run(self, tracer=None, metrics=None, steps=3):
        compiled = compile_rnn_shape("gru", 1024, BW_S10)
        sim = TimingSimulator(BW_S10, record_chains=True,
                              tracer=tracer, metrics=metrics)
        return sim.run(compiled.program, bindings={"steps": steps})

    def test_tracing_does_not_change_cycles(self):
        untraced = self.make_run()
        traced = self.make_run(tracer=Tracer(), metrics=Metrics())
        assert traced.total_cycles == untraced.total_cycles
        assert traced.mvm_busy_cycles == untraced.mvm_busy_cycles
        assert traced.chains_executed == untraced.chains_executed

    def test_occupancy_from_trace_matches_report(self):
        tracer = Tracer()
        report = self.make_run(tracer=tracer)
        occ_report = occupancy(report)
        occ_trace = occupancy_from_trace(tracer)
        assert occ_trace.total_cycles == occ_report.total_cycles
        assert occ_trace.mvm_busy_cycles == occ_report.mvm_busy_cycles
        assert occ_trace.chains == occ_report.chains
        assert occ_trace.mvm_chains == occ_report.mvm_chains

    def test_records_from_trace_match_report_records(self):
        tracer = Tracer()
        report = self.make_run(tracer=tracer)
        from_trace = records_from_trace(tracer)
        assert from_trace == report.records

    def test_render_trace_timeline_matches_report_rendering(self):
        """The trace's timeline draws the report's schedule: one row per
        recorded chain (up to the row limit) and the report's
        occupancy summary."""
        tracer = Tracer()
        report = self.make_run(tracer=tracer)
        lines = render_trace_timeline(tracer, max_chains=500).splitlines()
        assert lines[0].startswith(f"timeline: {len(report.records)} "
                                   "chains")
        assert sum("|" in line for line in lines) == len(report.records)
        assert lines[-1] == occupancy(report).render()

    def test_occupancy_from_trace_requires_run_span(self):
        with pytest.raises(ExecutionError, match="no 'run' span"):
            occupancy_from_trace(Tracer())

    def test_issue_drain_children_and_stall_counters(self):
        tracer, metrics = Tracer(), Metrics()
        self.make_run(tracer=tracer, metrics=metrics)
        chain = tracer.find(name="chain")[0]
        kids = {k.name for k in tracer.children(chain)}
        assert kids == {"issue", "drain"}
        assert metrics.counter("timing.mvm_busy_cycles").value > 0
        assert "timing.dispatch_stall_cycles" in metrics.counters

    def test_hdd_annotate(self):
        metrics = Metrics()
        build_hdd_tree(BW_S10).annotate(metrics, rows=4, cols=2)
        assert metrics.gauge("hdd.second_level_schedulers").value == 4
        assert metrics.gauge("hdd.third_level_decoders").value == 41
        assert metrics.counter("hdd.mv_mul_primitive_ops").value == \
            4 * 2 * BW_S10.native_dim ** 2


@pytest.fixture
def served(small_config):
    compiled = compile_lstm(LstmReference(16, 16, seed=0), small_config)
    tracer = Tracer(unit="s")
    metrics = Metrics()
    injector = FaultInjector(
        FaultProfile(transient_failure_prob=0.3), seed=3)
    registry = MicroserviceRegistry(tracer=tracer, metrics=metrics)
    for i in range(2):
        registry.publish_replica(HardwareMicroservice(
            "svc", FpgaNode(f"svc-{i}", compiled), injector=injector))
    client = ResilientClient(registry,
                             RetryPolicy(max_attempts=4,
                                         deadline_s=50e-3),
                             seed=4, tracer=tracer, metrics=metrics)
    return client, tracer, metrics


class TestServingTracing:
    def test_request_attempt_replica_nesting(self, served):
        client, tracer, metrics = served
        outcomes = [client.invoke("svc", 4, now=i * 1e-3)
                    for i in range(30)]
        requests = tracer.find(name="request")
        assert len(requests) == 30
        ok_request = next(
            r for r, o in zip(requests, outcomes) if o.ok)
        attempts = [s for s in tracer.children(ok_request)
                    if s.name == "attempt"]
        assert attempts
        success = next(a for a in attempts if a.attrs["ok"])
        replicas = [s for s in tracer.children(success)
                    if s.name == "replica"]
        assert len(replicas) == 1
        parts = [s.name for s in tracer.children(replicas[0])]
        assert parts == ["net_in", "compute", "net_out"]
        assert metrics.counter("serving.requests").value == 30
        assert metrics.counter("serving.attempts").value >= 30
        assert metrics.histogram("serving.request_latency_ms").count \
            == sum(1 for o in outcomes if o.ok)

    def test_tracing_does_not_change_outcomes(self, small_config):
        compiled = compile_lstm(LstmReference(16, 16, seed=0),
                                small_config)

        def run(tracer, metrics):
            injector = FaultInjector(
                FaultProfile(transient_failure_prob=0.25,
                             tail_spike_prob=0.1), seed=7)
            registry = MicroserviceRegistry(tracer=tracer,
                                            metrics=metrics)
            for i in range(2):
                registry.publish_replica(HardwareMicroservice(
                    "svc", FpgaNode(f"svc-{i}", compiled),
                    injector=injector))
            client = ResilientClient(
                registry, RetryPolicy(max_attempts=3),
                seed=8, tracer=tracer, metrics=metrics)
            return [client.invoke("svc", 4, now=i * 1e-3)
                    for i in range(50)]

        plain = run(None, None)
        traced = run(Tracer(unit="s"), Metrics())
        assert [(o.ok, o.latency_s, o.attempts, o.replicas_tried)
                for o in plain] == \
            [(o.ok, o.latency_s, o.attempts, o.replicas_tried)
             for o in traced]

    def test_runtime_stage_spans_and_fallback_event(self, small_config):
        compiled = compile_lstm(LstmReference(16, 16, seed=0),
                                small_config)
        tracer = Tracer(unit="s")
        injector = FaultInjector(seed=0)
        injector.crash("svc-0")
        registry = MicroserviceRegistry(tracer=tracer)
        registry.publish_replica(HardwareMicroservice(
            "svc", FpgaNode("svc-0", compiled), injector=injector))
        client = ResilientClient(registry,
                                 RetryPolicy(max_attempts=2),
                                 tracer=tracer)
        runtime = FederatedRuntime(registry, client=client,
                                   tracer=tracer)
        stages = [
            CpuStage("pre", lambda v: v),
            FpgaStage("rnn", "svc", fallback=lambda seq: seq,
                      fallback_latency_s=1e-3),
        ]
        result = runtime.execute(stages,
                                 [np.zeros(16, dtype=np.float32)] * 2)
        plan = tracer.find(name="plan")[0]
        names = [s.name for s in tracer.children(plan)]
        assert names[0] == "cpu:pre" and "fpga:rnn" in names
        assert plan.end == pytest.approx(result.total_latency_s)
        assert tracer.find_events(name="fallback")
