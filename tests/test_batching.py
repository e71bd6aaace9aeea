"""Dynamic batching serving layer: curves, policies, and the queue.

Covers the measured :class:`ServiceTimeCurve`, the deterministic
SLO-aware :class:`AdaptiveBatchPolicy`, and the :class:`DynamicBatcher`
serving loop in both discrete-event (curve) and real-execution
(service) modes — including the central serving-stack contract: every
request served through a batched dispatch produces outputs
bit-identical to invoking that request alone, with tracing and metrics
attached. The SLO sweep payload, the batch-occupancy observability
path, and the batched microservice latency model ride along.
"""

import numpy as np
import pytest

from repro.compiler import compile_lstm
from repro.models import LstmReference
from repro.obs import Metrics, Tracer, render_prometheus
from repro.obs.dashboard import (render_html_dashboard,
                                 render_text_dashboard)
from repro.obs.timeseries import TimeSeriesStore
from repro.system import (
    AdaptiveBatchPolicy,
    BatchPolicy,
    BatchingError,
    DynamicBatcher,
    FpgaNode,
    HardwareMicroservice,
    ServiceError,
    ServiceTimeCurve,
    record_batch_series,
    render_slo_sweep,
    slo_sweep,
)

# A strongly sublinear measured shape: batch-16 costs 2.5x batch-1 in
# aggregate, i.e. 6.4x the per-request throughput.
CURVE = ServiceTimeCurve((1, 2, 4, 8, 16),
                         (1e-3, 1.1e-3, 1.3e-3, 1.7e-3, 2.5e-3))


@pytest.fixture
def compiled(small_config):
    return compile_lstm(LstmReference(16, 16, seed=0), small_config)


@pytest.fixture
def service(compiled):
    return HardwareMicroservice("svc", FpgaNode("svc-node", compiled))


def _request_inputs(compiled, count, steps, seed=5):
    """Per-request input lists with distinct power-of-two scalings
    (lossless in float32, so batching must be bit-transparent)."""
    rng = np.random.default_rng(seed)
    xs = [rng.uniform(-1, 1, compiled.input_length).astype(np.float32)
          for _ in range(steps)]
    return [[(x * 2.0 ** (-(r % 5))).astype(np.float32) for x in xs]
            for r in range(count)]


class TestServiceTimeCurve:
    def test_interpolates_between_measured_points(self):
        assert CURVE(1) == pytest.approx(1e-3)
        assert CURVE(16) == pytest.approx(2.5e-3)
        assert CURVE(3) == pytest.approx(1.2e-3)  # midpoint of 2 and 4

    def test_extrapolates_at_last_marginal_cost(self):
        slope = (2.5e-3 - 1.7e-3) / (16 - 8)
        assert CURVE(24) == pytest.approx(2.5e-3 + 8 * slope)

    def test_single_point_extrapolates_serially(self):
        c = ServiceTimeCurve((1,), (2e-3,))
        assert c(4) == pytest.approx(8e-3)

    def test_best_batch_maximizes_throughput(self):
        assert CURVE.best_batch() == 16
        assert CURVE.best_batch(max_batch=5) == 4
        assert CURVE.throughput_rps(16) == pytest.approx(16 / 2.5e-3)

    def test_json_round_trip(self):
        assert ServiceTimeCurve.from_json(CURVE.to_json()) == CURVE

    @pytest.mark.parametrize("batches,times", [
        ((2, 4), (1e-3, 2e-3)),          # not anchored at 1
        ((1, 1), (1e-3, 2e-3)),          # not strictly increasing
        ((1, 2), (1e-3,)),               # length mismatch
        ((1, 2), (1e-3, 0.0)),           # non-positive time
        ((1, 2), (2e-3, 1e-3)),          # aggregate time decreasing
        ((), ()),                        # empty
    ])
    def test_rejects_malformed_curves(self, batches, times):
        with pytest.raises(BatchingError):
            ServiceTimeCurve(batches, times)

    def test_rejects_batch_below_one(self):
        with pytest.raises(BatchingError):
            CURVE(0)


class TestAdaptivePolicy:
    def test_doubles_with_headroom_and_backlog(self):
        pol = AdaptiveBatchPolicy(slo_s=1.0, max_batch=8)
        assert pol.target == 1
        assert pol.observe(0.1, 1, queue_depth=5,
                           latencies_s=[0.01]) == 2
        assert pol.observe(0.2, 2, queue_depth=5,
                           latencies_s=[0.01, 0.01]) == 4

    def test_does_not_grow_without_backlog(self):
        pol = AdaptiveBatchPolicy(slo_s=1.0, max_batch=8)
        assert pol.observe(0.1, 1, queue_depth=0,
                           latencies_s=[0.01]) == 1

    def test_creeps_up_under_backlog_despite_breached_window(self):
        # Queue-dominated latency must not stall growth: under backlog
        # a bigger batch is the only throughput lever.
        pol = AdaptiveBatchPolicy(slo_s=1.0, max_batch=8)
        assert pol.observe(0.1, 1, queue_depth=8,
                           latencies_s=[2.0] * 64) == 2
        assert pol.observe(0.2, 2, queue_depth=8,
                           latencies_s=[2.0] * 64) == 3

    def test_shrinks_multiplicatively_past_headroom(self):
        pol = AdaptiveBatchPolicy(slo_s=1.0, max_batch=8)
        for _ in range(3):
            pol.observe(0.1, 1, queue_depth=8, latencies_s=[0.01])
        assert pol.target == 8
        # No backlog but p99 past 0.85 * slo: the latency is
        # batch/timeout-induced, so halve.
        assert pol.observe(0.6, 8, queue_depth=0,
                           latencies_s=[2.0] * 64) == 4
        assert pol.observe(0.7, 4, queue_depth=0,
                           latencies_s=[2.0] * 64) == 2

    def test_empty_window_changes_nothing_without_backlog(self):
        pol = AdaptiveBatchPolicy(slo_s=1.0)
        assert pol.observe(0.1, 1, queue_depth=0,
                           latencies_s=[]) == 1
        assert pol.trace == [(0.1, 1)]

    def test_target_stays_bounded(self):
        pol = AdaptiveBatchPolicy(slo_s=1.0, min_batch=2, max_batch=4)
        for _ in range(10):
            pol.observe(0.1, 2, queue_depth=99, latencies_s=[0.01])
        assert pol.target == 4
        for _ in range(10):
            pol.observe(0.2, 4, queue_depth=0, latencies_s=[2.0])
        assert pol.target == 2

    @pytest.mark.parametrize("kwargs", [
        dict(slo_s=0.0),
        dict(slo_s=1.0, min_batch=0),
        dict(slo_s=1.0, min_batch=5, max_batch=4),
        dict(slo_s=1.0, window=0),
        dict(slo_s=1.0, grow_headroom=0.9, shrink_headroom=0.85),
        dict(slo_s=1.0, grow_headroom=0.0),
    ])
    def test_rejects_malformed_policies(self, kwargs):
        with pytest.raises(BatchingError):
            AdaptiveBatchPolicy(**kwargs)

    def test_batch_policy_validation(self):
        with pytest.raises(BatchingError):
            BatchPolicy(max_batch=0)
        with pytest.raises(BatchingError):
            BatchPolicy(timeout_s=-1.0)


class TestDynamicBatcherCurveMode:
    def test_full_batch_dispatches_together(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=4,
                                             timeout_s=1e-2),
                                 curve=CURVE)
        res = batcher.run([0.0, 0.0, 0.0, 0.0])
        assert res.batch_sizes == [4]
        assert all(r.start == 0.0 for r in res.requests)
        assert all(r.finish == pytest.approx(CURVE(4))
                   for r in res.requests)

    def test_lone_request_waits_out_the_timeout(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=4,
                                             timeout_s=5e-3),
                                 curve=CURVE)
        res = batcher.run([0.0])
        assert res.batch_sizes == [1]
        assert res.requests[0].start == pytest.approx(5e-3)
        assert res.requests[0].latency == pytest.approx(5e-3 + CURVE(1))

    def test_adaptive_target_trace_is_returned(self):
        batcher = DynamicBatcher(
            BatchPolicy(max_batch=8, timeout_s=1e-3), curve=CURVE,
            adaptive=AdaptiveBatchPolicy(slo_s=0.05, max_batch=8))
        arrivals = [i * 1e-4 for i in range(64)]
        res = batcher.run(arrivals)
        assert len(res.target_trace) == len(res.batch_sizes)
        assert max(t for _, t in res.target_trace) > 1

    def test_metrics_contract(self):
        metrics = Metrics()
        batcher = DynamicBatcher(BatchPolicy(max_batch=4,
                                             timeout_s=1e-3),
                                 curve=CURVE, metrics=metrics)
        batcher.run([0.0, 0.0, 0.0, 0.0, 0.01])
        assert metrics.counters["serving.requests"].value == 5
        assert metrics.counters["serving.dispatches"].value == 2
        text = render_prometheus(metrics=metrics)
        assert "repro_serving_batch_occupancy_count 2" in text
        assert "repro_serving_queue_wait_s_count 5" in text
        assert "repro_serving_requests_total 5" in text

    def test_rejects_bad_configurations(self):
        with pytest.raises(BatchingError):
            DynamicBatcher(BatchPolicy())  # no backend
        with pytest.raises(BatchingError):
            DynamicBatcher(BatchPolicy(max_batch=4), curve=CURVE,
                           adaptive=AdaptiveBatchPolicy(slo_s=1.0,
                                                        max_batch=8))
        batcher = DynamicBatcher(BatchPolicy(), curve=CURVE)
        with pytest.raises(BatchingError):
            batcher.run([1.0, 0.5])  # unsorted
        with pytest.raises(BatchingError):
            batcher.run([0.0], inputs=[[np.zeros(16)]])  # curve mode

    def test_curve_must_be_callable(self):
        """Any ``batch -> seconds`` callable backs the queue; anything
        else fails at construction, not at the first dispatch."""
        batcher = DynamicBatcher(BatchPolicy(max_batch=16), curve=CURVE)
        saturated = batcher.run([0.0] * 64)
        assert saturated.batch_sizes == [16] * 4
        assert saturated.throughput_rps == pytest.approx(
            CURVE.throughput_rps(16))
        DynamicBatcher(BatchPolicy(), curve=lambda b: 1e-3 * b)
        with pytest.raises(BatchingError, match="callable"):
            DynamicBatcher(BatchPolicy(), curve=3.0)

    @pytest.mark.parametrize("trace, index", [
        ([0.0, float("nan"), 1.0], 1),
        ([0.0, float("inf")], 1),
        ([float("-inf"), 0.0], 0),
    ], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_arrivals(self, trace, index):
        """A NaN used to surface as ``batch must be >= 1, got 0`` and
        an infinite arrival was served with an infinite finish."""
        batcher = DynamicBatcher(BatchPolicy(), curve=CURVE)
        with pytest.raises(BatchingError,
                           match=rf"arrival {index} is .*finite"):
            batcher.run(trace)


class TestServingStackBitEquality:
    """The tentpole contract: dispatches through the serving stack —
    queue, batcher, microservice, batched replay — return per-request
    outputs bit-identical to sequential invocation, with a tracer and
    metrics attached the whole way."""

    @pytest.mark.tier1
    def test_batched_serving_matches_sequential_invocation(
            self, compiled, service):
        steps, count = 3, 10
        inputs = _request_inputs(compiled, count, steps)
        # Arrivals force mixed batch sizes: a burst, then stragglers.
        arrivals = [0.0] * 4 + [0.01] * 3 + [0.02, 0.5, 0.9]
        tracer, metrics = Tracer(unit="s"), Metrics()
        batcher = DynamicBatcher(
            BatchPolicy(max_batch=4, timeout_s=2e-3), service=service,
            adaptive=AdaptiveBatchPolicy(slo_s=1.0, max_batch=4),
            tracer=tracer, metrics=metrics)
        res = batcher.run(arrivals, steps=steps, inputs=inputs)

        assert len(res.requests) == count
        assert sum(res.batch_sizes) == count
        assert max(res.batch_sizes) > 1  # actually coalesced
        for k in range(count):
            seq = service.invoke(steps,
                                 functional_inputs=inputs[k]).outputs
            assert len(res.outputs[k]) == len(seq)
            for got, want in zip(res.outputs[k], seq):
                assert np.array_equal(got, want), f"request {k}"
        # Observability rode along: one span per dispatch, counters.
        spans = [s for s in tracer.spans if s.track == "batching"]
        assert len(spans) == len(res.batch_sizes)
        assert metrics.counters["serving.requests"].value == count

    def test_requests_in_one_dispatch_share_lifecycle(self, service):
        batcher = DynamicBatcher(BatchPolicy(max_batch=4,
                                             timeout_s=1e-3),
                                 service=service)
        res = batcher.run([0.0, 0.0], steps=2)
        assert res.batch_sizes == [2]
        a, b = res.requests
        assert (a.start, a.finish) == (b.start, b.finish)

    def test_service_mode_requires_steps(self, service):
        batcher = DynamicBatcher(BatchPolicy(), service=service)
        with pytest.raises(BatchingError):
            batcher.run([0.0])


class TestBatchedInvocation:
    @pytest.mark.tier1
    def test_batch_one_equals_single_invocation(self, service):
        single = service.invoke(steps=4)
        batched = service.invoke_batched(steps=4, batch=1)
        assert batched.total_s == pytest.approx(single.total_s,
                                                abs=1e-12)

    @pytest.mark.tier1
    def test_batch_one_latency_is_exact(self, service):
        # A batch-1 invoke costs exactly the single-request formula,
        # bit for bit.
        node, net = service.node, service.network
        steps = 4
        compiled = node.compiled
        bytes_per_vec = compiled.config.native_dim * 2
        in_bytes = steps * compiled.input_vectors_per_step * bytes_per_vec
        out_bytes = steps * compiled.output_vectors_per_step * bytes_per_vec
        net_in = net.transfer_us(in_bytes / steps, node.locality) * 1e-6
        net_out = net.transfer_us(out_bytes / steps, node.locality) * 1e-6
        compute = max(node.compute_latency_s(steps),
                      net.serialization_us(in_bytes) * 1e-6,
                      net.serialization_us(out_bytes) * 1e-6)
        assert node.batch_compute_latency_s(steps, 1) == \
            node.compute_latency_s(steps)
        assert service.invoke(steps).total_s == net_in + compute + net_out

    def test_uncalibrated_node_is_serial(self, service):
        node = service.node
        base = node.compute_latency_s(4)
        assert node.batch_compute_latency_s(4, 8) == pytest.approx(
            8 * base)

    def test_batch_validation(self, service):
        with pytest.raises(ServiceError):
            service.invoke_batched(steps=4)
        with pytest.raises(ServiceError):
            service.invoke_batched(steps=4, batch=0)
        with pytest.raises(ServiceError):
            service.node.batch_compute_latency_s(4, 0)


class TestSloSweep:
    def test_dynamic_batching_beats_batch1_goodput(self):
        t1 = CURVE(1)
        payload = slo_sweep(CURVE, slo_s=8 * t1,
                            rates_rps=[0.8 / t1, 2.0 / t1],
                            requests=400, max_batch=16, seed=3)
        assert payload["goodput_ratio"] > 1.5
        assert len(payload["rates"]) == 2
        for row in payload["rates"]:
            assert set(row) == {
                "rate_rps", "batch1_goodput_rps", "batch1_p99_ms",
                "dynamic_goodput_rps", "dynamic_p99_ms",
                "dynamic_mean_batch", "dynamic_slo_attainment"}
        rendered = render_slo_sweep(payload)
        assert "peak goodput" in rendered
        assert f"{payload['goodput_ratio']:.2f}x" in rendered

    def test_sweep_validation(self):
        with pytest.raises(BatchingError):
            slo_sweep(CURVE, slo_s=0.0, rates_rps=[100.0])
        with pytest.raises(BatchingError):
            slo_sweep(CURVE, slo_s=1.0, rates_rps=[])


class TestBatchObservability:
    def test_record_batch_series_feeds_dashboards(self):
        store = TimeSeriesStore(interval_s=1.0, windows=8)
        log = [(0.5, 4), (0.6, 8), (3.5, 2), (7.9, 16)]
        record_batch_series(log, store)
        text = render_text_dashboard(store)
        assert "batch size" in text
        assert "peak=16.0" in text
        html = render_html_dashboard(store)
        assert "batch occupancy (requests/dispatch)" in html

    def test_unbatched_store_has_no_batch_strip(self):
        store = TimeSeriesStore(interval_s=1.0, windows=8)
        record_batch_series([], store)
        assert "batch size" not in render_text_dashboard(store)
