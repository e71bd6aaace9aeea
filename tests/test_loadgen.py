"""Tests for arrival traces, fault scenarios, and the batch-1 and
batching regimes of the one offline serving queue."""

import math

import numpy as np
import pytest

from repro.system.batching import (
    BatchingError,
    BatchPolicy,
    DynamicBatcher,
    compare_under_load,
)
from repro.system.loadgen import (
    LoadError,
    bursty_arrivals,
    diurnal_arrivals,
    heavy_tailed_arrivals,
    poisson_arrivals,
)


class TestArrivals:
    def test_poisson_mean_rate(self):
        times = poisson_arrivals(100.0, 5000, seed=1)
        measured = len(times) / times[-1]
        assert measured == pytest.approx(100.0, rel=0.1)

    def test_poisson_monotone(self):
        times = poisson_arrivals(10.0, 100, seed=2)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_invalid_parameters(self):
        with pytest.raises(LoadError):
            poisson_arrivals(0, 10)


def _batch1(service_s):
    """The batch-1 BW regime: every request dispatched alone."""
    return DynamicBatcher(BatchPolicy(max_batch=1, timeout_s=0.0),
                          curve=lambda b: service_s)


class TestBatch1Server:
    """Batch-1 serving as :class:`DynamicBatcher` at
    ``BatchPolicy(1, 0.0)``: one request at a time, FIFO."""

    def test_idle_server_latency_is_service_time(self):
        result = _batch1(0.001).run([(i + 1) / 10.0 for i in range(20)])
        assert result.p50_ms == pytest.approx(1.0)
        assert result.p99_ms == pytest.approx(1.0)
        assert result.batch_sizes == [1] * 20

    def test_saturated_server_queues(self):
        result = _batch1(0.01).run([(i + 1) / 200.0 for i in range(100)])
        # Every second request waits behind the previous one.
        assert result.p99_ms > 10.0
        latencies = [r.latency for r in result.requests]
        assert latencies == sorted(latencies)  # waits grow monotonically

    def test_fifo_order(self):
        result = _batch1(0.002).run([0.0, 0.0005, 0.001])
        starts = [r.start for r in result.requests]
        assert starts == sorted(starts)
        assert starts[1] == pytest.approx(0.002)

    def test_capacity(self):
        """Saturated, the server completes one request per service
        time."""
        result = _batch1(0.004).run([0.0] * 100)
        assert result.goodput_rps(math.inf) == pytest.approx(250.0)

    def test_invalid_service_time(self):
        with pytest.raises(BatchingError):
            compare_under_load(
                bw_service_s=0.0, gpu_batch_service=lambda b: 0.05,
                max_batch=16, timeout_s=0.02, rates_rps=(50,))


class TestBatchingServer:
    """The GPU serving-stack regime: :class:`DynamicBatcher` waits up
    to the timeout to fill a batch."""

    @staticmethod
    def batcher(max_batch, timeout_s, base=0.01, per=0.001):
        return DynamicBatcher(BatchPolicy(max_batch, timeout_s),
                              curve=lambda b: base + per * b)

    def test_low_load_waits_for_timeout(self):
        """A lone request waits the full forming timeout."""
        result = self.batcher(max_batch=8, timeout_s=0.05).run([0.0])
        assert result.requests[0].start == pytest.approx(0.05)

    def test_full_batch_dispatches_without_timeout(self):
        arrivals = [0.0, 0.001, 0.002, 0.003]
        result = self.batcher(max_batch=4, timeout_s=10.0).run(arrivals)
        assert result.requests[0].start == pytest.approx(0.003)

    def test_batch_size_capped(self):
        result = self.batcher(max_batch=2, timeout_s=1.0).run(
            [0.0, 0.0, 0.0, 0.0])
        starts = sorted({r.start for r in result.requests})
        assert len(starts) == 2  # two batches of two
        assert result.batch_sizes == [2, 2]

    def test_batchmates_share_finish_time(self):
        result = self.batcher(max_batch=4, timeout_s=0.01).run(
            [0.0, 0.001, 0.002])
        finishes = {r.finish for r in result.requests}
        assert len(finishes) == 1

    def test_capacity_uses_full_batches(self):
        """Saturated, every dispatch is full: throughput is
        ``max_batch / service(max_batch)``."""
        result = self.batcher(max_batch=10, timeout_s=0.01).run(
            [0.0] * 100)
        assert result.batch_sizes == [10] * 10
        assert result.goodput_rps(math.inf) == pytest.approx(10 / 0.02)

    def test_invalid_parameters(self):
        with pytest.raises(BatchingError):
            BatchPolicy(0, 0.1)
        with pytest.raises(BatchingError):
            BatchPolicy(4, -1.0)


class TestComparison:
    def test_batch1_wins_latency_under_light_load(self):
        comparisons = compare_under_load(
            bw_service_s=0.001,
            gpu_batch_service=lambda b: 0.05 + 0.002 * b,
            max_batch=16, timeout_s=0.02, rates_rps=(50,),
            requests=400, seed=3)
        comp = comparisons[0]
        assert comp.bw.p99_ms < 5.0
        assert comp.gpu.p99_ms > 10 * comp.bw.p99_ms

    def test_throughput_reported(self):
        comparisons = compare_under_load(
            bw_service_s=0.001,
            gpu_batch_service=lambda b: 0.05 + 0.002 * b,
            max_batch=16, timeout_s=0.02, rates_rps=(100,),
            requests=400, seed=4)
        assert comparisons[0].bw.goodput_rps(math.inf) == pytest.approx(
            100, rel=0.2)

    def test_empty_result_nan_with_flag(self):
        """Degenerate results flag themselves and report nan instead
        of raising or fabricating a misleading 0.0."""
        res = _batch1(0.001).run([])
        assert res.empty and res.batch_sizes == []
        assert math.isnan(res.percentile_latency(50))
        assert math.isnan(res.p99_ms)
        assert math.isnan(res.mean_batch)
        assert math.isnan(res.goodput_rps(1.0))
        assert math.isnan(res.slo_attainment(1.0))

    def test_empty_fault_scenario_nan_with_flag(self):
        from repro.system.loadgen import FaultScenarioResult
        res = FaultScenarioResult(outcomes=[], arrivals=[])
        assert res.total == 0
        assert math.isnan(res.availability)
        assert math.isnan(res.span_s)
        assert math.isnan(res.goodput_rps)
        assert math.isnan(res.p99_ms)
        assert math.isnan(res.mean_attempts)

    def test_all_failed_scenario_flags_no_successes(self):
        from repro.system.faults import InvocationOutcome
        from repro.system.loadgen import FaultScenarioResult
        outcomes = [InvocationOutcome(
            service="svc", ok=False, result=None, attempts=2,
            replicas_tried=["svc-0"], latency_s=0.01,
            deadline_met=False) for _ in range(3)]
        res = FaultScenarioResult(outcomes=outcomes,
                                  arrivals=[0.0, 0.1, 0.2])
        assert res.total == 3
        assert res.availability == 0.0          # real zero, not nan
        assert math.isnan(res.p99_ms)           # no success latencies
        assert res.mean_attempts == pytest.approx(2.0)


class TestShapedArrivals:
    """The vectorized diurnal / bursty / heavy-tailed trace
    generators that drive the cluster chaos scenarios."""

    def test_diurnal_rate_between_base_and_peak(self):
        times = diurnal_arrivals(100.0, 300.0, 50.0, period_s=50.0,
                                 seed=0)
        rate = len(times) / 50.0
        assert 100.0 < rate < 300.0
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_diurnal_trough_at_zero(self):
        """The sinusoid starts at the trough: the first tenth of the
        period is much quieter than the middle."""
        times = np.asarray(diurnal_arrivals(50.0, 500.0, 100.0,
                                            period_s=100.0, seed=1))
        early = np.count_nonzero(times < 10.0)
        mid = np.count_nonzero((times >= 45.0) & (times < 55.0))
        assert mid > 2 * early

    def test_bursty_has_quiet_and_hot_stretches(self):
        times = np.asarray(bursty_arrivals(50.0, 2000.0, 20.0,
                                           mean_quiet_s=2.0,
                                           mean_burst_s=0.5, seed=2))
        # Per-second counts span at least the base->burst dynamic
        # range (an MMPP, not a homogeneous process).
        counts = np.histogram(times, bins=20, range=(0, 20))[0]
        assert counts.max() > 5 * max(counts.min(), 1)

    def test_heavy_tailed_count_and_tail(self):
        times = np.asarray(heavy_tailed_arrivals(1000.0, 20_000,
                                                 alpha=1.6, seed=3))
        assert times.size == 20_000
        gaps = np.diff(times)
        assert np.all(gaps >= 0) and np.all(np.isfinite(times))
        # Pareto gaps: the largest gap dwarfs the median gap.
        assert gaps.max() > 20 * np.median(gaps)

    @pytest.mark.parametrize("make", [
        lambda seed: diurnal_arrivals(10.0, 30.0, 20.0, seed=seed),
        lambda seed: bursty_arrivals(10.0, 100.0, 20.0, seed=seed),
        lambda seed: heavy_tailed_arrivals(100.0, 500, seed=seed),
    ])
    def test_deterministic_per_seed(self, make):
        assert np.array_equal(make(7), make(7))
        assert not np.array_equal(make(7), make(8))

    def test_validation(self):
        with pytest.raises(LoadError):
            diurnal_arrivals(0.0, 10.0, 1.0)
        with pytest.raises(LoadError):
            diurnal_arrivals(20.0, 10.0, 1.0)  # peak below base
        with pytest.raises(LoadError):
            bursty_arrivals(10.0, 5.0, 1.0)    # burst below base
        with pytest.raises(LoadError):
            bursty_arrivals(10.0, 20.0, 0.0)
        with pytest.raises(LoadError):
            heavy_tailed_arrivals(100.0, 10, alpha=1.0)
        with pytest.raises(LoadError):
            heavy_tailed_arrivals(0.0, 10)
