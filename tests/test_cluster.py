"""Cluster simulator: failure domains, detection, degradation.

Covers topology/policy validation, the phi-accrual failure detector's
suspect -> evict -> readmit lifecycle, domain-aware routing, admission
control, brownout, deadline shedding, client-timeout semantics, and
bit-determinism under a fixed seed.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from repro.errors import ReproError
from repro.system.batching import ServiceTimeCurve
from repro.system.chaos import SCENARIOS
from repro.system.cluster import (
    BROWNOUT,
    FAILED,
    SERVED,
    SHED_ADMISSION,
    SHED_DEADLINE,
    TIMEOUT,
    AutoscalePolicy,
    BrownoutPolicy,
    ClusterError,
    ClusterEvent,
    ClusterSimulator,
    ClusterSpec,
    NodeBatching,
    PhiAccrualDetector,
    TokenBucket,
    _cast_product,
)
from repro.system.loadgen import diurnal_arrivals
from repro.system.monitor import FleetMonitor

_LN10 = math.log(10.0)


def _spec(**kw):
    defaults = dict(racks=2, nodes_per_rack=2)
    defaults.update(kw)
    return ClusterSpec(**defaults)


def _sparse_arrivals(n=40, gap=0.01):
    """Arrivals far enough apart that queues never build up."""
    return np.arange(n) * gap


class TestClusterSpec:
    def test_defaults(self):
        spec = ClusterSpec()
        assert spec.num_nodes == 24
        assert spec.capacity_rps == pytest.approx(24_000.0)

    def test_rack_mapping(self):
        spec = _spec(racks=3, nodes_per_rack=4)
        assert spec.rack_of(0) == 0
        assert spec.rack_of(11) == 2
        assert list(spec.nodes_in_rack(1)) == [4, 5, 6, 7]

    def test_rack_bounds_checked(self):
        spec = _spec()
        with pytest.raises(ClusterError):
            spec.rack_of(spec.num_nodes)
        with pytest.raises(ClusterError):
            spec.nodes_in_rack(-1)

    @pytest.mark.parametrize("kw", [
        dict(racks=0), dict(nodes_per_rack=0),
        dict(service_time_s=0.0), dict(queue_depth=0),
        dict(deadline_s=0.0), dict(heartbeat_interval_s=-1.0),
        dict(payload_bytes=-1.0),
    ])
    def test_validation(self, kw):
        with pytest.raises(ClusterError):
            _spec(**kw)

    def test_cluster_error_is_repro_error(self):
        assert issubclass(ClusterError, ReproError)


class TestPolicies:
    def test_token_bucket_validation(self):
        with pytest.raises(ClusterError):
            TokenBucket(rate_rps=0.0)
        with pytest.raises(ClusterError):
            TokenBucket(rate_rps=100.0, burst=0.5)

    def test_brownout_validation(self):
        with pytest.raises(ClusterError):
            BrownoutPolicy(cpu_latency_s=0.0)
        with pytest.raises(ClusterError):
            BrownoutPolicy(max_concurrent=0)

    def test_event_validation(self):
        with pytest.raises(ClusterError):
            ClusterEvent(0.0, "explode", 0)
        with pytest.raises(ClusterError):
            ClusterEvent(-1.0, "crash", 0)
        with pytest.raises(ClusterError):
            ClusterEvent(0.0, "slow", 0, value=0.5)


class TestPhiAccrualDetector:
    """The suspect -> evict -> readmit lifecycle (control plane)."""

    def _detector(self, threshold=2.0):
        spec = _spec(heartbeat_interval_s=0.01)
        return PhiAccrualDetector(spec, threshold=threshold)

    def test_threshold_validation(self):
        with pytest.raises(ClusterError):
            self._detector(threshold=0.0)

    def test_phi_grows_with_silence(self):
        det = self._detector()
        assert det.phi(0, 0.05) == pytest.approx(0.0)
        # 5 ms past the last heartbeat: half an interval of silence.
        assert det.phi(0, 0.055) == pytest.approx(0.5 / _LN10)

    def test_suspect_time_closed_form(self):
        det = self._detector(threshold=2.0)
        # Silenced at 53 ms => last heartbeat 50 ms; phi crosses 2
        # exactly 2 * interval * ln10 later.
        assert det.suspect_time(0.053) == pytest.approx(
            0.05 + 2.0 * 0.01 * _LN10)

    def test_silence_evict_readmit_lifecycle(self):
        det = self._detector()
        evict_at = det.silence(0, 0.053)
        assert evict_at == pytest.approx(det.suspect_time(0.053))
        # Double silence is a no-op (keeps the first timeline).
        assert det.silence(0, 0.06) is None
        assert det.evict(0, evict_at)
        assert 0 in det.evicted
        readmit_at = det.resume(0, 0.123)
        # Readmission happens at the first heartbeat after recovery.
        assert readmit_at == pytest.approx(0.13)
        assert det.readmit(0, readmit_at)
        assert 0 not in det.evicted
        assert [(kind, node) for _, kind, node in det.transitions] \
            == [("evict", 0), ("readmit", 0)]

    def test_resume_before_eviction_cancels_it(self):
        """A node that recovers inside the detection window is never
        evicted: the scheduled evict edge becomes a no-op."""
        det = self._detector()
        evict_at = det.silence(0, 0.05)
        det.resume(0, evict_at - 0.01)
        assert not det.evict(0, evict_at)
        assert det.transitions == []

    def test_readmit_without_eviction_is_noop(self):
        det = self._detector()
        assert not det.readmit(0, 1.0)


class TestSimulatorValidation:
    def test_unknown_router(self):
        with pytest.raises(ClusterError):
            ClusterSimulator(_spec(), router="round_robin")

    def test_negative_retries(self):
        with pytest.raises(ClusterError):
            ClusterSimulator(_spec(), retries=-1)

    def test_retries_above_one_rejected(self):
        """A failover has one alternate candidate to retry, so
        ``retries=3`` cannot mean more than ``retries=1``."""
        with pytest.raises(ClusterError, match="got 3"):
            ClusterSimulator(_spec(), retries=3)

    def test_unsorted_arrivals(self):
        sim = ClusterSimulator(_spec())
        with pytest.raises(ClusterError):
            sim.run([0.0, 0.2, 0.1])


def _unbatched_sim():
    return ClusterSimulator(
        _spec(), admission=TokenBucket(rate_rps=3000.0, burst=8.0),
        brownout=BrownoutPolicy(max_concurrent=2), seed=5)


def _batched_sim():
    return ClusterSimulator(
        _spec(), batching=_batching(),
        autoscaler=AutoscalePolicy(min_nodes=1, interval_s=0.05), seed=5)


#: Both node kinds of the event loop: the batch-1 fast path under the
#: mitigated stack, and batched, autoscaled nodes.
_LOOPS = pytest.mark.parametrize("make_sim", [_unbatched_sim,
                                              _batched_sim],
                                 ids=["unbatched", "batched"])


def _default_unbatched():
    return ClusterSimulator(ClusterSpec(), seed=0)


def _default_batched():
    return ClusterSimulator(ClusterSpec(), batching=_batching(), seed=0)


class TestEventTargets:
    """Every event target is range-checked during run setup, on both
    loops, with an error naming the event: out-of-range and negative
    node indices used to raise a bare IndexError mid-run or wrap around
    silently, and a rack event was checked only when it fired."""

    @pytest.mark.parametrize("make_sim", [_default_unbatched,
                                          _default_batched],
                             ids=["unbatched", "batched"])
    @pytest.mark.parametrize("event", [
        ClusterEvent(0.1, "crash", 24),
        ClusterEvent(0.1, "crash", -1),
        ClusterEvent(0.1, "slow", -24, 2.0),
        ClusterEvent(5.0, "rack_down", 4),
    ], ids=["crash_24", "crash_-1", "slow_-24", "rack_down_4_late"])
    def test_bad_target_rejected_before_the_loop(self, make_sim, event):
        with pytest.raises(ClusterError) as info:
            make_sim().run(_sparse_arrivals(),
                           [ClusterEvent(0.0, "crash", 0), event])
        assert str(event) in str(info.value)
        assert "outside" in str(info.value)


class TestNonFiniteArrivals:
    """NaN and infinite arrival times are rejected before the loop,
    batched or not, naming the first bad index: unbatched runs used to
    record a NaN arrival as a TIMEOUT with a NaN latency and batched
    runs as FAILED."""

    @_LOOPS
    @pytest.mark.parametrize("trace, index", [
        ([0.0, float("nan"), 1.0], 1),
        ([0.0, 0.5, float("inf")], 2),
        ([float("-inf"), 0.0], 0),
        ([0.0, float("nan"), 0.1, float("inf")], 1),
    ], ids=["nan", "inf", "-inf", "first_of_two"])
    def test_rejected_naming_the_first_bad_index(self, make_sim, trace,
                                                 index):
        with pytest.raises(ClusterError,
                           match=rf"arrival {index} is .*finite"):
            make_sim().run(trace)


class TestEmptyRun:
    def test_nan_with_flag_semantics(self):
        res = ClusterSimulator(_spec()).run([])
        assert res.empty and res.total == 0
        assert math.isnan(res.availability)
        assert math.isnan(res.goodput_rps)
        assert not res.has_latencies
        assert math.isnan(res.p99_ms)

    @_LOOPS
    def test_both_loops_still_apply_events(self, make_sim):
        sim = make_sim()
        res = sim.run([], [ClusterEvent(0.01, "crash", 0)])
        assert res.empty and not res.has_latencies
        assert math.isnan(res.availability)
        assert res.event_log[0] == (0.01, "crash", 0)
        if sim.batching is not None:
            assert res.batch_log == []
            assert res.active_nodes_trace == [(0.0, 1)]


class TestInputForms:
    """Every array-like trace runs exactly like the same values as a
    contiguous float64 array: the loop reads arrivals through a
    memoryview, which needs that layout, so the coercion must come
    first."""

    @staticmethod
    def _same(a, b):
        assert np.array_equal(a.arrivals, b.arrivals)
        assert a.arrivals.dtype == np.float64
        assert np.array_equal(a.status, b.status)
        assert np.array_equal(a.latency_s, b.latency_s, equal_nan=True)
        assert a.event_log == b.event_log
        assert a.batch_log == b.batch_log
        assert a.active_nodes_trace == b.active_nodes_trace

    @_LOOPS
    def test_forms_match_contiguous_float64(self, make_sim):
        trace = np.sort(np.random.default_rng(2).uniform(0.0, 0.3, 2000))
        events = [ClusterEvent(0.1, "rack_down", 0),
                  ClusterEvent(0.2, "rack_up", 0)]
        f32 = trace.astype(np.float32)
        strided = np.stack([trace, -trace], axis=1)[:, 0]
        assert not strided.flags.c_contiguous
        for given, same_as in ((list(trace), trace),
                               (f32, f32.astype(np.float64)),
                               (strided, trace)):
            self._same(make_sim().run(given, events),
                       make_sim().run(same_as, events))


class TestHappyPath:
    @pytest.mark.parametrize("router", ["p2c", "least_loaded",
                                        "random"])
    def test_sparse_load_all_served(self, router):
        sim = ClusterSimulator(_spec(), router=router, seed=3)
        res = sim.run(_sparse_arrivals())
        assert res.availability == 1.0
        assert res.count(SERVED) == res.total
        assert res.has_latencies
        assert res.p50_ms >= 1.0  # at least one service time

    def test_least_loaded_balances(self):
        spec = _spec()
        sim = ClusterSimulator(spec, router="least_loaded",
                               admission=None, seed=0)
        # Burst of simultaneous-ish arrivals: exactly one per node
        # fits with zero wait before queueing starts.
        res = sim.run(np.full(spec.num_nodes, 0.0))
        assert res.availability == 1.0
        # All four nodes took exactly one request => identical latency.
        assert np.allclose(res.latency_s, res.latency_s[0])


class TestFailureDomains:
    def test_crash_without_detector_fails_requests(self):
        spec = _spec()
        sim = ClusterSimulator(spec, router="random",
                               detector_threshold=None, retries=0,
                               seed=1)
        events = [ClusterEvent(0.0, "rack_down", 0)]
        res = sim.run(_sparse_arrivals(200), events)
        # Half the fleet is dead and invisible: ~half the requests
        # land on it and fail.
        assert res.failed > 0.3 * res.total

    def test_detector_closes_the_gap(self):
        spec = _spec(heartbeat_interval_s=1e-3)
        sim = ClusterSimulator(spec, router="random",
                               detector_threshold=2.0, retries=0,
                               seed=1)
        events = [ClusterEvent(0.0, "rack_down", 0)]
        res = sim.run(_sparse_arrivals(200), events)
        evicts = [t for t in res.detector_transitions
                  if t[1] == "evict"]
        assert len(evicts) == spec.nodes_per_rack
        detect_by = max(t[0] for t in evicts)
        late = res.arrivals > detect_by
        # After eviction the router never sends to the dead rack.
        assert np.all(res.status[late] == SERVED)
        assert res.failed < 0.3 * res.total

    def test_repair_readmits(self):
        spec = _spec(heartbeat_interval_s=1e-3)
        sim = ClusterSimulator(spec, router="p2c",
                               detector_threshold=2.0, seed=0)
        events = [ClusterEvent(0.05, "crash", 0),
                  ClusterEvent(0.25, "repair", 0)]
        res = sim.run(_sparse_arrivals(60), events)
        kinds = [(kind, node) for _, kind, node
                 in res.detector_transitions]
        assert ("evict", 0) in kinds and ("readmit", 0) in kinds
        assert res.availability == 1.0  # failover hid the crash

    def test_partition_and_heal(self):
        spec = _spec(heartbeat_interval_s=1e-3)
        sim = ClusterSimulator(spec, router="p2c",
                               detector_threshold=2.0, seed=0)
        events = [ClusterEvent(0.1, "partition", 1),
                  ClusterEvent(0.3, "heal", 1)]
        res = sim.run(_sparse_arrivals(60), events)
        nodes = {node for _, kind, node in res.detector_transitions
                 if kind == "evict"}
        assert nodes == set(spec.nodes_in_rack(1))
        assert ("heal", 1) in [(a, t) for _, a, t in res.event_log]

    def test_p2c_failover_retries_the_other_candidate(self):
        """Two nodes, one dead and never evicted: p2c prefers the dead
        node's stale backlog, so a request fails only when both picks
        are the dead node (1 in 4), not whenever the second is (1 in
        2)."""
        spec = _spec(racks=1, nodes_per_rack=2)
        sim = ClusterSimulator(spec, router="p2c", detector_threshold=None,
                               retries=1, seed=0)
        res = sim.run(_sparse_arrivals(4000, 1e-3),
                      [ClusterEvent(0.0, "crash", 1)])
        assert 0.2 < res.failed / res.total < 0.3
        assert res.count(SERVED) == res.total - res.failed

    def test_slow_events_stretch_latency(self):
        spec = _spec(racks=1, nodes_per_rack=1)
        sim = ClusterSimulator(spec, shed_on_deadline=False, seed=0)
        base = sim.run(_sparse_arrivals(10))
        slow = ClusterSimulator(spec, shed_on_deadline=False, seed=0)
        res = slow.run(_sparse_arrivals(10),
                       [ClusterEvent(0.0, "slow", 0, value=5.0)])
        assert np.nanmedian(res.latency_s) > \
            4 * np.nanmedian(base.latency_s)


class TestGracefulDegradation:
    def test_admission_sheds_over_rate(self):
        spec = _spec()
        sim = ClusterSimulator(
            spec, admission=TokenBucket(rate_rps=50.0, burst=1.0),
            brownout=None, seed=0)
        res = sim.run(np.arange(200) * 1e-3)  # 1000 rps offered
        assert res.count(SHED_ADMISSION) > 0.8 * res.total

    def test_brownout_absorbs_admission_rejects(self):
        spec = _spec()
        sim = ClusterSimulator(
            spec, admission=TokenBucket(rate_rps=50.0, burst=1.0),
            brownout=BrownoutPolicy(max_concurrent=256), seed=0)
        res = sim.run(np.arange(200) * 1e-3)
        assert res.count(BROWNOUT) > 0
        assert res.count(SHED_ADMISSION) < res.total
        # Brownout latencies are honest: at least the CPU latency,
        # never past the deadline.
        lat = res.latency_s[res.status == BROWNOUT]
        assert np.all(lat >= BrownoutPolicy().cpu_latency_s - 1e-12)
        assert np.all(lat <= spec.deadline_s + 1e-12)

    def test_deadline_shedding_vs_client_timeouts(self):
        """The same overload either becomes explicit sheds (mitigated)
        or client timeouts from unbounded queues (ablated)."""
        spec = _spec(racks=1, nodes_per_rack=1)
        overload = np.arange(400) * 0.5e-3  # 2x one node's capacity
        shed = ClusterSimulator(spec, shed_on_deadline=True,
                                brownout=None, seed=0).run(overload)
        assert shed.count(SHED_DEADLINE) > 0
        assert shed.deadline_violations == 0
        ablated = ClusterSimulator(spec, shed_on_deadline=False,
                                   brownout=None, seed=0).run(overload)
        assert ablated.count(TIMEOUT) > 0
        assert ablated.availability < shed.availability

    def test_all_dead_brownout_or_fail(self):
        spec = _spec()
        events = [ClusterEvent(0.0, "rack_down", 0),
                  ClusterEvent(0.0, "rack_down", 1)]
        res = ClusterSimulator(spec, brownout=None, seed=0).run(
            _sparse_arrivals(20), events)
        assert np.all(res.status == FAILED)
        assert res.failed == res.total
        res = ClusterSimulator(
            spec, brownout=BrownoutPolicy(max_concurrent=64),
            seed=0).run(_sparse_arrivals(20), events)
        assert res.count(BROWNOUT) == res.total


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        spec = _spec()
        events = [ClusterEvent(0.05, "rack_down", 0),
                  ClusterEvent(0.2, "rack_up", 0)]
        runs = []
        for _ in range(2):
            sim = ClusterSimulator(
                spec, admission=TokenBucket(rate_rps=3000.0),
                brownout=BrownoutPolicy(), seed=42)
            runs.append(sim.run(np.arange(500) * 4e-4, list(events)))
        a, b = runs
        assert np.array_equal(a.status, b.status)
        assert np.array_equal(a.latency_s, b.latency_s,
                              equal_nan=True)
        assert a.event_log == b.event_log

    def test_different_seed_differs(self):
        spec = _spec()
        arr = np.arange(2000) * 1e-4
        events = [ClusterEvent(0.02, "rack_down", 0)]
        a = ClusterSimulator(spec, router="random", retries=0,
                             detector_threshold=None,
                             seed=0).run(arr, list(events))
        b = ClusterSimulator(spec, router="random", retries=0,
                             detector_threshold=None,
                             seed=1).run(arr, list(events))
        assert not np.array_equal(a.status, b.status)

    @pytest.mark.parametrize("k", [1, 3, 24, 255, 256, 320, 65_543])
    def test_positions_equal_python_int(self, k):
        # The loop routes from numpy-cast positions; they must be the
        # int(draw * k) the per-request Python code computed.
        draws = np.random.default_rng(k).random((2, 4096))
        draws[0, :3] = [0.0, 0.5, np.nextafter(1.0, 0.0)]
        pos = _cast_product(draws, k)
        assert pos.dtype == np.min_scalar_type(k)
        assert [int(d * k) for d in draws.ravel().tolist()] \
            == pos.ravel().tolist()


class TestResultRendering:
    def test_render_smoke(self):
        res = ClusterSimulator(_spec(), seed=0).run(
            _sparse_arrivals(20))
        text = res.render()
        assert "availability: 100.000%" in text
        assert "served=20" in text

    def test_render_empty(self):
        text = ClusterSimulator(_spec(), seed=0).run([]).render()
        assert "n/a" in text

    def test_counts_cover_all_statuses(self):
        res = ClusterSimulator(_spec(), seed=0).run(
            _sparse_arrivals(5))
        counts = res.counts()
        assert set(counts) == {"served", "brownout", "shed_admission",
                               "shed_deadline", "failed", "timeout"}
        assert sum(counts.values()) == res.total


# A strongly sublinear measured shape for batched-node tests.
_BCURVE = ServiceTimeCurve((1, 2, 4, 8, 16),
                           (1e-3, 1.1e-3, 1.3e-3, 1.7e-3, 2.5e-3))


def _batching(**kw):
    defaults = dict(curve=_BCURVE, max_batch=16, timeout_s=1e-3)
    defaults.update(kw)
    return NodeBatching(**defaults)


class TestBatchedClusterValidation:
    @pytest.mark.parametrize("kw", [
        dict(curve=3.0),
        dict(max_batch=0),
        dict(timeout_s=-1e-3),
        dict(curve=lambda b: 0.0),
    ])
    def test_node_batching_validation(self, kw):
        with pytest.raises(ClusterError):
            _batching(**kw)

    @pytest.mark.parametrize("bad", [math.nan, -1e-3, math.inf],
                             ids=["nan", "negative", "inf"])
    def test_curve_checked_at_every_batch_size(self, bad):
        """Only ``curve(1)`` was checked: a NaN past it turned 20k
        requests into NaN-latency TIMEOUTs, a negative value into
        SHED_DEADLINEs."""
        def curve(b):
            return 1e-3 if b < 5 else bad

        with pytest.raises(ClusterError, match=r"curve\(5\)"):
            _batching(curve=curve)
        # A curve good up to max_batch is accepted.
        assert _batching(curve=curve, max_batch=4).max_batch == 4

    @pytest.mark.parametrize("kw", [
        dict(min_nodes=0),
        dict(min_nodes=4, max_nodes=2),
        dict(target_utilization=0.0),
        dict(target_utilization=1.5),
        dict(interval_s=0.0),
    ])
    def test_autoscale_policy_validation(self, kw):
        with pytest.raises(ClusterError):
            AutoscalePolicy(**kw)

    def test_autoscaler_requires_batching(self):
        with pytest.raises(ClusterError):
            ClusterSimulator(_spec(), autoscaler=AutoscalePolicy())

    @pytest.mark.parametrize("kw", [
        dict(admission=TokenBucket(rate_rps=20_000.0)),
        dict(brownout=BrownoutPolicy()),
    ])
    def test_batching_rejects_unbatched_mitigations(self, kw):
        """Admission and brownout act on an overloaded batched cluster,
        and a monitored run is bit-identical to an unmonitored one."""
        arrivals = np.arange(4000) / 40_000.0  # ~1.6x batched capacity

        def run(monitor):
            sim = ClusterSimulator(_spec(), batching=_batching(), seed=0,
                                   monitor=monitor, **kw)
            return sim.run(arrivals, [ClusterEvent(0.05, "crash", 1)])

        monitor = FleetMonitor(windows=16)
        res, bare = run(monitor), run(None)
        assert res.count(SHED_ADMISSION if "admission" in kw
                         else BROWNOUT) > 0
        assert res.count(SERVED) > 0.3 * res.total
        assert np.array_equal(res.status, bare.status)
        assert np.array_equal(res.latency_s, bare.latency_s,
                              equal_nan=True)
        assert res.event_log == bare.event_log
        assert res.batch_log == bare.batch_log
        assert monitor.scrapes > 0


class TestBatchedCluster:
    def test_sparse_load_all_served_batch1(self):
        """With no queueing pressure every dispatch is a singleton and
        the batched plane reduces to the unbatched one."""
        sim = ClusterSimulator(_spec(), batching=_batching(), seed=3)
        res = sim.run(_sparse_arrivals())
        assert res.availability == 1.0
        assert res.count(SERVED) == res.total
        assert res.batch_log is not None
        assert all(b == 1 for _, b in res.batch_log)
        assert res.mean_batch == 1.0

    def test_overload_coalesces_into_batches(self):
        """Arrivals faster than per-node batch-1 capacity force real
        batch formation; the measured curve keeps the cluster serving
        what a serial plane would drop."""
        spec = _spec(deadline_s=0.1)
        rate = 8000.0  # 2x the 4-node batch-1 capacity
        arrivals = np.arange(4000) / rate
        sim = ClusterSimulator(spec, batching=_batching(), seed=0)
        res = sim.run(arrivals)
        assert res.mean_batch > 2.0
        assert sum(b for _, b in res.batch_log) == res.count(SERVED) \
            + res.count(TIMEOUT)
        assert res.availability > 0.9
        assert "batching:" in res.render()

    def test_batched_run_is_seed_deterministic(self):
        runs = []
        for _ in range(2):
            sim = ClusterSimulator(_spec(), batching=_batching(),
                                   seed=11)
            runs.append(sim.run(np.arange(3000) * 2e-4))
        a, b = runs
        assert np.array_equal(a.status, b.status)
        assert np.array_equal(a.latency_s, b.latency_s,
                              equal_nan=True)
        assert a.batch_log == b.batch_log

    def test_crash_fails_queued_and_inflight_work(self):
        sim = ClusterSimulator(_spec(), batching=_batching(),
                               detector_threshold=None, retries=0,
                               router="random", seed=1)
        events = [ClusterEvent(0.0, "rack_down", 0)]
        res = sim.run(_sparse_arrivals(200), events)
        assert res.failed > 0.3 * res.total

    def test_autoscaler_tracks_load(self):
        """One node handles the warmup trickle; the burst pulls the
        active set up, and the trace records every resize."""
        spec = _spec(racks=2, nodes_per_rack=4, deadline_s=0.2)
        burst = np.concatenate([np.arange(100) * 2e-3,          # 500/s
                                0.2 + np.arange(4000) / 2e4])   # 20k/s
        sim = ClusterSimulator(
            spec, batching=_batching(),
            autoscaler=AutoscalePolicy(min_nodes=1, interval_s=0.1),
            seed=0)
        res = sim.run(burst)
        assert res.active_nodes_trace is not None
        assert res.active_nodes_trace[0][1] == 1
        assert max(n for _, n in res.active_nodes_trace) > 1
        assert "autoscaler:" in res.render()

    def test_batched_run_holds_few_bytes_per_request(self):
        """Peak traced memory of a 40k-request batched run, beyond its
        outcome arrays (status and latency), stays under 32 bytes a
        request.  The run holds the routing draws (16 bytes) and
        positions (2), the node attribution (1), a batch id (4) and
        ~36 bytes per dispatched batch: about 27 in all.  Outcomes are
        filled in bounded chunks after the loop, so one more float64
        array the size of the trace breaks the bound."""
        spec = ClusterSpec()
        curve = ServiceTimeCurve(
            (1, 2, 4, 8, 16),
            tuple(spec.service_time_s * k
                  for k in (1.0, 1.25, 1.75, 2.75, 4.75)))
        requests = 40_000
        mean = 0.5 * spec.num_nodes * 16 / curve(16)
        arrivals = np.ascontiguousarray(diurnal_arrivals(
            0.2 * mean, 1.8 * mean, 1.15 * requests / mean,
            period_s=requests / mean, seed=0)[:requests])
        events = [ClusterEvent(0.4 * float(arrivals[-1]), "rack_down", 0)]

        def run():
            return ClusterSimulator(
                spec, batching=NodeBatching(curve, 16, 1e-3),
                autoscaler=AutoscalePolicy(min_nodes=4), seed=1,
            ).run(arrivals, events)

        run()  # first-call allocations (caches, imports) stay out
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.mean_batch > 4.0
        outcomes = res.status.nbytes + res.latency_s.nbytes
        assert (peak - outcomes) / requests < 32.0

    def test_unbatched_result_has_no_batch_fields(self):
        res = ClusterSimulator(_spec(), seed=0).run(
            _sparse_arrivals(10))
        assert res.batch_log is None
        assert res.active_nodes_trace is None
        assert math.isnan(res.mean_batch)


class TestOneEventLoop:
    """Batch-1 serving is ``NodeBatching(max_batch=1, timeout_s=0)``:
    the fast path and the general batching path agree bit for bit, and
    both fail the work a lost node had accepted."""

    def test_batch1_node_batching_matches_unbatched(self):
        spec = ClusterSpec()
        scenario = SCENARIOS["rack_loss"](spec, 0, 20_000)

        def run(batching):
            sim = ClusterSimulator(spec, router="p2c", seed=1,
                                   batching=batching)
            return sim.run(scenario.arrivals, scenario.events)

        fast = run(None)
        general = run(NodeBatching(lambda b: b * spec.service_time_s,
                                   1, 0.0))
        assert fast.failed > 0
        assert np.array_equal(fast.status, general.status)
        assert np.array_equal(fast.latency_s, general.latency_s,
                              equal_nan=True)
        assert fast.event_log == general.event_log
        assert fast.detector_transitions == general.detector_transitions
        assert fast.batch_log is None
        assert general.batch_log
        assert all(b == 1 for _, b in general.batch_log)

    @pytest.mark.parametrize("batching", [
        None, NodeBatching(lambda b: b * 1e-3, 1, 0.0)],
        ids=["unbatched", "batch1"])
    def test_crash_fails_work_accepted_before_it(self, batching):
        """One node, 1 ms per request, 50 arrivals 0.1 ms apart and a
        crash at 10 ms with no repair: request k finishes at k+1 ms, so
        only the nine that finish before the crash are served."""
        spec = ClusterSpec(racks=1, nodes_per_rack=1, service_time_s=1e-3,
                           deadline_s=1.0, queue_depth=100)
        sim = ClusterSimulator(spec, detector_threshold=None, seed=0,
                               batching=batching)
        res = sim.run(np.arange(50) * 1e-4,
                      [ClusterEvent(10e-3, "crash", 0)])
        assert res.count(SERVED) == 9
        assert res.failed == 41
        assert (res.status[:9] == SERVED).all()
        assert np.isnan(res.latency_s[9:]).all()

    def test_event_at_close_applies_before_the_lazy_dispatch(self):
        """A lone request's batch closes at its timeout; a slow-down
        landing at that instant applies first, one just after does
        not."""
        spec = ClusterSpec(racks=1, nodes_per_rack=1)
        net_s = 2e-6 * spec.network.transfer_us(spec.payload_bytes)

        def latency(slow_at):
            sim = ClusterSimulator(spec, seed=0, batching=_batching())
            res = sim.run([0.0], [ClusterEvent(slow_at, "slow", 0, 4.0)])
            return res.latency_s[0]

        assert latency(1e-3) == pytest.approx(1e-3 + 4 * 1e-3 + net_s)
        assert latency(1.5e-3) == pytest.approx(1e-3 + 1e-3 + net_s)
