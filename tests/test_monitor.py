"""Fleet monitoring plane: scraping, ground truth, detection scoring."""

import numpy as np
import pytest

from repro.obs.scorecard import (FaultInterval, score_detection)
from repro.obs.slo import Alert
from repro.system import ClusterSpec
from repro.system.chaos import SCENARIOS
from repro.system.cluster import (ClusterError, ClusterEvent,
                                  ClusterSimulator, TokenBucket)
from repro.system.monitor import (FleetMonitor, default_slo,
                                  run_monitored_scenario,
                                  scenario_fault_intervals)

pytestmark = pytest.mark.tier1


# Small but fault-rich: the committed-seed acceptance checks run at
# this size (the benchmark suite re-checks at 50k+).
REQUESTS = 20_000


@pytest.fixture(scope="module")
def rack_loss_run():
    return run_monitored_scenario("rack_loss", requests=REQUESTS,
                                  seed=0)


class TestFleetMonitor:
    def test_validation(self):
        with pytest.raises(ClusterError):
            FleetMonitor(windows=4)
        with pytest.raises(ClusterError):
            FleetMonitor(interval_s=0.0)

    def test_scrapes_cover_the_grid(self, rack_loss_run):
        store = rack_loss_run.store
        up = store.find("cluster.nodes_up", scope="fleet")[0]
        # Every window got a gauge sample (scrapes land mid-window).
        assert up.evicted_windows == 0
        assert up.values().size == store.windows
        assert np.isfinite(up.values()).all()
        assert up.dropped_writes == 0

    def test_store_holds_fleet_and_rack_scopes(self, rack_loss_run):
        store = rack_loss_run.store
        scopes = store.label_values("cluster.requests", "scope")
        assert "fleet" in scopes
        assert any(s.startswith("rack") for s in scopes)
        assert store.find("cluster.latency_ms", scope="fleet")
        # Per-node backlog gauges for the backlog outlier rule.
        nodes = {g.labels["node"]
                 for g in store.find("cluster.backlog_s")
                 if "node" in g.labels}
        assert len(nodes) == ClusterSpec().num_nodes

    def test_fleet_counters_match_result(self, rack_loss_run):
        """Scraped counters reconcile exactly with the authoritative
        per-request result arrays."""
        result = rack_loss_run.result
        store = rack_loss_run.store
        total = sum(
            s.total() for s in store.find("cluster.requests",
                                          scope="fleet"))
        assert total == result.status.size
        q = store.find("cluster.latency_ms", scope="fleet")[0]
        assert q.count == int(np.isfinite(result.latency_s).sum())

    def test_pow2_buckets_match_searchsorted(self, rng):
        """The exponent-bit fast path bins exactly like searchsorted —
        including on edges, subnormals, and infinities."""
        from repro.system.monitor import (POW2_LATENCY_BOUNDS_MS,
                                          _pow2_buckets,
                                          _pow2_exponent)
        bounds = POW2_LATENCY_BOUNDS_MS
        e0 = _pow2_exponent(bounds)
        assert e0 == -4
        nb = len(bounds) + 1
        values = np.concatenate([
            rng.exponential(5.0, 10_000),
            np.asarray(bounds),                    # exact edges
            np.asarray(bounds) * (1 + 1e-12),      # just past edges
            [5e-324, 1e-310, 1e-30, np.inf]])      # degenerate tails
        got = _pow2_buckets(values.copy(), e0, nb)
        assert np.array_equal(got, np.searchsorted(bounds, values))
        # Non-pow2 ladders must refuse the fast path.
        assert _pow2_exponent((0.001, 0.0025, 0.005)) is None
        assert _pow2_exponent((1.0, 2.0, 8.0)) is None

    def test_monitored_run_is_bit_identical(self):
        """Attaching the monitor must not change a single outcome."""
        spec = ClusterSpec(racks=2, nodes_per_rack=2)
        arrivals = np.arange(2000) * 2e-4
        events = [ClusterEvent(0.1, "rack_down", 0),
                  ClusterEvent(0.25, "rack_up", 0)]

        def run(monitor):
            sim = ClusterSimulator(
                spec, admission=TokenBucket(rate_rps=4000.0), seed=7,
                monitor=monitor)
            return sim.run(arrivals, list(events))

        plain = run(None)
        monitored = run(FleetMonitor(windows=64))
        assert np.array_equal(plain.status, monitored.status)
        assert np.array_equal(plain.latency_s, monitored.latency_s,
                              equal_nan=True)
        assert plain.event_log == monitored.event_log
        assert plain.detector_transitions == \
            monitored.detector_transitions


class TestGroundTruth:
    def test_paired_events_become_intervals(self):
        spec = ClusterSpec()
        scenario = SCENARIOS["rack_loss"](spec, 0, REQUESTS)
        faults = scenario_fault_intervals(scenario)
        outages = [f for f in faults if f.kind == "rack_outage"]
        assert len(outages) == 1
        assert outages[0].scope.startswith("rack")
        assert outages[0].end_s > outages[0].start_s

    def test_rolling_slow_coalesces_to_one_interval(self):
        spec = ClusterSpec()
        scenario = SCENARIOS["rolling_slow"](spec, 0, REQUESTS)
        slows = [f for f in scenario_fault_intervals(scenario)
                 if f.kind == "rolling_slow"]
        assert len(slows) == 1
        assert slows[0].scope == "fleet"

    def test_overload_found_from_arrival_trace(self):
        spec = ClusterSpec()
        scenario = SCENARIOS["overload"](spec, 0, REQUESTS)
        over = [f for f in scenario_fault_intervals(scenario)
                if f.kind == "overload"]
        assert over, "sustained overload must appear in ground truth"
        for f in over:
            assert f.end_s > f.start_s


class TestScorecardMath:
    def test_synthetic_join(self):
        faults = [FaultInterval("outage", "rack0", 10.0, 20.0),
                  FaultInterval("overload", "fleet", 40.0, 50.0)]
        incidents = [
            Alert("burn", "page", "fleet", 12.0, 22.0, 9.0),  # hit 1
            Alert("burn", "page", "fleet", 70.0, 72.0, 9.0),  # false
        ]
        card = score_detection(incidents, faults, span_s=120.0,
                               grace_s=1.0)
        assert card.faults == 2
        assert card.detected == 1
        assert card.recall == 0.5
        assert card.precision == 0.5
        assert card.false_alarms == 1
        assert card.false_alarm_rate_per_min == pytest.approx(0.5)
        assert card.mttd_s == pytest.approx(2.0)
        assert "MISSED" in card.render()
        assert "false alarm" in card.render()

    def test_alert_firing_before_fault_detects_instantly(self):
        faults = [FaultInterval("outage", "rack0", 10.0, 20.0)]
        incidents = [Alert("burn", "page", "fleet", 8.0, 15.0, 2.0)]
        card = score_detection(incidents, faults, span_s=30.0)
        assert card.mttd_s == 0.0

    def test_empty_cases(self):
        card = score_detection([], [], span_s=10.0)
        assert card.precision == 1.0
        assert card.recall == 1.0
        assert card.mttd_s != card.mttd_s  # nan


class TestAcceptance:
    """The ISSUE acceptance bar at committed seeds: every scenario's
    mitigated run detects its faults with precision and recall."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_mitigated_detection(self, name):
        run = run_monitored_scenario(name, requests=REQUESTS, seed=0)
        card = run.scorecard
        assert card.faults > 0, "scenario must inject faults"
        assert card.precision >= 0.8, card.render()
        assert card.recall >= 0.8, card.render()
        assert card.mttd_s < 0.25 * run.store.span_s, card.render()

    def test_default_slo_shape(self):
        slo = default_slo(ClusterSpec())
        assert slo.availability_target == 0.999
        assert slo.latency_threshold_ms is not None
        assert slo.backlog_rules and slo.capacity_rules

    def test_unknown_scenario_raises(self):
        with pytest.raises(ClusterError):
            run_monitored_scenario("nope")
        with pytest.raises(ClusterError):
            run_monitored_scenario("rack_loss", requests=0)
