"""SLO monitor: burn-rate math, alert rules, incident merging."""

import numpy as np
import pytest

from repro.obs.slo import (Alert, BacklogRule, BurnRateRule,
                           CapacityRule, LatencyRule, SloMonitor,
                           availability_series, default_burn_rules,
                           merge_alerts, rolling_sum)
from repro.obs.timeseries import TimeSeriesStore

pytestmark = pytest.mark.tier1


def _store(windows=100, interval=1.0):
    return TimeSeriesStore(interval_s=interval, windows=windows)


def _fill_requests(store, scope, good_per_window, bad_per_window):
    """Write constant per-window good/bad request counts."""
    w = store.windows
    good = store.counter("cluster.requests", scope=scope,
                         status="served")
    bad = store.counter("cluster.requests", scope=scope,
                        status="failed")
    good.add_increments(np.full(w, float(good_per_window)))
    if bad_per_window:
        bad.add_increments(np.full(w, float(bad_per_window)))


class TestPrimitives:
    def test_rolling_sum_matches_naive(self, rng):
        x = rng.integers(0, 10, size=50).astype(float)
        for w in (1, 3, 7, 50, 80):
            got = rolling_sum(x, w)
            want = np.array([x[max(0, i - w + 1):i + 1].sum()
                             for i in range(x.size)])
            assert np.allclose(got, want), w

    def test_rolling_sum_invalid_window(self):
        with pytest.raises(ValueError):
            rolling_sum(np.zeros(4), 0)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            BurnRateRule("r", long_s=1.0, short_s=2.0, factor=8.0)
        with pytest.raises(ValueError):
            BurnRateRule("r", long_s=2.0, short_s=1.0, factor=0.0)
        with pytest.raises(ValueError):
            BurnRateRule("r", long_s=2.0, short_s=1.0, factor=8.0,
                         severity="sms")
        with pytest.raises(ValueError):
            LatencyRule("r", window_s=0.0, threshold_ms=1.0)
        with pytest.raises(ValueError):
            LatencyRule("r", window_s=1.0, threshold_ms=1.0, q=100.0)
        with pytest.raises(ValueError):
            BacklogRule(abs_floor_s=0.0)
        with pytest.raises(ValueError):
            CapacityRule(min_fraction=1.5)
        with pytest.raises(ValueError):
            SloMonitor(availability_target=1.0)
        with pytest.raises(ValueError):
            default_burn_rules(0.0)

    def test_default_rules_scale_with_span(self):
        fast, slow = default_burn_rules(100.0)
        assert fast.long_s == 4.0 and fast.short_s == 1.0
        assert slow.long_s == 12.0 and slow.short_s == 3.0
        assert fast.factor > slow.factor


class TestAvailability:
    def test_availability_series(self):
        store = _store(windows=4)
        good = store.counter("cluster.requests", scope="fleet",
                             status="served")
        bad = store.counter("cluster.requests", scope="fleet",
                            status="failed")
        good.add_increments([2.0, 1.0])
        bad.add_increments([1.0], first_window=1)
        avail = availability_series(store)
        assert avail[0] == 1.0
        assert avail[1] == 0.5
        assert np.isnan(avail[2])

    def test_brownout_counts_as_good(self):
        store = _store(windows=2)
        store.counter("cluster.requests", scope="fleet",
                      status="brownout").add_increments([1.0])
        assert availability_series(store)[0] == 1.0


class TestBurnRateAlerts:
    def test_clean_run_no_alerts(self):
        store = _store()
        _fill_requests(store, "fleet", 50, 0)
        assert SloMonitor(0.999).evaluate(store) == []

    def test_error_burst_fires_and_clears(self):
        store = _store(windows=100)
        good = store.counter("cluster.requests", scope="fleet",
                             status="served")
        bad = store.counter("cluster.requests", scope="fleet",
                            status="failed")
        good.add_increments(np.full(40, 50.0))
        bad.add_increments(np.full(10, 50.0), first_window=40)
        good.add_increments(np.full(50, 50.0), first_window=50)
        alerts = SloMonitor(0.999).evaluate(store)
        assert alerts, "burst must fire"
        first = alerts[0]
        assert first.scope == "fleet"
        assert first.start_s <= 45.0
        # Clears within the longest trailing window after the burst.
        assert max(a.end_s for a in alerts) <= 50.0 + 12.0 + 1.0

    def test_short_blip_rejected_by_long_window(self):
        store = _store(windows=200)
        good = store.counter("cluster.requests", scope="fleet",
                             status="served")
        bad = store.counter("cluster.requests", scope="fleet",
                            status="failed")
        # One window at 1% errors: the short view spikes but the
        # 8-window long view dilutes it below the strict factor.
        served = np.full(200, 100.0)
        served[100] = 99.0
        good.add_increments(served)
        bad.add_increments([1.0], first_window=100)
        rules = [BurnRateRule("strict", long_s=8.0, short_s=2.0,
                              factor=1000.0)]
        assert SloMonitor(0.999, burn_rules=rules).evaluate(store) == []

    def test_per_scope_breakdown(self):
        store = _store(windows=100)
        _fill_requests(store, "fleet", 50, 0)
        bad = store.counter("cluster.requests", scope="rack1",
                            status="failed")
        bad.add_increments(np.full(10, 30.0), first_window=40)
        scopes = {a.scope for a in SloMonitor(0.999).evaluate(store)}
        assert scopes == {"rack1"}


class TestLatencyAlerts:
    def test_latency_rule_fires_on_tail_spike(self):
        store = _store(windows=64)
        qw = store.quantile("cluster.latency_ms", scope="fleet",
                            bounds=tuple(np.geomspace(0.1, 100, 60)))
        # 20 requests a window: 50 ms in windows 30-39, else 1 ms.
        ms = np.where((np.arange(64) >= 30) & (np.arange(64) < 40),
                      50.0, 1.0)
        counts = np.zeros_like(qw.counts)
        counts[np.arange(64), np.searchsorted(qw.bounds, ms)] = 20
        qw.add_counts(counts, 20 * ms)
        mon = SloMonitor(0.999, burn_rules=[],
                         latency_rules=[LatencyRule(
                             "p99", window_s=2.0, threshold_ms=10.0)])
        alerts = mon.evaluate(store)
        assert alerts
        assert alerts[0].rule == "p99"
        assert 29.0 <= alerts[0].start_s <= 31.0
        assert all(a.peak > 10.0 for a in alerts)


class TestBacklogAlerts:
    def test_single_node_outlier_fires(self):
        store = _store(windows=32)
        for node in range(8):
            g = store.gauge("cluster.backlog_s", scope="rack0",
                            node=str(node))
            vals = np.full(32, 0.001)
            if node == 3:
                vals[10:20] = 0.5
            g.record_values(vals)
        mon = SloMonitor(0.999, burn_rules=[],
                         backlog_rules=[BacklogRule(
                             abs_floor_s=0.01, rel_factor=6.0,
                             min_windows=2)])
        alerts = mon.evaluate(store)
        assert len(alerts) == 1
        assert alerts[0].rule == "node_backlog"
        assert 9.0 <= alerts[0].start_s <= 11.0

    def test_uniform_saturation_does_not_fire(self):
        store = _store(windows=32)
        for node in range(8):
            g = store.gauge("cluster.backlog_s", scope="rack0",
                            node=str(node))
            g.record_values(np.full(32, 0.5))  # everyone equally backed up
        mon = SloMonitor(0.999, burn_rules=[],
                         backlog_rules=[BacklogRule(
                             abs_floor_s=0.01, rel_factor=6.0)])
        assert mon.evaluate(store) == []


class TestCapacityAlerts:
    def test_live_node_drop_fires(self):
        store = _store(windows=32)
        g = store.gauge("cluster.nodes_live", scope="fleet")
        live = np.full(32, 24.0)
        live[12:20] = 18.0
        g.record_values(live)
        mon = SloMonitor(0.999, burn_rules=[],
                         capacity_rules=[CapacityRule()])
        alerts = mon.evaluate(store)
        assert len(alerts) == 1
        assert alerts[0].rule == "fleet_capacity"
        assert alerts[0].peak == 6.0
        assert 11.0 <= alerts[0].start_s <= 13.0

    def test_full_fleet_never_fires(self):
        store = _store(windows=8)
        g = store.gauge("cluster.nodes_live", scope="fleet")
        g.record_values(np.full(8, 24.0))
        mon = SloMonitor(0.999, burn_rules=[],
                         capacity_rules=[CapacityRule()])
        assert mon.evaluate(store) == []


class TestIncidents:
    def test_merge_overlapping_same_scope(self):
        alerts = [Alert("a", "ticket", "fleet", 1.0, 3.0, 5.0),
                  Alert("b", "page", "fleet", 2.0, 4.0, 9.0),
                  Alert("a", "ticket", "rack0", 1.5, 2.0, 2.0)]
        incidents = merge_alerts(alerts)
        assert len(incidents) == 2
        fleet = [i for i in incidents if i.scope == "fleet"][0]
        assert fleet.rule == "a+b"
        assert (fleet.start_s, fleet.end_s) == (1.0, 4.0)
        assert fleet.severity == "page"
        assert fleet.peak == 9.0

    def test_join_gap_bridges_nearby(self):
        alerts = [Alert("a", "page", "fleet", 1.0, 2.0, 1.0),
                  Alert("a", "page", "fleet", 2.5, 3.0, 1.0)]
        assert len(merge_alerts(alerts)) == 2
        assert len(merge_alerts(alerts, join_gap_s=1.0)) == 1

    def test_grace_includes_longest_window(self):
        mon = SloMonitor(0.999)
        assert mon.grace_s(100.0) == pytest.approx(12.0)
        mon = SloMonitor(0.999, latency_threshold_ms=5.0)
        assert mon.grace_s(1000.0) == pytest.approx(120.0)
