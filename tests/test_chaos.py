"""Correlated fault injection and the chaos scenario catalog."""

import math

import numpy as np
import pytest

from repro.system.chaos import (
    SCENARIOS,
    ChaosScenario,
    CorrelatedFaultInjector,
    RepairDistribution,
    run_chaos_scenario,
)
from repro.system.cluster import ClusterError, ClusterSpec
from repro.system.faults import FaultInjector


SPEC = ClusterSpec(racks=2, nodes_per_rack=3)


class TestRepairDistribution:
    def test_validation(self):
        with pytest.raises(ClusterError):
            RepairDistribution(kind="weibull")
        with pytest.raises(ClusterError):
            RepairDistribution(mean_s=0.0)
        with pytest.raises(ClusterError):
            RepairDistribution(sigma=0.0)

    def test_fixed_is_exact(self):
        rng = np.random.default_rng(0)
        dist = RepairDistribution("fixed", mean_s=12.0)
        assert dist.draw(rng) == 12.0

    @pytest.mark.parametrize("kind", ["fixed", "exponential",
                                      "lognormal"])
    def test_draw_positive_and_deterministic(self, kind):
        dist = RepairDistribution(kind, mean_s=30.0)
        a = dist.draw(np.random.default_rng(7))
        b = dist.draw(np.random.default_rng(7))
        assert a == b and a > 0

    @pytest.mark.parametrize("kind", ["exponential", "lognormal"])
    def test_mean_roughly_respected(self, kind):
        rng = np.random.default_rng(1)
        dist = RepairDistribution(kind, mean_s=30.0, sigma=0.5)
        draws = [dist.draw(rng) for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(30.0, rel=0.15)

    def test_one_uniform_per_draw(self):
        """Every kind consumes exactly one draw, so swapping the
        repair model never shifts later events in the stream."""
        after = {}
        for kind in ("fixed", "exponential", "lognormal"):
            rng = np.random.default_rng(3)
            RepairDistribution(kind).draw(rng)
            after[kind] = rng.random()
        assert len(set(after.values())) == 1


class TestCorrelatedFaultInjector:
    def _injector(self, **kw):
        kw.setdefault("repair", RepairDistribution("fixed", mean_s=5.0))
        return CorrelatedFaultInjector(SPEC, seed=0, **kw)

    def test_is_a_fault_injector(self):
        assert isinstance(self._injector(), FaultInjector)

    def test_rack_outage_pairs_down_and_up(self):
        events = self._injector().rack_outage(1, at_s=10.0)
        assert [e.action for e in events] == ["rack_down", "rack_up"]
        assert events[0].target == events[1].target == 1
        assert events[1].time_s == pytest.approx(15.0)

    def test_rack_outage_validates_rack(self):
        with pytest.raises(ClusterError):
            self._injector().rack_outage(SPEC.racks, at_s=0.0)

    def test_tor_partition(self):
        events = self._injector().tor_partition(0, at_s=1.0,
                                                duration_s=2.0)
        assert [e.action for e in events] == ["partition", "heal"]
        assert events[1].time_s == pytest.approx(3.0)
        with pytest.raises(ClusterError):
            self._injector().tor_partition(0, at_s=1.0,
                                           duration_s=0.0)

    def test_rolling_slowdown(self):
        events = self._injector().rolling_slowdown(
            4.0, start_s=1.0, dwell_s=0.5)
        slows = [e for e in events if e.action == "slow"]
        assert len(slows) == SPEC.num_nodes
        assert [e.target for e in slows] == list(range(SPEC.num_nodes))
        assert slows[1].time_s - slows[0].time_s == pytest.approx(0.5)
        with pytest.raises(ClusterError):
            self._injector().rolling_slowdown(0.5, 0.0, 1.0)
        with pytest.raises(ClusterError):
            self._injector().rolling_slowdown(2.0, 0.0, 0.0)

    def test_deterministic_event_streams(self):
        def events(seed):
            inj = CorrelatedFaultInjector(SPEC, seed=seed)
            return [e for rack in range(SPEC.racks)
                    for e in inj.rack_outage(rack, at_s=10.0)
                    + inj.tor_partition(rack, at_s=20.0)]

        a = events(5)
        assert a == events(5)
        assert a != events(6)


class TestScenarioCatalog:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_builders_produce_scenarios(self, name):
        scenario = SCENARIOS[name](SPEC, 0, 2000)
        assert isinstance(scenario, ChaosScenario)
        assert scenario.name == name
        assert scenario.description
        arr = np.asarray(scenario.arrivals)
        assert arr.size > 0 and np.all(np.diff(arr) >= 0)
        for ev in scenario.events:
            assert ev.time_s >= 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ClusterError):
            run_chaos_scenario("meteor_strike")
        with pytest.raises(ClusterError):
            run_chaos_scenario("overload", requests=0)

    def test_scenarios_deterministic(self):
        a = run_chaos_scenario("rack_loss", spec=SPEC,
                               requests=5000, seed=9)
        b = run_chaos_scenario("rack_loss", spec=SPEC,
                               requests=5000, seed=9)
        assert np.array_equal(a.status, b.status)
        assert np.array_equal(a.latency_s, b.latency_s,
                              equal_nan=True)

    def test_mitigations_beat_ablation_on_rack_loss(self):
        mit = run_chaos_scenario("rack_loss", spec=SPEC,
                                 requests=20_000, seed=0)
        abl = run_chaos_scenario("rack_loss", spec=SPEC,
                                 requests=20_000, seed=0,
                                 mitigated=False)
        assert not math.isnan(mit.availability)
        assert mit.availability > abl.availability

    def test_overload_mitigation_sheds_instead_of_timing_out(self):
        mit = run_chaos_scenario("overload", spec=SPEC,
                                 requests=20_000, seed=0)
        abl = run_chaos_scenario("overload", spec=SPEC,
                                 requests=20_000, seed=0,
                                 mitigated=False)
        assert mit.availability > abl.availability
        assert mit.shed > 0 and mit.deadline_violations == 0
        assert abl.deadline_violations > 0
