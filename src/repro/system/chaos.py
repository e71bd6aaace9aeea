"""Correlated fault injection and the chaos scenario catalog.

PR 1's :class:`~repro.system.faults.FaultInjector` models *independent*
per-invocation faults.  Real fleets fail in correlated ways: a rack
power event takes down ``nodes_per_rack`` replicas at once, a TOR
switch failure partitions a whole rack while its nodes keep running,
slow nodes roll through the fleet as firmware updates or thermal events
migrate, and repair is not instant but drawn from a distribution.
:class:`CorrelatedFaultInjector` extends the fault injector with those
domain-scoped faults, emitting the :class:`~repro.system.cluster.ClusterEvent`
streams the cluster simulator consumes.

The **scenario catalog** scripts named chaos experiments over that
machinery — the situations a datacenter operator actually drills:

* ``rack_loss`` — a rack power event in the middle of a traffic burst;
* ``rolling_slow`` — an 8x slowdown rolling node-by-node through the
  fleet under diurnal traffic;
* ``partition`` — a TOR partition and its heal: the detector must
  evict the unreachable rack and readmit it afterwards;
* ``overload`` — heavy-tailed traffic beyond aggregate capacity:
  admission control, deadline shedding, and brownout decide who waits,
  who degrades, and who is turned away.

Every scenario is built from one seed: arrival trace, fault times, and
repair draws all derive from it, so a scenario replays bit-identically.
``run_chaos_scenario(..., mitigated=False)`` ablates the robustness
machinery (random routing, no failure detector, no admission control,
no shedding, no brownout) to quantify what the mitigations buy — the
chaos benchmark archives both sides.
"""

from __future__ import annotations

import dataclasses
import math
from statistics import NormalDist
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs import Metrics, Tracer
from .cluster import (BrownoutPolicy, ClusterError, ClusterEvent,
                      ClusterResult, ClusterSimulator, ClusterSpec,
                      TokenBucket)
from .faults import FaultInjector, FaultProfile
from .loadgen import bursty_arrivals, diurnal_arrivals, \
    heavy_tailed_arrivals


_REPAIR_KINDS = ("fixed", "exponential", "lognormal")


@dataclasses.dataclass(frozen=True)
class RepairDistribution:
    """Time-to-repair model for crash-until-repair faults.

    ``fixed`` repairs after exactly ``mean_s``; ``exponential`` draws
    with mean ``mean_s``; ``lognormal`` (the empirical shape of human
    plus automated repair) uses ``mean_s`` as the mean with log-space
    spread ``sigma``.
    """

    kind: str = "lognormal"
    mean_s: float = 30.0
    sigma: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in _REPAIR_KINDS:
            raise ClusterError(
                f"unknown repair distribution {self.kind!r}; "
                f"one of {_REPAIR_KINDS}")
        if self.mean_s <= 0:
            raise ClusterError("repair mean_s must be positive")
        if self.sigma <= 0:
            raise ClusterError("repair sigma must be positive")

    def draw(self, rng: np.random.Generator) -> float:
        """One repair time (seconds). Always consumes exactly one
        draw, so event streams stay seed-aligned across kinds."""
        u = rng.random()
        if self.kind == "fixed":
            return self.mean_s
        if self.kind == "exponential":
            return -self.mean_s * math.log(1.0 - u)
        # Lognormal via the inverse-transformed uniform: mean_s is the
        # distribution mean, so mu compensates for sigma^2/2.
        z = NormalDist().inv_cdf(min(max(u, 1e-12), 1.0 - 1e-12))
        mu = math.log(self.mean_s) - 0.5 * self.sigma ** 2
        return math.exp(mu + self.sigma * z)


class CorrelatedFaultInjector(FaultInjector):
    """Domain-aware fault source layered on the per-invocation model.

    Keeps the whole :class:`~repro.system.faults.FaultInjector` API
    (``sample``/``crash``/``repair`` for registry-scope serving) and
    adds builders for correlated, domain-scoped fault event streams
    with drawn repair times.  All draws come from a private seeded
    generator — distinct from the per-invocation RNG, so adding
    cluster events never shifts the invocation fault sequence.
    """

    def __init__(self, spec: ClusterSpec,
                 profile: Optional[FaultProfile] = None,
                 repair: Optional[RepairDistribution] = None,
                 seed: int = 0):
        super().__init__(profile, seed=seed)
        self.spec = spec
        self.repair_dist = (repair if repair is not None
                            else RepairDistribution())
        self._np_rng = np.random.default_rng(seed + 0x5EED)

    # -- correlated event-stream builders ---------------------------------

    def rack_outage(self, rack: int, at_s: float) -> List[ClusterEvent]:
        """Rack power event: every node in the rack crashes at once;
        the rack comes back after one drawn repair time."""
        self.spec.nodes_in_rack(rack)  # validates the rack index
        repair = self.repair_dist.draw(self._np_rng)
        return [ClusterEvent(at_s, "rack_down", rack),
                ClusterEvent(at_s + repair, "rack_up", rack)]

    def tor_partition(self, rack: int, at_s: float,
                      duration_s: Optional[float] = None
                      ) -> List[ClusterEvent]:
        """TOR failure: the rack's nodes stay up but are unreachable
        until the partition heals (drawn unless given)."""
        self.spec.nodes_in_rack(rack)
        if duration_s is None:
            duration_s = self.repair_dist.draw(self._np_rng)
        elif duration_s <= 0:
            raise ClusterError("partition duration_s must be positive")
        return [ClusterEvent(at_s, "partition", rack),
                ClusterEvent(at_s + duration_s, "heal", rack)]

    def rolling_slowdown(self, factor: float, start_s: float,
                         dwell_s: float,
                         nodes: Optional[List[int]] = None
                         ) -> List[ClusterEvent]:
        """A slowdown (thermal event, background scrub) rolling through
        ``nodes`` (default: the whole fleet), one at a time, each
        degraded for ``dwell_s``."""
        if factor < 1.0:
            raise ClusterError("slowdown factor must be >= 1")
        if dwell_s <= 0:
            raise ClusterError("dwell_s must be positive")
        if nodes is None:
            nodes = list(range(self.spec.num_nodes))
        events: List[ClusterEvent] = []
        for k, node in enumerate(nodes):
            t = start_s + k * dwell_s
            events.append(ClusterEvent(t, "slow", node, factor))
            events.append(ClusterEvent(t + dwell_s, "unslow", node))
        return events


# ---------------------------------------------------------------------------
# Scenario catalog
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ChaosScenario:
    """One named chaos experiment: arrival trace + fault events."""

    name: str
    description: str
    arrivals: np.ndarray
    events: List[ClusterEvent]
    spec: ClusterSpec


ScenarioBuilder = Callable[[ClusterSpec, int, int], ChaosScenario]


def _duration_for(spec: ClusterSpec, requests: int,
                  load_fraction: float) -> Tuple[float, float]:
    """(rate, duration) putting ``requests`` at ``load_fraction`` of
    aggregate capacity."""
    rate = load_fraction * spec.capacity_rps
    return rate, requests / rate


def build_rack_loss(spec: ClusterSpec, seed: int,
                    requests: int) -> ChaosScenario:
    """A rack power event mid-burst: bursty traffic at ~60% of
    capacity loses 1/racks of the fleet right as a burst lands."""
    rate, duration = _duration_for(spec, requests, 0.6)
    arrivals = bursty_arrivals(
        0.5 * rate, 2.0 * rate, duration,
        mean_quiet_s=duration / 8, mean_burst_s=duration / 12,
        seed=seed)
    injector = CorrelatedFaultInjector(
        spec, repair=RepairDistribution("fixed",
                                        mean_s=0.25 * duration),
        seed=seed)
    events = injector.rack_outage(0, 0.4 * duration)
    return ChaosScenario(
        "rack_loss",
        "rack 0 power loss mid-burst, fixed repair at 25% of the run",
        arrivals, events, spec)


def build_rolling_slow(spec: ClusterSpec, seed: int,
                       requests: int) -> ChaosScenario:
    """Slow nodes rolling through the fleet under diurnal traffic."""
    rate, duration = _duration_for(spec, requests, 0.55)
    arrivals = diurnal_arrivals(0.4 * rate, 1.6 * rate, duration,
                                period_s=duration, seed=seed)
    injector = CorrelatedFaultInjector(spec, seed=seed)
    dwell = 0.6 * duration / spec.num_nodes
    events = injector.rolling_slowdown(8.0, 0.2 * duration, dwell)
    return ChaosScenario(
        "rolling_slow",
        "8x slowdown rolling node-by-node under diurnal load",
        arrivals, events, spec)


def build_partition(spec: ClusterSpec, seed: int,
                    requests: int) -> ChaosScenario:
    """TOR partition and recovery: a rack is unreachable for a third
    of the run, then heals — evict and readmit."""
    rate, duration = _duration_for(spec, requests, 0.5)
    arrivals = diurnal_arrivals(0.8 * rate, 1.2 * rate, duration,
                                period_s=2 * duration, seed=seed)
    injector = CorrelatedFaultInjector(spec, seed=seed)
    events = injector.tor_partition(spec.racks - 1, 0.3 * duration,
                                    duration_s=duration / 3)
    return ChaosScenario(
        "partition",
        "TOR partition of the last rack for 1/3 of the run, then heal",
        arrivals, events, spec)


def build_overload(spec: ClusterSpec, seed: int,
                   requests: int) -> ChaosScenario:
    """Heavy-tailed traffic beyond capacity: 1.4x aggregate capacity
    with Pareto gaps; no injected faults — overload *is* the fault."""
    rate = 1.4 * spec.capacity_rps
    arrivals = heavy_tailed_arrivals(rate, requests, alpha=1.6,
                                     seed=seed)
    return ChaosScenario(
        "overload",
        "heavy-tailed arrivals at 1.4x aggregate capacity, no faults",
        np.asarray(arrivals), [], spec)


SCENARIOS: Dict[str, ScenarioBuilder] = {
    "rack_loss": build_rack_loss,
    "rolling_slow": build_rolling_slow,
    "partition": build_partition,
    "overload": build_overload,
}


def _simulator(spec: ClusterSpec, mitigated: bool, seed: int,
               tracer: Optional[Tracer],
               metrics: Optional[Metrics]) -> ClusterSimulator:
    """The mitigated stack vs the ablated baseline.

    Mitigated: p2c routing, phi-accrual detection, token-bucket
    admission at ~95% of capacity, deadline shedding, CPU brownout.
    Ablated: random routing, no detection, no admission, no shedding,
    no brownout, no failover retry — requests land where they land.
    """
    if mitigated:
        return ClusterSimulator(
            spec, router="p2c",
            admission=TokenBucket(rate_rps=0.95 * spec.capacity_rps,
                                  burst=4.0 * spec.num_nodes),
            brownout=BrownoutPolicy(max_concurrent=spec.num_nodes),
            detector_threshold=8.0, shed_on_deadline=True, retries=1,
            seed=seed, tracer=tracer, metrics=metrics)
    return ClusterSimulator(
        spec, router="random", admission=None, brownout=None,
        detector_threshold=None, shed_on_deadline=False, retries=0,
        seed=seed, tracer=tracer, metrics=metrics)


def run_chaos_scenario(name: str, spec: Optional[ClusterSpec] = None,
                       requests: int = 50_000, seed: int = 0,
                       mitigated: bool = True,
                       tracer: Optional[Tracer] = None,
                       metrics: Optional[Metrics] = None,
                       monitor=None) -> ClusterResult:
    """Build and run one named scenario; bit-deterministic per seed.

    ``monitor`` (a :class:`~repro.system.monitor.FleetMonitor`)
    attaches the telemetry plane without perturbing the run — see
    :func:`~repro.system.monitor.run_monitored_scenario` for the
    scored end-to-end pipeline.
    """
    if name not in SCENARIOS:
        raise ClusterError(
            f"unknown chaos scenario {name!r}; one of "
            f"{sorted(SCENARIOS)}")
    if requests < 1:
        raise ClusterError("requests must be >= 1")
    spec = spec if spec is not None else ClusterSpec()
    scenario = SCENARIOS[name](spec, seed, requests)
    sim = _simulator(spec, mitigated, seed + 1, tracer, metrics)
    sim.monitor = monitor
    return sim.run(scenario.arrivals, scenario.events)


def chaos_suite(requests: int = 50_000, seed: int = 0,
                spec: Optional[ClusterSpec] = None):
    """Run every scenario, mitigated and ablated, into one table.

    Returns an :class:`~repro.harness.tables.ExperimentTable` with
    availability, goodput, shed/violated counts, and p99/p99.9 per
    scenario — the archived artifact of the chaos benchmark.
    """
    from ..harness.tables import ExperimentTable
    spec = spec if spec is not None else ClusterSpec()

    def fmt_pct(x: float) -> str:
        return "n/a" if math.isnan(x) else f"{100 * x:.3f}"

    def fmt_ms(x: float) -> str:
        return "n/a" if math.isnan(x) else f"{x:.2f}"

    rows = []
    for name in SCENARIOS:
        for mitigated in (True, False):
            res = run_chaos_scenario(name, spec=spec,
                                     requests=requests, seed=seed,
                                     mitigated=mitigated)
            rows.append([
                name, "mitigated" if mitigated else "ablated",
                f"{res.total}", fmt_pct(res.availability),
                f"{res.goodput_rps:.0f}", f"{res.shed}",
                f"{res.deadline_violations}",
                fmt_ms(res.p99_ms), fmt_ms(res.p999_ms)])
    return ExperimentTable(
        title=f"Chaos suite: {spec.racks}x{spec.nodes_per_rack} nodes, "
              f"{requests} requests/scenario, seed {seed}",
        headers=["scenario", "stack", "reqs", "avail %", "goodput/s",
                 "shed", "violated", "p99 ms", "p99.9 ms"],
        rows=rows,
        notes=["mitigated = p2c routing + phi-accrual detection + "
               "token-bucket admission + deadline shedding + CPU "
               "brownout; ablated = random routing, no detection, no "
               "admission, no shedding",
               "shed counts admission + deadline sheds; violated = "
               "completed past the SLO deadline",
               "scenarios: " + "; ".join(
                   f"{n}: {SCENARIOS[n](spec, seed, 10).description}"
                   for n in SCENARIOS)])
