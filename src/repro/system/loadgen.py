"""Arrival traces and fault scenarios for the serving simulations.

* **Arrival traces**: Poisson and uniform request lists for the
  single-queue comparisons, and vectorized diurnal, bursty and
  heavy-tailed numpy traces for million-request cluster runs.
* :class:`ServedRequest`: one request's lifecycle timestamps, the
  per-request record of
  :class:`~repro.system.batching.BatchServeResult`.
* **Fault scenarios**: :func:`run_fault_scenario` drives a trace
  through a :class:`~repro.system.faults.ResilientClient` under
  injected crashes, transient failures and tail spikes.

Queueing itself lives in :class:`~repro.system.batching.DynamicBatcher`
(one batching queue in front of one node; batch-1 serving is its
``BatchPolicy(1, 0.0)``) and :class:`~repro.system.cluster
.ClusterSimulator` (a fleet).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ReproError
from ..obs import Metrics, Tracer, or_null, or_null_metrics, \
    percentile_or_nan
from .faults import FaultInjector, InvocationOutcome, ResilientClient


class LoadError(ReproError):
    """Invalid load-generation parameters."""


@dataclasses.dataclass(frozen=True)
class ServedRequest:
    """One request's lifecycle timestamps (seconds)."""

    arrival: float
    start: float
    finish: float

    @property
    def latency(self) -> float:
        return self.finish - self.arrival

    @property
    def queue_wait(self) -> float:
        return self.start - self.arrival


def checked_trace(arrivals: Sequence[float], error: type) -> np.ndarray:
    """``arrivals`` as a C-contiguous float64 array, raising ``error``
    at the first NaN or infinite time, or if the trace is unsorted."""
    times = np.ascontiguousarray(arrivals, dtype=np.float64)
    finite = np.isfinite(times)
    if not finite.all():
        k = int(np.argmin(finite))
        raise error(f"arrival {k} is {times[k]}; arrival times must "
                    f"be finite")
    if times.size and np.any(np.diff(times) < 0):
        raise error("arrivals must be sorted")
    return times


def poisson_arrivals(rate_rps: float, count: int,
                     seed: int = 0) -> List[float]:
    """Arrival times of a Poisson process at ``rate_rps``."""
    if rate_rps <= 0 or count < 1:
        raise LoadError("rate and count must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, count)
    return list(np.cumsum(gaps))


# ---------------------------------------------------------------------------
# Open-loop arrival traces (vectorized)
#
# The cluster/chaos simulations drive 1e6+ simulated requests, so trace
# synthesis is fully vectorized: each generator is a handful of numpy
# calls with no per-request Python work, seeded for bit-determinism.
# Non-homogeneous processes use Lewis-Shedler thinning of a homogeneous
# Poisson process at the peak rate.
# ---------------------------------------------------------------------------

def _homogeneous_times(rate_rps: float, duration_s: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Event times of a homogeneous Poisson process over a duration:
    the sorted prefix below ``duration_s`` of the drawn times, as a
    slice (the draw is about 10% longer than the result)."""
    blocks: List[np.ndarray] = []
    t = 0.0
    # Over-draw ~10% past the expected count, looping in the (rare)
    # case the trace still falls short of the duration.
    chunk = max(int(rate_rps * duration_s * 1.1) + 16, 64)
    while t < duration_s:
        block = rng.exponential(1.0 / rate_rps, chunk)
        np.cumsum(block, out=block)
        block += t
        blocks.append(block)
        t = float(block[-1])
    times = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return times[:np.searchsorted(times, duration_s)]


def diurnal_arrivals(base_rate_rps: float, peak_rate_rps: float,
                     duration_s: float, period_s: float = 86400.0,
                     seed: int = 0) -> np.ndarray:
    """Sinusoidal diurnal traffic: rate swings ``base`` -> ``peak`` ->
    ``base`` over each ``period_s`` (trough at t=0, peak at half
    period)."""
    if base_rate_rps <= 0 or peak_rate_rps < base_rate_rps:
        raise LoadError(
            f"need 0 < base_rate ({base_rate_rps}) <= peak_rate "
            f"({peak_rate_rps})")
    if duration_s <= 0 or period_s <= 0:
        raise LoadError("duration and period must be positive")
    rng = np.random.default_rng(seed)
    t = _homogeneous_times(peak_rate_rps, duration_s, rng)
    # The thinning probability, one operation at a time in one buffer:
    # base + (peak - base) * 0.5 * (1 - cos(2 pi t / period)), / peak.
    p = np.multiply(t, 2.0 * np.pi)
    p /= period_s
    np.cos(p, out=p)
    np.subtract(1.0, p, out=p)
    p *= (peak_rate_rps - base_rate_rps) * 0.5
    p += base_rate_rps
    p /= peak_rate_rps
    keep = rng.random(t.size) < p
    return t[keep]


def bursty_arrivals(base_rate_rps: float, burst_rate_rps: float,
                    duration_s: float, mean_quiet_s: float = 1.0,
                    mean_burst_s: float = 0.2,
                    seed: int = 0) -> np.ndarray:
    """Markov-modulated (two-state) traffic: exponential quiet/burst
    sojourns alternate, with Poisson arrivals at the state's rate."""
    if base_rate_rps <= 0 or burst_rate_rps < base_rate_rps:
        raise LoadError(
            f"need 0 < base_rate ({base_rate_rps}) <= burst_rate "
            f"({burst_rate_rps})")
    if duration_s <= 0 or mean_quiet_s <= 0 or mean_burst_s <= 0:
        raise LoadError("duration and sojourn means must be positive")
    rng = np.random.default_rng(seed)
    # Draw alternating sojourn boundaries well past the duration.
    cycle = mean_quiet_s + mean_burst_s
    n_cycles = max(int(duration_s / cycle * 2) + 8, 8)
    quiet = rng.exponential(mean_quiet_s, n_cycles)
    burst = rng.exponential(mean_burst_s, n_cycles)
    while float(np.sum(quiet) + np.sum(burst)) < duration_s:
        quiet = np.concatenate([quiet,
                                rng.exponential(mean_quiet_s, n_cycles)])
        burst = np.concatenate([burst,
                                rng.exponential(mean_burst_s, n_cycles)])
    bounds = np.cumsum(np.stack([quiet[:len(burst)], burst],
                                axis=1).ravel())
    t = _homogeneous_times(burst_rate_rps, duration_s, rng)
    # Even segment index (0, 2, ...) = quiet state, odd = burst.  The
    # candidates are sorted, so each segment is one run of them: a
    # search per bound finds the runs and a repeated parity marks them.
    runs = np.diff(np.searchsorted(t, bounds), prepend=0, append=t.size)
    # Thinning keeps a candidate with probability rate / burst_rate:
    # always in a burst, base / burst_rate in quiet time.
    keep = rng.random(t.size) < base_rate_rps / burst_rate_rps
    keep |= np.repeat(np.arange(runs.size) % 2 == 1, runs)
    return t[keep]


def heavy_tailed_arrivals(rate_rps: float, count: int,
                          alpha: float = 1.5,
                          seed: int = 0) -> np.ndarray:
    """Pareto inter-arrival gaps with tail index ``alpha`` (heavier as
    ``alpha`` -> 1) and mean gap ``1/rate_rps``: long silences broken
    by dense request clumps."""
    if rate_rps <= 0 or count < 1:
        raise LoadError("rate and count must be positive")
    if alpha <= 1.0:
        raise LoadError(
            f"alpha={alpha} needs alpha > 1 for a finite mean gap")
    rng = np.random.default_rng(seed)
    scale = (alpha - 1.0) / alpha / rate_rps  # Pareto x_m for the mean
    # 1-U maps [0,1) to (0,1], keeping the inverse CDF finite.
    gaps = scale * (1.0 - rng.random(count)) ** (-1.0 / alpha)
    return np.cumsum(gaps)


# ---------------------------------------------------------------------------
# Fault-aware serving scenarios
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """A scheduled liveness change: crash or repair a node at a time."""

    time_s: float
    action: str  # "crash" | "repair"
    node: str

    def __post_init__(self) -> None:
        if self.action not in ("crash", "repair"):
            raise LoadError(f"unknown fault action {self.action!r}")


@dataclasses.dataclass(frozen=True)
class FaultScenarioResult:
    """Availability/goodput/latency statistics of one fault scenario."""

    outcomes: List[InvocationOutcome]
    #: Request arrival times, aligned with ``outcomes``.
    arrivals: List[float]
    #: Injected-fault counts by category, snapshotted at scenario end.
    fault_counts: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def served(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def availability(self) -> float:
        """Fraction of requests that produced a result at all; ``nan``
        for an empty scenario."""
        if not self.outcomes:
            return float("nan")
        return self.served / self.total

    @property
    def slo_met(self) -> int:
        return sum(1 for o in self.outcomes if o.deadline_met)

    @property
    def goodput_rps(self) -> float:
        """Deadline-met completions per second of scenario time;
        ``nan`` for an empty scenario."""
        span = self.span_s
        if np.isnan(span):
            return float("nan")
        return self.slo_met / span if span > 0 else float("inf")

    @property
    def span_s(self) -> float:
        """First arrival to last finish (seconds); ``nan`` when empty."""
        if not self.outcomes:
            return float("nan")
        last_finish = max(a + o.latency_s
                          for a, o in zip(self.arrivals, self.outcomes))
        return last_finish - self.arrivals[0]

    def percentile_latency_ms(self, q: float) -> float:
        """Latency percentile over *successful* requests (ms), via the
        shared :func:`repro.obs.percentile_or_nan` helper; ``nan`` when
        every request failed."""
        lat = [o.latency_s for o in self.outcomes if o.ok]
        return percentile_or_nan(lat, q) * 1e3

    @property
    def p50_ms(self) -> float:
        return self.percentile_latency_ms(50)

    @property
    def p99_ms(self) -> float:
        return self.percentile_latency_ms(99)

    @property
    def p999_ms(self) -> float:
        return self.percentile_latency_ms(99.9)

    @property
    def mean_attempts(self) -> float:
        if not self.outcomes:
            return float("nan")
        return float(np.mean([o.attempts for o in self.outcomes]))

    @property
    def hedged(self) -> int:
        return sum(1 for o in self.outcomes if o.hedged)


def run_fault_scenario(client: ResilientClient, service: str,
                       arrivals: Sequence[float], steps: int,
                       injector: Optional[FaultInjector] = None,
                       events: Sequence[FaultEvent] = (),
                       tracer: Optional[Tracer] = None,
                       metrics: Optional[Metrics] = None
                       ) -> FaultScenarioResult:
    """Drive ``arrivals`` through a resilient client under faults.

    Requests are issued open-loop at their arrival times, in order;
    scheduled :class:`FaultEvent` crashes/repairs are applied to
    ``injector`` as simulated time passes them. Server-side queueing is
    not modeled here (each request sees an unloaded replica) — the
    point is the fault/recovery behavior, and
    :class:`~repro.system.batching.DynamicBatcher` covers queueing.

    ``tracer`` (simulated-seconds timebase) receives an instant event
    per applied :class:`FaultEvent`; ``metrics`` gets scenario-level
    served/failed counters. Per-request spans come from the *client's*
    tracer — pass the same instance to both for one unified trace.

    Fully deterministic: fixed seeds (injector + client) and a fixed
    arrival sequence reproduce identical outcomes, traced or not.
    """
    if events and injector is None:
        raise LoadError("fault events scheduled but no injector given")
    tracer = or_null(tracer)
    metrics = or_null_metrics(metrics)
    arrivals = sorted(arrivals)
    pending = sorted(events, key=lambda e: e.time_s)
    idx = 0
    outcomes: List[InvocationOutcome] = []
    for arrival in arrivals:
        while idx < len(pending) and pending[idx].time_s <= arrival:
            event = pending[idx]
            if event.action == "crash":
                injector.crash(event.node)
            else:
                injector.repair(event.node)
            tracer.instant(f"fault:{event.action}", event.time_s,
                           track="faults", node=event.node)
            metrics.counter(f"scenario.{event.action}_events").inc()
            idx += 1
        outcome = client.invoke(service, steps, now=arrival)
        outcomes.append(outcome)
        metrics.counter("scenario.served" if outcome.ok
                        else "scenario.failed").inc()
    counts = dict(injector.counts) if injector is not None else {}
    for kind, count in counts.items():
        metrics.gauge(f"scenario.injected.{kind}").set(count)
    return FaultScenarioResult(outcomes=outcomes,
                               arrivals=list(arrivals),
                               fault_counts=counts)

