"""Fleet monitoring plane: scraping, SLO alerting, detection scoring.

The missing layer between the cluster simulator (ground truth: every
request outcome, every injected fault) and an operator: a
:class:`FleetMonitor` scrapes the simulator through scheduled discrete
events into a :class:`~repro.obs.timeseries.TimeSeriesStore`, an SLO
monitor turns the store into burn-rate alerts, and — because the chaos
injector *knows* when each fault happened — a detection scorecard
grades the whole pipeline on time-to-detect, precision, and recall
instead of taking it on faith.

The monitor is strictly an observer: scrapes read simulator state and
write only into the monitor's own store, the per-request node
attribution is one byte stored into a bytearray (a list for fleets of
255+ nodes), and all counters/quantiles are built from the result
arrays in one vectorized pass after the run — a monitored run is
bit-identical to an unmonitored one in outcomes (the benchmark asserts
it) and introduces no new RNG streams.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs.slo import (LATENCY_METRIC, REQUESTS_METRIC, Alert,
                       BacklogRule, CapacityRule, SloMonitor,
                       merge_alerts)
from ..obs.scorecard import (DetectionScorecard, FaultInterval,
                             score_detection, scorecard_table)
from ..obs.timeseries import TimeSeriesStore
from .chaos import SCENARIOS, ChaosScenario, _simulator
from .cluster import (STATUS_NAMES, ClusterError, ClusterResult,
                      ClusterSpec)


# Latency histogram ladder (ms): consecutive powers of two from
# 2**-4 (62.5us) to 2**14 (16.4s).  Power-of-two edges let finish()
# bin a million latencies straight from the float64 exponent bits —
# identical buckets to searchsorted at a fraction of the cost.
POW2_LATENCY_BOUNDS_MS: Tuple[float, ...] = tuple(
    float(2.0 ** e) for e in range(-4, 15))

def _pow2_exponent(bounds: Sequence[float]) -> Optional[int]:
    """Exponent of ``bounds[0]`` if the bounds are consecutive powers
    of two (the fast-binning precondition), else ``None``."""
    exps = []
    for b in bounds:
        if b <= 0 or not math.isfinite(b):
            return None
        mantissa, exp = math.frexp(b)
        if mantissa != 0.5:
            return None
        exps.append(exp - 1)
    if exps != list(range(exps[0], exps[0] + len(exps))):
        return None
    return exps[0]


def _pow2_buckets(values: np.ndarray, e0: int, nb: int) -> np.ndarray:
    """Histogram bucket per value for bounds ``2**e0 .. 2**(e0+nb-2)``,
    computed in place: the result is ``values``' buffer as int64.

    Equivalent to ``searchsorted(bounds, values)`` for positive float64
    input: the exponent field is ``floor(log2 v)``, and a non-zero
    mantissa bumps v past the edge into the next ``le`` bucket.
    Subnormals clamp into bucket 0 and infinities into the overflow
    bucket, matching searchsorted.
    """
    # Decrementing the raw bits borrows out of the exponent field
    # exactly when the mantissa is zero, so ``exponent(bits-1) + 1``
    # is ceil(log2 v) in three array passes with no mantissa test.
    bs = values.view(np.int64)
    bs -= 1
    bs >>= 52
    bs -= 1022 + e0
    np.clip(bs, 0, nb - 1, out=bs)
    return bs


class FleetMonitor:
    """Scrapes one cluster run into a time-series store.

    The simulator calls :meth:`begin` once per run (the monitor picks
    a window grid spanning the run and returns the scrape instants,
    which the simulator schedules as ``_scrape`` control events),
    :meth:`scrape` at each of those instants (gauge samples per node,
    rack, and fleet), and :meth:`finish` after the run (vectorized
    construction of request counters and latency quantile windows from
    the result arrays plus the per-request node attribution).
    """

    def __init__(self, windows: int = 256,
                 interval_s: Optional[float] = None,
                 latency_bounds: Optional[Sequence[float]] = None):
        if windows < 8:
            raise ClusterError("monitor windows must be >= 8")
        if interval_s is not None and interval_s <= 0:
            raise ClusterError("monitor interval_s must be positive")
        self.windows = int(windows)
        self.interval_s = interval_s
        self.latency_bounds: Tuple[float, ...] = (
            tuple(sorted(latency_bounds))
            if latency_bounds is not None else POW2_LATENCY_BOUNDS_MS)
        self._pow2_e0 = _pow2_exponent(self.latency_bounds)
        self.store: Optional[TimeSeriesStore] = None
        self.scrapes = 0
        self._fleet_gauges = ()
        self._rack_gauges: list = []
        self._node_gauges: list = []
        self._fleet_buf = np.empty((0, 2))
        self._when = np.empty(0)
        self._up_buf = np.empty((0, 0), dtype=bool)
        self._free_buf = np.empty((0, 0))

    # -- simulator-facing hooks -------------------------------------------

    def begin(self, sim, arrivals: np.ndarray, events) -> np.ndarray:
        """Start a run: build the store, return scrape instants.

        The grid spans from 0 to just past the last arrival or
        scheduled event; scrapes land mid-window so the final scrape
        stays inside the grid.
        """
        last = float(arrivals[-1]) if arrivals.size else 0.0
        for ev in events:
            last = max(last, float(ev.time_s))
        span = last + 2.0 * sim.spec.deadline_s
        if span <= 0:
            span = 1.0
        if self.interval_s is not None:
            interval = self.interval_s
            self.windows = max(8, int(np.ceil(span / interval)))
        else:
            interval = span / self.windows
        self.store = TimeSeriesStore(interval_s=interval, start_s=0.0,
                                     windows=self.windows)
        self.scrapes = 0
        # Resolve every gauge once: scrapes run inside the simulator's
        # event loop, so the per-scrape path must not pay label-key
        # construction and registry lookups 30+ times per tick.
        store = self.store
        spec = sim.spec
        self._fleet_gauges = (
            store.gauge("cluster.nodes_up", scope="fleet"),
            store.gauge("cluster.nodes_live", scope="fleet"),
            store.gauge("cluster.nodes_evicted", scope="fleet"))
        self._rack_gauges = [
            (spec.nodes_in_rack(rack),
             store.gauge("cluster.nodes_up", scope=f"rack{rack}"),
             store.gauge("cluster.backlog_s", scope=f"rack{rack}"))
            for rack in range(spec.racks)]
        self._node_gauges = [
            store.gauge("cluster.backlog_s",
                        scope=f"rack{spec.rack_of(node)}",
                        node=str(node))
            for node in range(spec.num_nodes)]
        # Scrape buffers: one row per scheduled scrape (scrape i lands
        # mid-window i), holding the raw state the scrape read.  The
        # gauges' arithmetic runs after the run, in
        # :meth:`_flush_scrapes`: the in-loop cost is two row copies
        # and a few scalar stores, not 30+ ring-buffer writes per tick.
        self._fleet_buf = np.empty((self.windows, 2))
        self._when = np.empty(self.windows)
        self._up_buf = np.empty((self.windows, spec.num_nodes),
                                dtype=bool)
        self._free_buf = np.empty((self.windows, spec.num_nodes))
        return (np.arange(self.windows) + 0.5) * interval

    def scrape(self, when: float, sim) -> None:
        """One scheduled scrape: copy live simulator state into the
        per-window buffers (:meth:`finish` turns them into the gauge
        series).  Reads only; never mutates ``sim``."""
        idx = self.scrapes
        self.scrapes += 1
        if idx >= self._when.size:
            return
        self._when[idx] = when
        self._up_buf[idx] = sim._up
        self._free_buf[idx] = sim._free_at
        fleet = self._fleet_buf[idx]
        fleet[0] = len(sim._view)
        fleet[1] = len(sim.detector.evicted) if sim.detector else 0

    def _flush_scrapes(self) -> None:
        """Turn the scraped rows into gauges and bulk-write them into
        the series: nodes up per rack and fleet-wide, and each node's
        backlog ``max(free_at - when, 0)`` with its rack's maximum."""
        scraped = min(self.scrapes, self._when.size)
        if not scraped:
            return
        g_up, g_live, g_evicted = self._fleet_gauges
        up = self._up_buf[:scraped]
        fleet = self._fleet_buf[:scraped]
        g_up.record_values(up.sum(axis=1, dtype=np.float64))
        g_live.record_values(fleet[:, 0])
        g_evicted.record_values(fleet[:, 1])
        backlog = self._free_buf[:scraped]
        backlog -= self._when[:scraped, None]
        np.maximum(backlog, 0.0, out=backlog)
        for nodes, rack_up, rack_backlog in self._rack_gauges:
            rack = slice(nodes.start, nodes.stop)
            rack_up.record_values(up[:, rack].sum(axis=1,
                                                  dtype=np.float64))
            rack_backlog.record_values(backlog[:, rack].max(axis=1))
        for node, gauge in enumerate(self._node_gauges):
            gauge.record_values(backlog[:, node])

    def finish(self, result: ClusterResult,
               node_of: Sequence[int]) -> None:
        """Post-run: build request counters and latency quantile
        windows from the result arrays.

        Everything is keyed bincounts: one pass over the run bins
        every request into ``(rack, window, status)`` and every finite
        latency into ``(rack, window, bucket)``, and the per-label
        series are sliced out of those grids.  Re-binning per label
        set (a mask + bincount per status x scope) costs ~10x more at
        1e6 requests; the monitoring-overhead benchmark gates this
        path at <10% over an unmonitored run.
        """
        self._flush_scrapes()
        store = self.store
        spec = result.spec
        arrivals = result.arrivals
        status = result.status
        latency = result.latency_s
        windows = store.windows
        racks = spec.racks
        nslots = racks + 1
        fleet_q = store.quantile(LATENCY_METRIC,
                                 bounds=self.latency_bounds,
                                 scope="fleet")
        ns = len(STATUS_NAMES)
        nb = len(fleet_q.bounds) + 1
        # Every grid cell is ``stride`` keys wide, so one shared
        # ``(slot, window)`` key plus a status code or a latency bucket
        # addresses either grid without re-scaling the key.
        stride = max(ns, nb)
        cells = nslots * windows * stride

        # One table gather maps each request's node to its rack slot's
        # key offset.  Racks take slots 0..racks-1; unrouted requests
        # (0xFF in a bytearray, -1 in a list: the table's last entry
        # either way) take slot ``racks``.
        lut = np.full(max(0x100, spec.num_nodes + 1),
                      racks * windows * stride, dtype=np.int64)
        lut[:spec.num_nodes] = np.arange(spec.num_nodes) \
            // spec.nodes_per_rack * (windows * stride)
        base = lut.take(np.frombuffer(node_of, dtype=np.uint8)
                        if isinstance(node_of, (bytes, bytearray))
                        else np.asarray(node_of, dtype=np.int64))
        # Arrivals are sorted, so each window is one run of requests:
        # its edges come from a search, and a window's key offset is
        # added to its run by slice — the same windows as clipping
        # ``int(rel * (1 / interval))`` per request, in fewer passes.
        rel = arrivals if store.start_s == 0.0 \
            else arrivals - store.start_s
        edges = np.searchsorted(rel * (1.0 / store.interval_s),
                                np.arange(1, windows, dtype=np.float64))
        ends = edges.tolist() + [rel.size]
        for window in range(1, windows):
            base[ends[window - 1]:ends[window]] += window * stride

        # The latency pass slices ``base`` before the status pass
        # consumes it in place; each n-sized array is dropped after
        # its last use.
        finite = np.isfinite(latency)
        skey = base[finite]

        # Request counters per (status, scope): one keyed bincount
        # over (rack_slot, window, status).
        base += status
        grid = np.bincount(base, minlength=cells) \
            .reshape(nslots, windows, stride)
        del base
        ms = latency[finite]
        del finite
        ms *= 1e3
        fleet_grid = grid.sum(axis=0)
        for code, name in STATUS_NAMES.items():
            fleet = fleet_grid[:, code]
            if not fleet.any():
                continue
            store.counter(REQUESTS_METRIC, scope="fleet",
                          status=name).add_increments(fleet)
            for rack in range(racks):
                store.counter(
                    REQUESTS_METRIC, scope=f"rack{rack}",
                    status=name).add_increments(grid[rack, :, code])

        # Latency quantiles (ms): one rack-slot-keyed pass over the
        # finite completions; the fleet window is the slot sum, so
        # unrouted completions (brownouts) count fleet-wide but in no
        # rack (the mergeable-window layout).
        lat_sums = np.ascontiguousarray(np.bincount(
            skey, weights=ms, minlength=cells)
            .reshape(nslots, windows, stride)[:, :, 0])
        if self._pow2_e0 is not None:
            skey += _pow2_buckets(ms, self._pow2_e0, nb)
        else:
            skey += np.searchsorted(fleet_q.bounds, ms)
        del ms
        lat_counts = np.bincount(skey, minlength=cells) \
            .reshape(nslots, windows, stride)[:, :, :nb]
        fleet_q.add_counts(lat_counts.sum(axis=0),
                           lat_sums.sum(axis=0))
        for rack in range(racks):
            store.quantile(
                LATENCY_METRIC, bounds=self.latency_bounds,
                scope=f"rack{rack}").add_counts(
                    lat_counts[rack], lat_sums[rack])


# ---------------------------------------------------------------------------
# Ground truth: fault intervals from a scenario's event stream
# ---------------------------------------------------------------------------

def scenario_fault_intervals(scenario: ChaosScenario
                             ) -> List[FaultInterval]:
    """The injector's ground truth as scored intervals.

    Paired control events become their natural intervals (rack_down/
    rack_up, partition/heal, crash/repair); a rolling slow/unslow
    chain coalesces into one fleet-scoped interval; the overload
    scenario has no events, so its ground truth is computed from the
    arrival trace — sustained windows where offered load exceeds
    aggregate capacity.
    """
    spec = scenario.spec
    out: List[FaultInterval] = []
    open_at = {}
    slow_start: Optional[float] = None
    slow_end: Optional[float] = None
    pairs = {"rack_down": ("rack_up", "rack_outage"),
             "partition": ("heal", "partition"),
             "crash": ("repair", "node_crash")}
    closers = {closer: opener
               for opener, (closer, _) in pairs.items()}
    for ev in sorted(scenario.events,
                     key=lambda e: (e.time_s, e.action)):
        if ev.action in pairs:
            open_at[(ev.action, ev.target)] = ev.time_s
        elif ev.action in closers:
            opener = closers[ev.action]
            start = open_at.pop((opener, ev.target), None)
            if start is None:
                continue
            kind = pairs[opener][1]
            scope = (f"rack{ev.target}" if opener != "crash"
                     else f"rack{spec.rack_of(ev.target)}")
            out.append(FaultInterval(kind, scope, start, ev.time_s))
        elif ev.action == "slow":
            if slow_start is None:
                slow_start = ev.time_s
        elif ev.action == "unslow":
            slow_end = ev.time_s
    if slow_start is not None and slow_end is not None \
            and slow_end > slow_start:
        out.append(FaultInterval("rolling_slow", "fleet",
                                 slow_start, slow_end))
    out.extend(_overload_intervals(scenario))
    out.sort(key=lambda f: (f.start_s, f.scope))
    return out


def _overload_intervals(scenario: ChaosScenario, bins: int = 128
                        ) -> List[FaultInterval]:
    """Sustained offered-load > capacity windows in the arrival trace."""
    arrivals = np.asarray(scenario.arrivals, dtype=np.float64)
    if arrivals.size < 2:
        return []
    span = float(arrivals[-1])
    if span <= 0:
        return []
    width = span / bins
    counts = np.bincount(
        np.minimum((arrivals / width).astype(np.int64), bins - 1),
        minlength=bins)
    over = counts / width > scenario.spec.capacity_rps
    # Close single-bin dips, then keep only sustained (>= 2 bin) runs.
    for i in range(1, bins - 1):
        if over[i - 1] and over[i + 1]:
            over[i] = True
    out: List[FaultInterval] = []
    start = None
    for i in range(bins):
        if over[i] and start is None:
            start = i
        elif not over[i] and start is not None:
            if i - start >= 2:
                out.append(FaultInterval(
                    "overload", "fleet", start * width, i * width))
            start = None
    if start is not None and bins - start >= 2:
        out.append(FaultInterval("overload", "fleet",
                                 start * width, span))
    return out


# ---------------------------------------------------------------------------
# Monitored scenario runs and the detection scorecard suite
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class MonitoredRun:
    """One chaos scenario run with its full monitoring readout."""

    name: str
    stack: str
    result: ClusterResult
    store: TimeSeriesStore
    alerts: List[Alert]
    incidents: List[Alert]
    faults: List[FaultInterval]
    scorecard: DetectionScorecard


def default_slo(spec: ClusterSpec) -> SloMonitor:
    """The serving SLO the monitoring plane watches: three nines of
    availability, p99 under 90% of the deadline, a per-node backlog
    outlier rule that sees degraded nodes the routing layer
    successfully hides from the user-facing metrics, and a fleet
    capacity rule on the detector's live-node count (a rack down is an
    incident even when failover absorbs it completely)."""
    return SloMonitor(
        availability_target=0.999,
        latency_threshold_ms=0.9 * spec.deadline_s * 1e3,
        backlog_rules=[BacklogRule(
            abs_floor_s=5.0 * spec.service_time_s,
            rel_factor=6.0, min_windows=2)],
        capacity_rules=[CapacityRule(min_fraction=0.95,
                                     min_windows=1)])


def run_monitored_scenario(name: str,
                           spec: Optional[ClusterSpec] = None,
                           requests: int = 50_000, seed: int = 0,
                           mitigated: bool = True,
                           windows: int = 256,
                           slo: Optional[SloMonitor] = None
                           ) -> MonitoredRun:
    """Run one catalog scenario with the monitoring plane attached and
    score its alerts against the injector's ground truth."""
    if name not in SCENARIOS:
        raise ClusterError(
            f"unknown chaos scenario {name!r}; one of "
            f"{sorted(SCENARIOS)}")
    if requests < 1:
        raise ClusterError("requests must be >= 1")
    spec = spec if spec is not None else ClusterSpec()
    scenario = SCENARIOS[name](spec, seed, requests)
    monitor = FleetMonitor(windows=windows)
    sim = _simulator(spec, mitigated, seed + 1, None, None)
    sim.monitor = monitor
    result = sim.run(scenario.arrivals, scenario.events)
    store = monitor.store
    slo = slo if slo is not None else default_slo(spec)
    alerts = slo.evaluate(store)
    incidents = merge_alerts(alerts, join_gap_s=0.02 * store.span_s)
    faults = scenario_fault_intervals(scenario)
    grace = slo.grace_s(store.span_s)
    stack = "mitigated" if mitigated else "ablated"
    card = score_detection(incidents, faults, store.span_s,
                           grace_s=grace, scenario=name, stack=stack)
    return MonitoredRun(name=name, stack=stack, result=result,
                        store=store, alerts=alerts,
                        incidents=incidents, faults=faults,
                        scorecard=card)


def detection_scorecards(requests: int = 50_000, seed: int = 0,
                         spec: Optional[ClusterSpec] = None,
                         windows: int = 256,
                         stacks: Sequence[bool] = (True, False)
                         ) -> List[DetectionScorecard]:
    """Score every catalog scenario (mitigated and ablated)."""
    spec = spec if spec is not None else ClusterSpec()
    cards: List[DetectionScorecard] = []
    for name in SCENARIOS:
        for mitigated in stacks:
            run = run_monitored_scenario(
                name, spec=spec, requests=requests, seed=seed,
                mitigated=mitigated, windows=windows)
            cards.append(run.scorecard)
    return cards


def detection_table(requests: int = 50_000, seed: int = 0,
                    spec: Optional[ClusterSpec] = None,
                    windows: int = 256):
    """The archived chaos-detection experiment table."""
    spec = spec if spec is not None else ClusterSpec()
    cards = detection_scorecards(requests=requests, seed=seed,
                                 spec=spec, windows=windows)
    table = scorecard_table(
        cards,
        title=f"Chaos detection: {spec.racks}x{spec.nodes_per_rack} "
              f"nodes, {requests} requests/scenario, seed {seed}")
    return table
