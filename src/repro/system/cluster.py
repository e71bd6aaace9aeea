"""Cluster-scale serving: failure domains, detection, degradation.

The paper's deployment is not one FPGA but pools of hundreds of
Brainwave nodes serving many models at datacenter scale, where
correlated failures (rack power, TOR switches), overload, and slow
nodes are the norm.  This module scales :mod:`repro.system` from the
handful-of-replicas registry to that setting: a seeded discrete-event
simulator of racks -> nodes -> replicas with *failure domains*, plus
the robustness machinery a real fleet needs to stay available while
things break underneath it:

* :class:`PhiAccrualDetector` — a heartbeat-based failure detector.
  Suspicion (phi) grows with the time since a node's last heartbeat;
  past a threshold the node is *evicted* from routing, and it is
  *readmitted* at the first heartbeat after repair.  This replaces
  per-request consecutive-failure circuit breaking at cluster scope:
  detection happens on the control plane, not by burning requests.
* Domain-aware routing — ``p2c`` (power-of-two-choices),
  ``least_loaded``, and ``random`` policies over the detector's view
  of live nodes, so traffic avoids suspected/failed domains.
* Graceful degradation under overload — :class:`TokenBucket` admission
  control, deadline-aware load shedding from bounded per-replica
  queues, and optional :class:`BrownoutPolicy` fallback to a degraded
  CPU path (the federated escape hatch of
  :class:`~repro.system.runtime.FpgaStage`).

Simulated time is seconds, as in the rest of the serving layer.  All
randomness comes from one ``numpy`` generator whose draws are
pre-vectorized per run, so a fixed seed reproduces bit-identical
results request for request — the chaos benchmarks and the CI smoke
gate rely on it.
"""

from __future__ import annotations

import bisect
import dataclasses
import heapq
import math
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..obs import Metrics, Tracer, or_null, or_null_metrics, \
    percentile_or_nan
from .batching import OCCUPANCY_BOUNDS, QUEUE_WAIT_BOUNDS
from .loadgen import checked_trace
from .network import NetworkModel
from .runtime import DEFAULT_CPU_FALLBACK_LATENCY_S

_LN10 = math.log(10.0)

#: Per-request outcome codes (:attr:`ClusterResult.status` values).
#: Client-timeout semantics are uniform: a request whose response lands
#: past the SLO deadline is a ``TIMEOUT`` — the client hung up, the
#: server time was wasted. Only ``SERVED``/``BROWNOUT`` responses count
#: toward availability.
SERVED = 0           #: completed on an FPGA node within the deadline
BROWNOUT = 1         #: completed on the degraded CPU path in time
SHED_ADMISSION = 2   #: rejected by token-bucket admission control
SHED_DEADLINE = 3    #: shed: queue full or predicted deadline violation
FAILED = 4           #: sent to a dead/partitioned node, no retry left
TIMEOUT = 5          #: completed, but past the deadline (wasted work)

STATUS_NAMES = {SERVED: "served", BROWNOUT: "brownout",
                SHED_ADMISSION: "shed_admission",
                SHED_DEADLINE: "shed_deadline", FAILED: "failed",
                TIMEOUT: "timeout"}


def _cast_product(draws: np.ndarray, k: int,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """``int(draw * k)`` for every draw, into an unsigned integer array
    (``out``, or a new one just wide enough for ``k``).  The cast runs
    through numpy's buffer, so no float64 temporary the size of
    ``draws`` is built."""
    if out is None:
        out = np.empty(draws.shape, dtype=np.min_scalar_type(k))
    return np.multiply(draws, k, out=out, casting="unsafe")


class ClusterError(ReproError):
    """Invalid cluster topology, policy, or scenario parameters."""


@dataclasses.dataclass(frozen=True)
class ClusterSpec:
    """Topology and per-node service model of one cluster.

    Nodes are numbered ``0 .. racks*nodes_per_rack-1``; node ``i``
    lives in rack ``i // nodes_per_rack`` — the rack is the failure
    domain for correlated faults (rack power, TOR switch).
    """

    racks: int = 4
    nodes_per_rack: int = 6
    #: Base per-request service time of one node (seconds).
    service_time_s: float = 1e-3
    #: Bounded per-replica queue: requests admitted while the backlog
    #: exceeds ``queue_depth`` full-batch service times are shed.
    queue_depth: int = 16
    #: Request SLO deadline (seconds).
    deadline_s: float = 20e-3
    #: Heartbeat period of the failure detector (seconds).
    heartbeat_interval_s: float = 10e-3
    network: NetworkModel = dataclasses.field(default_factory=NetworkModel)
    #: Request/response payload on the wire (bytes, one way).
    payload_bytes: float = 2048.0

    def __post_init__(self) -> None:
        if self.racks < 1 or self.nodes_per_rack < 1:
            raise ClusterError(
                f"racks={self.racks}, nodes_per_rack="
                f"{self.nodes_per_rack}: both must be >= 1")
        if self.service_time_s <= 0:
            raise ClusterError("service_time_s must be positive")
        if self.queue_depth < 1:
            raise ClusterError("queue_depth must be >= 1")
        if self.deadline_s <= 0:
            raise ClusterError("deadline_s must be positive")
        if self.heartbeat_interval_s <= 0:
            raise ClusterError("heartbeat_interval_s must be positive")
        if self.payload_bytes < 0:
            raise ClusterError("payload_bytes must be >= 0")

    @property
    def num_nodes(self) -> int:
        return self.racks * self.nodes_per_rack

    def rack_of(self, node: int) -> int:
        if not 0 <= node < self.num_nodes:
            raise ClusterError(
                f"node {node} outside 0..{self.num_nodes - 1}")
        return node // self.nodes_per_rack

    def nodes_in_rack(self, rack: int) -> range:
        if not 0 <= rack < self.racks:
            raise ClusterError(f"rack {rack} outside 0..{self.racks - 1}")
        return range(rack * self.nodes_per_rack,
                     (rack + 1) * self.nodes_per_rack)

    @property
    def capacity_rps(self) -> float:
        """Aggregate fault-free throughput ceiling."""
        return self.num_nodes / self.service_time_s


@dataclasses.dataclass(frozen=True)
class TokenBucket:
    """Token-bucket admission control (one token per request)."""

    rate_rps: float
    burst: float = 32.0

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ClusterError("admission rate_rps must be positive")
        if self.burst < 1:
            raise ClusterError("admission burst must be >= 1")


@dataclasses.dataclass(frozen=True)
class BrownoutPolicy:
    """Degraded CPU path for requests the FPGA pool cannot take.

    Mirrors the federated runtime's per-stage CPU fallback
    (:class:`~repro.system.runtime.FpgaStage`): instead of shedding, a
    request completes at an honestly-accounted (much slower) CPU
    latency.  ``max_concurrent`` bounds the CPU pool — beyond it,
    requests are shed as usual.
    """

    cpu_latency_s: float = DEFAULT_CPU_FALLBACK_LATENCY_S
    max_concurrent: int = 64

    def __post_init__(self) -> None:
        if self.cpu_latency_s <= 0:
            raise ClusterError("brownout cpu_latency_s must be positive")
        if self.max_concurrent < 1:
            raise ClusterError("brownout max_concurrent must be >= 1")


@dataclasses.dataclass(frozen=True)
class NodeBatching:
    """Per-node dynamic batching backed by a measured service-time
    curve.

    ``curve`` maps a dispatch size to its aggregate service time in
    seconds — e.g. a :class:`~repro.system.batching.ServiceTimeCurve`
    from :func:`~repro.system.batching.calibrate_batch_curve`, replacing
    ``ClusterSpec.service_time_s``; the same callable backs a
    single-queue :class:`~repro.system.batching.DynamicBatcher`.  Each
    node forms one batch at a time and closes it at the arrival that
    fills it to ``max_batch``, or at ``max(free_at, head_arrival +
    timeout_s)``; it starts when the node is free.  Batch-1 serving is
    ``NodeBatching(lambda b: b * spec.service_time_s, 1, 0.0)``, what
    ``ClusterSimulator(batching=None)`` runs.  ``curve(b)`` must be
    finite and positive at every ``b`` up to ``max_batch``.
    """

    curve: object
    max_batch: int = 16
    timeout_s: float = 1e-3

    def __post_init__(self) -> None:
        if not callable(self.curve):
            raise ClusterError(
                "batching curve must be callable (batch -> seconds), "
                f"got {type(self.curve).__name__}")
        if self.max_batch < 1:
            raise ClusterError(
                f"batching max_batch must be >= 1, got {self.max_batch}")
        if self.timeout_s < 0:
            raise ClusterError(
                f"batching timeout_s must be >= 0, got {self.timeout_s}")
        # Every dispatch size the loop can use: a NaN or non-positive
        # service time would turn every request into a TIMEOUT or a shed.
        for b in range(1, self.max_batch + 1):
            t = float(self.curve(b))
            if not 0 < t < math.inf:
                raise ClusterError(
                    f"batching curve({b}) must be finite and positive, "
                    f"got {t:g}")


@dataclasses.dataclass(frozen=True)
class AutoscalePolicy:
    """Replica autoscaling from observed arrival rate.

    Every ``interval_s`` of simulated time the controller measures the
    arrival rate over the last interval and resizes the active node
    set to ``ceil(rate / (target_utilization * per_node_capacity))``,
    clamped to ``[min_nodes, max_nodes]``, where per-node capacity is
    the batched throughput ceiling ``max_batch / curve(max_batch)``.
    Nodes activate lowest-index first; a deactivated node drains its
    queue but receives no new traffic.  Deterministic — the decision
    is a pure function of the arrival trace.
    """

    min_nodes: int = 1
    max_nodes: Optional[int] = None
    target_utilization: float = 0.6
    interval_s: float = 0.5

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ClusterError(
                f"autoscale min_nodes must be >= 1, got {self.min_nodes}")
        if self.max_nodes is not None and self.max_nodes < self.min_nodes:
            raise ClusterError(
                f"autoscale max_nodes ({self.max_nodes}) < min_nodes "
                f"({self.min_nodes})")
        if not 0.0 < self.target_utilization <= 1.0:
            raise ClusterError(
                f"target_utilization must be in (0, 1], got "
                f"{self.target_utilization}")
        if self.interval_s <= 0:
            raise ClusterError(
                f"autoscale interval_s must be positive, got "
                f"{self.interval_s}")


class PhiAccrualDetector:
    """Phi-accrual-style failure detector over periodic heartbeats.

    Every node emits a heartbeat each ``heartbeat_interval_s`` while it
    is up and reachable.  Suspicion of a node at time ``t`` is::

        phi(t) = (t - last_heartbeat) / (interval * ln 10)

    i.e. the negative log10 tail probability of the gap under an
    exponential model with the heartbeat interval as its mean.  A node
    whose phi crosses ``threshold`` is **evicted** from routing; it is
    **readmitted** at its first heartbeat after recovery.  Both edges
    are deterministic functions of the silence/resume instants, so the
    simulator schedules them as discrete events instead of polling.
    """

    def __init__(self, spec: ClusterSpec, threshold: float = 8.0,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[Metrics] = None):
        if threshold <= 0:
            raise ClusterError("detector threshold must be positive")
        self.spec = spec
        self.threshold = threshold
        self.tracer = or_null(tracer)
        self.metrics = or_null_metrics(metrics)
        self.reset()

    def reset(self) -> None:
        """Forget every silence, eviction and transition: all nodes
        healthy, as at construction (each cluster run starts so)."""
        #: Time each node stopped heartbeating (``None`` = healthy).
        self._silenced: Dict[int, float] = {}
        self.evicted: set = set()
        #: ``(time_s, "evict" | "readmit", node)`` transition log.
        self.transitions: List[Tuple[float, str, int]] = []

    def last_heartbeat(self, node: int, now: float) -> float:
        """The newest heartbeat from ``node`` observed by ``now``."""
        interval = self.spec.heartbeat_interval_s
        alive_until = min(now, self._silenced.get(node, now))
        return math.floor(alive_until / interval) * interval

    def phi(self, node: int, now: float) -> float:
        """Current suspicion level of ``node``."""
        gap = now - self.last_heartbeat(node, now)
        return gap / (self.spec.heartbeat_interval_s * _LN10)

    def suspect_time(self, silenced_at: float) -> float:
        """When phi crosses the threshold for a node silenced then."""
        interval = self.spec.heartbeat_interval_s
        last = math.floor(silenced_at / interval) * interval
        return last + self.threshold * interval * _LN10

    def silence(self, node: int, now: float) -> Optional[float]:
        """Node stopped heartbeating (crash/partition); returns the
        future eviction time, or ``None`` if already silenced."""
        if node in self._silenced:
            return None
        self._silenced[node] = now
        return self.suspect_time(now)

    def resume(self, node: int, now: float) -> Optional[float]:
        """Node heartbeats again (repair/heal); returns the readmission
        time (its next heartbeat), or ``None`` if it was not silenced."""
        if node not in self._silenced:
            return None
        del self._silenced[node]
        interval = self.spec.heartbeat_interval_s
        return math.ceil(now / interval) * interval

    def evict(self, node: int, now: float) -> bool:
        """Apply a scheduled eviction (no-op if the node resumed)."""
        if node not in self._silenced or node in self.evicted:
            return False
        self.evicted.add(node)
        self.transitions.append((now, "evict", node))
        self.tracer.instant("detector:evict", now, track="detector",
                            node=node, phi=round(self.phi(node, now), 3))
        self.metrics.counter("cluster.detector.evictions").inc()
        return True

    def readmit(self, node: int, now: float) -> bool:
        """Apply a scheduled readmission (no-op unless evicted)."""
        if node in self._silenced or node not in self.evicted:
            return False
        self.evicted.discard(node)
        self.transitions.append((now, "readmit", node))
        self.tracer.instant("detector:readmit", now, track="detector",
                            node=node)
        self.metrics.counter("cluster.detector.readmissions").inc()
        return True


_EVENT_ACTIONS = ("crash", "repair", "rack_down", "rack_up",
                  "partition", "heal", "slow", "unslow")
#: Actions whose target is a node index; the rest target a rack.
_NODE_ACTIONS = ("crash", "repair", "slow", "unslow")


@dataclasses.dataclass(frozen=True, order=True)
class ClusterEvent:
    """One scheduled cluster state change.

    ``target`` is a node index for node-scoped actions (``crash``,
    ``repair``, ``slow``, ``unslow``) and a rack index for
    domain-scoped ones (``rack_down``, ``rack_up``, ``partition``,
    ``heal``).  ``value`` is the slowdown multiplier for ``slow``.
    """

    time_s: float
    action: str
    target: int
    value: float = 1.0

    def __post_init__(self) -> None:
        if self.action not in _EVENT_ACTIONS:
            raise ClusterError(
                f"unknown cluster event action {self.action!r}; "
                f"one of {_EVENT_ACTIONS}")
        if self.time_s < 0:
            raise ClusterError("event time_s must be >= 0")
        if self.action == "slow" and self.value < 1.0:
            raise ClusterError("slow multiplier must be >= 1")


@dataclasses.dataclass
class ClusterResult:
    """Per-request outcomes and summary statistics of one run.

    Percentiles are ``nan`` when no request completed, rather than
    raising or reporting a misleading ``0.0``.
    """

    spec: ClusterSpec
    arrivals: np.ndarray
    #: Per-request outcome code (``SERVED`` ... ``FAILED``).
    status: np.ndarray
    #: End-to-end latency (seconds); ``nan`` for non-completed requests.
    latency_s: np.ndarray
    #: Applied control events, including detector evict/readmit edges.
    event_log: List[Tuple[float, str, int]]
    detector_transitions: List[Tuple[float, str, int]]
    #: Batched runs only: ``(finish_time_s, batch_size)`` per
    #: dispatch, sorted by finish time; ``None`` when ``batching=None``
    #: (a million-request batch-1 run would hold a million tuples).
    batch_log: Optional[List[Tuple[float, int]]] = None
    #: Autoscaled runs only: ``(time_s, active_nodes)`` per resize.
    active_nodes_trace: Optional[List[Tuple[float, int]]] = None

    @property
    def total(self) -> int:
        return int(self.status.size)

    @property
    def mean_batch(self) -> float:
        """Mean dispatch size of a batched run; ``nan`` otherwise."""
        if not self.batch_log:
            return float("nan")
        return float(np.mean([b for _, b in self.batch_log]))

    @property
    def empty(self) -> bool:
        return self.total == 0

    def count(self, code: int) -> int:
        return int(np.count_nonzero(self.status == code))

    @property
    def served(self) -> int:
        """Requests answered within the deadline (FPGA or brownout)."""
        return self.count(SERVED) + self.count(BROWNOUT)

    @property
    def availability(self) -> float:
        """Fraction of requests answered within the SLO deadline —
        the tail-latency-bound product metric; ``nan`` when the run is
        empty (see :attr:`empty`)."""
        if self.empty:
            return float("nan")
        return self.served / self.total

    @property
    def shed(self) -> int:
        return self.count(SHED_ADMISSION) + self.count(SHED_DEADLINE)

    @property
    def deadline_met(self) -> int:
        return self.served

    @property
    def deadline_violations(self) -> int:
        """Completed requests that finished past the SLO deadline —
        wasted server work the client never saw."""
        return self.count(TIMEOUT)

    @property
    def span_s(self) -> float:
        if self.empty:
            return float("nan")
        finite = np.isfinite(self.latency_s)
        last = float(self.arrivals[-1])
        if finite.any():
            last = max(last, float(
                (self.arrivals[finite] + self.latency_s[finite]).max()))
        return last - float(self.arrivals[0])

    @property
    def goodput_rps(self) -> float:
        """Deadline-met completions per second of simulated time."""
        span = self.span_s
        if not span or math.isnan(span):
            return float("nan")
        return self.deadline_met / span

    def percentile_latency_ms(self, q: float) -> float:
        """Latency percentile over completed requests (ms); ``nan``
        when nothing completed."""
        samples = self.latency_s[np.isfinite(self.latency_s)]
        return percentile_or_nan(samples, q) * 1e3

    @property
    def p50_ms(self) -> float:
        return self.percentile_latency_ms(50)

    @property
    def p99_ms(self) -> float:
        return self.percentile_latency_ms(99)

    @property
    def p999_ms(self) -> float:
        return self.percentile_latency_ms(99.9)

    def counts(self) -> Dict[str, int]:
        return {name: self.count(code)
                for code, name in STATUS_NAMES.items()}

    def render(self) -> str:
        avail = self.availability
        lines = [
            f"cluster: {self.spec.racks} racks x "
            f"{self.spec.nodes_per_rack} nodes, "
            f"{self.total} requests over {self.span_s:.2f} s",
            f"  availability: "
            + ("n/a" if math.isnan(avail) else f"{100 * avail:.3f}%")
            + f"  goodput {self.goodput_rps:.0f}/s"
            f"  deadline violations {self.deadline_violations}",
            "  outcomes: " + "  ".join(
                f"{name}={n}" for name, n in self.counts().items() if n),
            f"  latency ms: p50 {self.p50_ms:.2f}  "
            f"p99 {self.p99_ms:.2f}  p99.9 {self.p999_ms:.2f}",
            f"  detector: {len(self.detector_transitions)} transitions",
        ]
        if self.batch_log:
            lines.append(
                f"  batching: {len(self.batch_log)} dispatches, "
                f"mean batch {self.mean_batch:.2f}")
        if self.active_nodes_trace:
            lines.append(
                f"  autoscaler: {len(self.active_nodes_trace)} resizes,"
                f" final {self.active_nodes_trace[-1][1]} active nodes")
        return "\n".join(lines)


_ROUTERS = ("p2c", "least_loaded", "random")
#: Batch id of a batched request a node loss failed: ``_LOST - bid``.
#: Ids ``>= 0`` are live members and -1 is a request no batch took.
_LOST = -2
#: Requests per chunk of :meth:`ClusterSimulator._complete`'s pass.
_CHUNK = 1 << 14


class ClusterSimulator:
    """Discrete-event simulator of one cluster under load and faults.

    The event heap carries only control-plane changes (crashes,
    repairs, rack/TOR outages, partitions, slow-node onsets, detector
    evict/readmit edges, monitor scrapes, autoscaler ticks); the data
    plane processes the open-loop arrival trace in time order between
    them.  Every node is a batching node (:class:`NodeBatching`;
    ``batching=None`` is batch-1), and a batch dispatches without any
    heap event: it closes at the arrival that fills it, or lazily at
    ``max(free_at, head_arrival + timeout_s)``, settled the next time
    the node is touched.  Per-request work is O(1) for
    ``p2c``/``random`` routing (O(nodes) for ``least_loaded``).  All
    per-request randomness is pre-drawn as vectorized ``numpy``
    arrays, and the loop reads it, the arrivals and the outcome arrays
    through ``memoryview``s as plain Python scalars, so
    million-request traces run in seconds and are bit-deterministic
    per seed.

    Ground truth (which nodes are actually up/reachable) is separate
    from the router's view (the failure detector's eviction set): in
    the detection window after a fault, traffic still lands on dead
    nodes and fails — exactly the availability gap the detector closes.
    """

    def __init__(self, spec: Optional[ClusterSpec] = None,
                 router: str = "p2c",
                 admission: Optional[TokenBucket] = None,
                 brownout: Optional[BrownoutPolicy] = None,
                 detector_threshold: Optional[float] = 8.0,
                 shed_on_deadline: bool = True,
                 retries: int = 1,
                 seed: int = 0,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[Metrics] = None,
                 monitor=None,
                 batching: Optional[NodeBatching] = None,
                 autoscaler: Optional[AutoscalePolicy] = None):
        """``detector_threshold=None`` disables failure detection (the
        router keeps sending to dead nodes); ``admission=None`` and
        ``brownout=None`` disable those mitigations; ``retries`` (0 or
        1) is the number of immediate failovers after landing on a dead
        node.

        ``monitor`` (a :class:`~repro.system.monitor.FleetMonitor`)
        attaches the telemetry plane: the simulator schedules its
        scrape instants as ``_scrape`` control events and hands it the
        per-request node attribution after the run.  Monitoring is
        observation-only — it never touches the RNG stream, the event
        log, or any outcome.

        ``batching`` (a :class:`NodeBatching`) gives every node a
        batching queue whose dispatch service time comes from the
        measured curve; ``None`` means
        ``NodeBatching(lambda b: b * spec.service_time_s, 1, 0.0)``,
        run on a batch-1 fast path that keeps no batch log.
        ``autoscaler`` (requires ``batching``) resizes the active node
        set from observed arrival rate.  Admission, brownout and the
        monitor work with either."""
        if router not in _ROUTERS:
            raise ClusterError(
                f"unknown router {router!r}; one of {_ROUTERS}")
        if retries not in (0, 1):
            raise ClusterError(
                f"retries must be 0 or 1 (one failover to the alternate "
                f"candidate), got {retries}")
        if autoscaler is not None and batching is None:
            raise ClusterError("autoscaler requires batching")
        self.spec = spec if spec is not None else ClusterSpec()
        self.router = router
        self.admission = admission
        self.brownout = brownout
        self.shed_on_deadline = shed_on_deadline
        self.retries = retries
        self.seed = seed
        self.tracer = or_null(tracer)
        self.metrics = or_null_metrics(metrics)
        self.monitor = monitor
        self.batching = batching
        self.autoscaler = autoscaler
        self.detector = (PhiAccrualDetector(
            self.spec, detector_threshold, tracer=self.tracer,
            metrics=self.metrics)
            if detector_threshold is not None else None)

    # -- state helpers ----------------------------------------------------

    def _rebuild_view(self) -> None:
        """Recompute the router's candidate list (active, not evicted)
        and, in place, which nodes are up and reachable (cheap: state
        changes only at control events, never per request)."""
        evicted = self.detector.evicted if self.detector else ()
        self._view = [i for i in range(min(self._active,
                                           self.spec.num_nodes))
                      if i not in evicted]
        per_rack = self.spec.nodes_per_rack
        self._reachable[:] = [up and i // per_rack not in self._cut_racks
                              for i, up in enumerate(self._up)]

    def _alive(self, node: int) -> bool:
        return (self._up[node]
                and self.spec.rack_of(node) not in self._cut_racks)

    def _silence(self, node: int, now: float, heap, seq) -> None:
        if self.detector is None:
            return
        at = self.detector.silence(node, now)
        if at is not None:
            heapq.heappush(heap, (at, next(seq), "_evict", node, 0.0))

    def _resume(self, node: int, now: float, heap, seq) -> None:
        if self.detector is None:
            return
        at = self.detector.resume(node, now)
        if at is not None:
            heapq.heappush(heap, (at, next(seq), "_readmit", node, 0.0))

    def _dispatch(self, node: int, close: float) -> None:
        """Dispatch ``node``'s forming batch, closed at ``close``: it
        starts when the node is free and every member shares its
        finish.  The batch gets one row (close, tail, start, finish,
        size); :meth:`_complete` fills its members' outcomes from it
        after the loop."""
        b = self._size[node]
        free_at = self._free_at
        wait = free_at[node] - close
        if wait < 0.0:
            wait = 0.0
        service = self._svc[b] * self._slow[node]
        finish = close + wait + service
        free_at[node] = finish
        self._size[node] = 0
        close_r, tail_r, start_r, finish_r, size_r = self._rows
        self._row_of[self._bid[node]] = len(size_r)
        close_r.append(close)
        # At batch 1, (close - arrival) is 0.0 and the latency is the
        # batch-1 fast path's ``wait + service + net_s`` bit for bit.
        tail_r.append(wait + service + self._net_s)
        start_r.append(close + wait)
        finish_r.append(finish)
        size_r.append(b)

    def _settle(self, node: int, before: float) -> None:
        """Dispatch ``node``'s forming batch if it closed strictly
        before ``before``: a control event at the close instant applies
        first."""
        if self._size[node]:
            close = self._due[node]
            if self._free_at[node] > close:
                close = self._free_at[node]
            if close < before:
                self._dispatch(node, close)

    def _lose(self, nodes, when: float, upto: int) -> None:
        """``nodes`` went down or out of reach at ``when``: their
        forming batches and every request they accepted that finishes
        at or after ``when`` are ``FAILED``.  The walk goes back from
        request ``upto`` and stops, per node, at its first request that
        finished before ``when`` (a node finishes in FIFO order).  A
        batched request's latency comes from its batch's row; a failed
        one is marked in ``_batch_of`` (see :meth:`_complete`)."""
        batched = self._size is not None
        pending = set()
        for node in nodes:
            if batched:
                # The forming batch never dispatches: its row stays -1.
                self._size[node] = 0
            if self._free_at[node] >= when:
                pending.add(node)
        times, status, latency, node_of = self._views
        net_s = self._net_s
        j = upto
        if batched:
            batch_of = self._batch_of
            row_of = self._row_of
            close_r, tail_r = self._rows[0], self._rows[1]
            while pending and j > 0:
                j -= 1
                node = node_of[j]
                if node in pending:
                    bid = batch_of[j]
                    k = row_of[bid] if bid >= 0 else -1
                    if k >= 0:  # a member of a dispatched batch
                        t = times[j]
                        if t + ((close_r[k] - t) + tail_r[k]) - net_s \
                                >= when:
                            batch_of[j] = _LOST - bid
                        else:
                            pending.discard(node)
            return
        while pending and j > 0:
            j -= 1
            node = node_of[j]
            if node in pending and (status[j] == SERVED
                                    or status[j] == TIMEOUT):
                if times[j] + latency[j] - net_s >= when:
                    status[j] = FAILED
                    latency[j] = math.nan
                else:
                    pending.discard(node)

    def _complete(self, arrivals: np.ndarray, status: np.ndarray,
                  latency: np.ndarray,
                  batch_of: np.ndarray) -> List[Tuple[float, int]]:
        """Fill the outcomes of batched requests from their batches'
        rows, after the loop, and return the batch log: ``(finish,
        size)`` per dispatch, sorted (lazy dispatches log out of finish
        order).

        A member of a dispatched batch that no loss failed gets latency
        ``(close - arrival) + tail``, the loop's arithmetic bit for bit,
        and ``SERVED`` or ``TIMEOUT`` from its deadline; members of
        batches that never dispatched, and failed ones, stay ``FAILED``
        with NaN latency.  The pass runs in chunks of ``_CHUNK``
        requests, so its temporaries do not grow with the trace.  With
        metrics on, the queue-wait and occupancy histograms get every
        dispatched member's ``start - arrival`` and every batch's size
        in dispatch order, as if observed at each dispatch."""
        close, tail, start, finish, size = (np.asarray(r)
                                            for r in self._rows)
        row_of = np.asarray(self._row_of)
        self._row_of = self._rows = None
        order = np.lexsort((size, finish))
        batch_log = list(zip(finish[order].tolist(),
                             size[order].tolist()))
        deadline_s = self.spec.deadline_s
        for lo in range(0, batch_of.size, _CHUNK):
            ids = batch_of[lo:lo + _CHUNK]
            members = np.flatnonzero(ids >= 0)
            rows = row_of[ids[members]]
            done = rows >= 0
            members = members[done]
            members += lo
            rows = rows[done]
            lat = close[rows]
            lat -= arrivals[members]
            lat += tail[rows]
            latency[members] = lat
            status[members] = np.where(lat <= deadline_s,
                                       np.uint8(SERVED), np.uint8(TIMEOUT))
        if not self.metrics.enabled:
            return batch_log
        # Failed members were observed at their dispatch too.
        ids = np.where(batch_of > _LOST, batch_of, _LOST - batch_of)
        members = np.flatnonzero(ids >= 0)
        rows = row_of[ids[members]]
        done = rows >= 0
        members, rows = members[done], rows[done]
        # Dispatch order; a batch's members in arrival order.
        order = np.argsort(rows, kind="stable")
        members, rows = members[order], rows[order]
        self._queue_wait.observe_many(start[rows] - arrivals[members])
        self._occupancy.observe_many(size.astype(np.float64))
        return batch_log

    def _autoscale(self, when: float, heap, seq) -> None:
        """One autoscaler tick: size the active set from the arrival
        rate over the last interval."""
        policy = self.autoscaler
        times = self._views[0]
        lo = bisect.bisect_right(times, when - policy.interval_s)
        hi = bisect.bisect_right(times, when)
        rate = (hi - lo) / policy.interval_s
        max_batch = len(self._svc) - 1
        cap = max_batch / self._svc[max_batch]
        desired = math.ceil(rate / (policy.target_utilization * cap))
        ceiling = (policy.max_nodes if policy.max_nodes is not None
                   else self.spec.num_nodes)
        desired = min(max(desired, policy.min_nodes), ceiling)
        if desired != self._active:
            self._active = desired
            self._active_trace.append((when, desired))
            self.tracer.instant("cluster:autoscale", when,
                                track="cluster", target=desired)
            self._rebuild_view()
        n = len(times)
        if n and when <= times[n - 1]:
            heapq.heappush(heap, (when + policy.interval_s, next(seq),
                                  "_ascale", 0, 0.0))

    def _apply(self, when: float, action: str, target: int,
               value: float, heap, seq, upto: int) -> None:
        """Apply one control event at simulated time ``when``;
        requests before ``upto`` have been routed."""
        if action == "_scrape":
            # Observation only: read state into the monitor's store and
            # return before the event log / tracer / view rebuild, so a
            # monitored run's log and outcomes stay bit-identical to an
            # unmonitored one.
            self.monitor.scrape(when, self)
            return
        if action == "_ascale":
            self._autoscale(when, heap, seq)
            return
        spec = self.spec
        if action in _NODE_ACTIONS:
            nodes = (target,)
        elif action[0] != "_":
            nodes = spec.nodes_in_rack(target)
        else:
            nodes = ()
        if self._size is not None:
            for node in nodes:
                self._settle(node, when)
        up = self._up
        if action == "crash":
            if up[target]:
                up[target] = False
                self._silence(target, when, heap, seq)
                self._lose(nodes, when, upto)
        elif action == "repair":
            if not up[target]:
                up[target] = True
                # The crash failed the node's work; it restarts idle.
                self._free_at[target] = when
                if self._alive(target):
                    self._resume(target, when, heap, seq)
        elif action == "rack_down":
            lost = [node for node in nodes if up[node]]
            for node in lost:
                up[node] = False
                self._silence(node, when, heap, seq)
            self._lose(lost, when, upto)
        elif action == "rack_up":
            for node in nodes:
                if not up[node]:
                    up[node] = True
                    self._free_at[node] = when
                    if self._alive(node):
                        self._resume(node, when, heap, seq)
        elif action == "partition":
            self._cut_racks.add(target)
            lost = [node for node in nodes if up[node]]
            for node in lost:
                self._silence(node, when, heap, seq)
            self._lose(lost, when, upto)
        elif action == "heal":
            self._cut_racks.discard(target)
            for node in nodes:
                if up[node]:
                    # The cut failed the node's work; it restarts idle.
                    self._free_at[node] = when
                    self._resume(node, when, heap, seq)
        elif action == "slow":
            self._slow[target] = value
        elif action == "unslow":
            self._slow[target] = 1.0
        elif action == "_evict":
            if not (self.detector.evict(target, when)):
                return
        elif action == "_readmit":
            if not (self.detector.readmit(target, when)):
                return
        else:  # pragma: no cover - actions validated at construction
            raise ClusterError(f"unknown event action {action!r}")
        self._event_log.append((when, action.lstrip("_"), target))
        self.tracer.instant(f"cluster:{action.lstrip('_')}", when,
                            track="cluster", target=target)
        self._rebuild_view()

    # -- the run ----------------------------------------------------------

    def run(self, arrivals: Sequence[float],
            events: Sequence[ClusterEvent] = ()) -> ClusterResult:
        """Drive ``arrivals`` (sorted seconds) through the cluster.

        Setup coerces and checks the trace, pre-draws the routing
        randomness, resets the cluster state, seeds the event heap and
        allocates the outcome arrays; :meth:`_loop` then runs the one
        event loop, :meth:`_complete` fills the batched requests'
        outcomes from their batches' rows, and teardown counts outcomes
        and builds the :class:`ClusterResult`.  The loop indexes the
        trace, the positions and slots derived from the draws, and the
        outcome arrays through ``memoryview``s, so every per-request
        value is a Python scalar, not a numpy one.

        A ``crash``, ``rack_down`` or ``partition`` at time X fails the
        lost nodes' forming batches and every request they accepted
        that finishes at or after X: batching widens the blast radius
        of a node loss, and the model is honest about it.
        """
        spec = self.spec
        # Memoryviews need C-contiguous float64, whatever came in.
        arrivals = checked_trace(arrivals, ClusterError)
        for ev in events:
            # Range-check every target up front: a bad index must not
            # fail mid-run, or wrap silently (crash(-1) is node N-1).
            try:
                if ev.action in _NODE_ACTIONS:
                    spec.rack_of(ev.target)
                else:
                    spec.nodes_in_rack(ev.target)
            except ClusterError as exc:
                raise ClusterError(f"{ev}: {exc}") from None
        n = int(arrivals.size)

        # Pre-vectorized load generation: every per-request random draw
        # for the whole run happens here, in one numpy call — the loop
        # only indexes. This is what keeps 1e6+ requests fast *and*
        # bit-deterministic per seed.
        route_u = np.random.default_rng(self.seed).random((2, max(n, 1)))

        self._up = [True] * spec.num_nodes
        self._slow = [1.0] * spec.num_nodes
        self._free_at = [0.0] * spec.num_nodes
        self._cut_racks: set = set()
        self._reachable = [True] * spec.num_nodes
        self._event_log: List[Tuple[float, str, int]] = []
        self._net_s = 2e-6 * spec.network.transfer_us(spec.payload_bytes)
        if self.detector is not None:
            self.detector.reset()

        seq = iter(range(1 << 62))
        heap: List[Tuple[float, int, str, int, float]] = []
        for ev in events:
            heapq.heappush(heap, (ev.time_s, next(seq), ev.action,
                                  ev.target, ev.value))

        bcfg = self.batching
        autoscaler = self.autoscaler
        self._active = spec.num_nodes
        self._active_trace: Optional[List[Tuple[float, int]]] = None
        if autoscaler is not None:
            self._active = autoscaler.min_nodes
            self._active_trace = [(0.0, self._active)]
            heapq.heappush(heap, (autoscaler.interval_s, next(seq),
                                  "_ascale", 0, 0.0))
        self._rebuild_view()
        # A batched node's forming batch is its size, its close-by
        # instant (head arrival + timeout) and its batch id; a request
        # the batch takes stores only the id.  ``_row_of`` maps a batch
        # id to its dispatch row (-1 while forming, or discarded by a
        # loss) and ``_rows`` holds one (close, tail, start, finish,
        # size) row per dispatch, in dispatch order.
        self._size: Optional[List[int]] = None
        if bcfg is None:
            self._svc = [0.0, spec.service_time_s]
        else:
            # The curve is evaluated once per dispatch size, not per
            # dispatch — measured curves interpolate, and a million
            # dispatches should not pay that repeatedly.
            self._svc = [0.0] + [float(bcfg.curve(b))
                                 for b in range(1, bcfg.max_batch + 1)]
            self._timeout_s = bcfg.timeout_s
            self._size = [0] * spec.num_nodes
            self._due = [0.0] * spec.num_nodes
            self._bid = [0] * spec.num_nodes
            self._row_of = array("i")
            self._rows = (array("d"), array("d"), array("d"), array("d"),
                          array("i"))
            self._occupancy = self.metrics.histogram(
                "cluster.batch_occupancy", bounds=OCCUPANCY_BOUNDS)
            self._queue_wait = self.metrics.histogram(
                "cluster.queue_wait_s", bounds=QUEUE_WAIT_BOUNDS)

        monitor = self.monitor
        if monitor is not None:
            for ts in monitor.begin(self, arrivals, events):
                heapq.heappush(
                    heap, (float(ts), next(seq), "_scrape", 0, 0.0))

        # Per-request node attribution, for node loss and the monitor.
        # A bytearray (0xFF = unrouted) converts to numpy zero-copy
        # after the run; fall back to a list when node ids don't fit a
        # byte.
        node_of = bytearray(b"\xff" * n) \
            if spec.num_nodes < 0xFF else [-1] * n
        # FAILED is the default: the loop leaves a failed request's
        # status.
        status = np.full(n, FAILED, dtype=np.uint8)
        latency = np.full(n, np.nan, dtype=np.float64)
        self._views = (memoryview(arrivals), memoryview(status),
                       memoryview(latency), node_of)
        batch_of = None
        if bcfg is not None:
            # Per-request batch id (-1: no batch took the request).
            batch_of = np.full(n, -1, dtype=np.int32)
            self._batch_of = memoryview(batch_of)
        self._loop(route_u, heap, seq)
        del route_u
        self._views = self._batch_of = None
        batch_log = None
        if batch_of is not None:
            batch_log = self._complete(arrivals, status, latency, batch_of)
            del batch_of

        m = self.metrics
        for code, name in STATUS_NAMES.items():
            count = int(np.count_nonzero(status == code))
            if count:
                m.counter(f"cluster.requests.{name}").inc(count)
        finite = np.isfinite(latency)
        if finite.any():
            m.counter("cluster.deadline_violations").inc(
                int(np.count_nonzero(latency[finite] > spec.deadline_s)))

        result = ClusterResult(
            spec=spec, arrivals=arrivals, status=status,
            latency_s=latency, event_log=list(self._event_log),
            detector_transitions=list(
                self.detector.transitions if self.detector else []),
            batch_log=batch_log, active_nodes_trace=self._active_trace)
        if monitor is not None:
            monitor.finish(result, node_of)
        return result

    def _loop(self, route_u: np.ndarray, heap, seq) -> None:
        """The event loop: control events from the heap between
        arrivals, then routing, admission, shedding and batching per
        request.  ``route_u`` is the (2, n) float64 array of routing
        draws; the trace and outcome views are in ``self._views``.

        Only sequential state stays per request in Python: the token
        bucket, the CPU slots' and nodes' ``free_at``, forming batches
        and the shed checks.  What depends only on the draws moves to
        numpy: the brownout CPU slots (``int(draw * ncpu)``) once per
        run, and the routing positions (``int(draw * len(view))``) once
        per stretch of arrivals between two control events, the only
        times the view changes.  numpy's float64 product and truncating
        cast give the values Python's ``*`` and ``int()`` give on the
        same draws, so the outcomes are the same bit for bit."""
        spec = self.spec
        times, status, latency, node_of = self._views
        # Hot-loop locals (attribute lookups hoisted out of the loop).
        svc = self._svc
        max_batch = len(svc) - 1
        full_s = svc[max_batch]
        deadline_s = spec.deadline_s
        queue_s = spec.queue_depth * full_s
        net_s = self._net_s
        sizes = self._size
        batched = sizes is not None  # else: the batch-1 fast path
        if batched:
            timeout_s = self._timeout_s
            due = self._due
            open_bid = self._bid
            row_of = self._row_of
            batch_of = self._batch_of
        dispatch = self._dispatch
        free_at = self._free_at
        slow = self._slow
        reachable = self._reachable
        least_loaded = self.router == "least_loaded"
        random_router = self.router == "random"
        p2c = self.router == "p2c"
        retries = self.retries
        admission = self.admission
        tokens = tok_burst = admission.burst if admission else 0.0
        tok_rate = admission.rate_rps if admission else 0.0
        n = len(times)
        last_t = times[0] if n else 0.0
        brownout = self.brownout
        if brownout is not None:
            ncpu = brownout.max_concurrent
            cpu_free = [0.0] * ncpu
            cpu_latency = brownout.cpu_latency_s
            slots = _cast_product(route_u, ncpu)
            slot1, slot2 = memoryview(slots[0]), memoryview(slots[1])
        shed_on_deadline = self.shed_on_deadline
        # Positions into the view, indexed like the draws.  Python
        # ints come out of a memoryview, numpy scalars out of an array.
        pos = np.empty(route_u.shape,
                       dtype=np.min_scalar_type(spec.num_nodes))
        pos1, pos2 = memoryview(pos[0]), memoryview(pos[1])
        # Only control events push onto this heap and change the
        # router's view, so both are read at the first arrival and
        # after events, not per request, and the positions are filled
        # for the arrivals before the next event.
        next_at = -math.inf

        for i in range(n):
            t = times[i]
            if t >= next_at:
                while heap and heap[0][0] <= t:
                    when, _, action, target, value = heapq.heappop(heap)
                    self._apply(when, action, target, value, heap, seq, i)
                view = self._view
                nh = len(view)
                next_at = heap[0][0] if heap else math.inf
                hi = bisect.bisect_left(times, next_at, i)
                if nh:
                    _cast_product(route_u[:, i:hi], nh, out=pos[:, i:hi])

            # Admission control: continuous token refill, 1/request.
            # Rejected requests get the brownout CPU path if it has
            # room — degrade before turning users away.
            if admission is not None:
                tokens += (t - last_t) * tok_rate
                if tokens > tok_burst:
                    tokens = tok_burst
                last_t = t
                if tokens < 1.0:
                    if brownout is not None:
                        slot = slot1[i]
                        finish = max(t, cpu_free[slot]) + cpu_latency
                        if finish - t <= deadline_s:
                            cpu_free[slot] = finish
                            status[i] = BROWNOUT
                            latency[i] = finish - t
                            continue
                    status[i] = SHED_ADMISSION
                    continue
                tokens -= 1.0

            node = -1
            if nh:
                if random_router:
                    node = view[pos1[i]]
                elif least_loaded:
                    # min() keeps the first of equal backlogs.
                    node = min(view, key=free_at.__getitem__)
                else:  # p2c
                    a = view[pos1[i]]
                    b = view[pos2[i]]
                    node = a if free_at[a] <= free_at[b] else b
                # Failed requests attribute to the dead node they
                # landed on — that's the failure domain that ate them,
                # which is what the monitor's per-rack breakdown needs.
                node_of[i] = node
                # Failover: in the detection window after a fault the
                # router's view still contains dead nodes; one retry on
                # the alternate candidate is the client-side hedge.
                # Under p2c that is the other pick: the second draw
                # unless the second draw is the dead node.
                if not reachable[node]:
                    if retries < 1:
                        node = -1
                    else:
                        alt = view[pos2[i]]
                        if p2c and alt == node:
                            alt = view[pos1[i]]
                        node = alt if reachable[alt] else -1
                        if node >= 0:
                            node_of[i] = node

            if node < 0:
                # No live candidate: brownout if possible, else fail.
                if brownout is not None:
                    slot = slot1[i]
                    finish = max(t, cpu_free[slot]) + cpu_latency
                    if finish - t <= deadline_s:
                        cpu_free[slot] = finish
                        status[i] = BROWNOUT
                        latency[i] = finish - t
                continue

            if batched:
                # A forming batch whose close has passed dispatches
                # before this request can join it.
                size = sizes[node]
                if size:
                    close = due[node]
                    if free_at[node] > close:
                        close = free_at[node]
                    if close <= t:
                        dispatch(node, close)
                        size = 0
            wait = free_at[node] - t
            if wait < 0.0:
                wait = 0.0
            service = full_s * slow[node]
            predicted = wait + service + net_s
            if shed_on_deadline and (wait > queue_s
                                     or predicted > deadline_s):
                # Bounded queue / deadline-aware shedding: don't burn
                # server time on a request that cannot meet its SLO.
                # Both bounds use the dispatched backlog and a full
                # batch's service time; at batch 1 that is the request.
                # The ablated stack skips this — it queues without
                # backpressure and lets clients time out instead.
                if brownout is not None:
                    slot = slot2[i]
                    finish = max(t, cpu_free[slot]) + cpu_latency
                    if finish - t <= deadline_s:
                        cpu_free[slot] = finish
                        status[i] = BROWNOUT
                        latency[i] = finish - t
                        continue
                status[i] = SHED_DEADLINE
                continue
            if batched:
                if size:
                    batch_of[i] = open_bid[node]
                else:
                    # The request opens a batch; the id is its row_of
                    # index, the row filled at dispatch.
                    open_bid[node] = batch_of[i] = len(row_of)
                    row_of.append(-1)
                    due[node] = t + timeout_s
                size += 1
                sizes[node] = size
                if size == max_batch:
                    dispatch(node, t)
            else:
                free_at[node] = t + wait + service
                latency[i] = predicted
                status[i] = SERVED if predicted <= deadline_s else TIMEOUT

        # Drain any control events past the last arrival so the event
        # log reflects the full scenario timeline, then dispatch every
        # batch still forming.
        while heap:
            when, _, action, target, value = heapq.heappop(heap)
            self._apply(when, action, target, value, heap, seq, n)
        if batched:
            for node in range(spec.num_nodes):
                self._settle(node, math.inf)
