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
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..obs import Metrics, Tracer, or_null, or_null_metrics, \
    percentile_or_nan
from .batching import OCCUPANCY_BOUNDS, QUEUE_WAIT_BOUNDS
from .loadgen import checked_trace
from .network import NetworkFabric, NetworkModel
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
    #: exceeds ``queue_depth`` service times are shed.
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
    node queues requests and dispatches ``min(queued, max_batch)`` when
    the batch fills or the oldest request has waited ``timeout_s``.
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
        t1 = float(self.curve(1))
        if not t1 > 0:
            raise ClusterError(
                f"batching curve(1) must be positive, got {t1:g}")


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

    Percentiles follow NaN-with-flag semantics: when there are no
    served requests (``has_latencies`` is ``False``) they return
    ``nan`` rather than raising or reporting a misleading ``0.0``.
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
    #: Batched runs only: ``(finish_time_s, batch_size)`` per dispatch.
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
    def failed(self) -> int:
        return self.count(FAILED)

    @property
    def has_latencies(self) -> bool:
        """At least one request completed — latency percentiles are
        real numbers rather than ``nan``."""
        return bool(np.isfinite(self.latency_s).any())

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
        when nothing completed (``has_latencies`` flags it)."""
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


class ClusterSimulator:
    """Discrete-event simulator of one cluster under load and faults.

    The event heap carries control-plane changes (crashes, repairs,
    rack/TOR outages, partitions, slow-node onsets, detector
    evict/readmit edges); the data plane processes the open-loop
    arrival trace in time order between them.  Per-request work is
    O(1) for ``p2c``/``random`` routing (O(nodes) for
    ``least_loaded``).  All per-request randomness is pre-drawn as
    vectorized ``numpy`` arrays, and the loops read it, the arrivals
    and the outcome arrays through ``memoryview``s as plain Python
    scalars, so million-request traces run in seconds and are
    bit-deterministic per seed.

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
        ``brownout=None`` disable those mitigations; ``retries`` is the
        number of immediate failovers after landing on a dead node.

        ``monitor`` (a :class:`~repro.system.monitor.FleetMonitor`)
        attaches the telemetry plane: the simulator schedules its
        scrape instants as ``_scrape`` control events and hands it the
        per-request node attribution after the run.  Monitoring is
        observation-only — it never touches the RNG stream, the event
        log, or any outcome.

        ``batching`` (a :class:`NodeBatching`) switches :meth:`run` to
        the batched-node data plane: every node runs a batching queue
        whose dispatch service time comes from the measured curve.
        ``autoscaler`` (requires ``batching``) resizes the active node
        set from observed arrival rate.  The batched path models
        bounded queues and deadline shedding but not admission
        control, brownout, or the telemetry monitor — those
        combinations raise rather than silently ignoring a policy."""
        if router not in _ROUTERS:
            raise ClusterError(
                f"unknown router {router!r}; one of {_ROUTERS}")
        if retries < 0:
            raise ClusterError("retries must be >= 0")
        if autoscaler is not None and batching is None:
            raise ClusterError("autoscaler requires batching")
        if batching is not None and (admission is not None
                                     or brownout is not None
                                     or monitor is not None):
            raise ClusterError(
                "batched clusters do not support admission control, "
                "brownout, or a monitor; configure those on the "
                "unbatched data plane")
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
        self.fabric = NetworkFabric(self.spec.network)

    # -- state helpers ----------------------------------------------------

    def _rebuild_view(self) -> None:
        """Recompute the router's candidate list (cheap: state changes
        only at control events, never per request)."""
        evicted = self.detector.evicted if self.detector else ()
        self._view = [i for i in range(self.spec.num_nodes)
                      if i not in evicted]

    def _alive(self, node: int) -> bool:
        return self._up[node] and self.fabric.connected(
            "frontend", f"rack{self.spec.rack_of(node)}")

    def _partitioned(self, rack: int) -> bool:
        return rack in self._cut_racks

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

    def _apply(self, when: float, action: str, target: int,
               value: float, heap, seq) -> None:
        """Apply one control event at simulated time ``when``."""
        if action == "_scrape":
            # Observation only: read state into the monitor's store and
            # return before the event log / tracer / view rebuild, so a
            # monitored run's log and outcomes stay bit-identical to an
            # unmonitored one.
            self.monitor.scrape(when, self)
            return
        spec = self.spec
        log = self._event_log
        if action == "crash":
            if self._up[target]:
                self._up[target] = False
                self._silence(target, when, heap, seq)
        elif action == "repair":
            if not self._up[target]:
                self._up[target] = True
                # Queued work on a crashed node is lost with it.
                self._free_at[target] = when
                if self._alive(target):
                    self._resume(target, when, heap, seq)
        elif action == "rack_down":
            for node in spec.nodes_in_rack(target):
                if self._up[node]:
                    self._up[node] = False
                    self._silence(node, when, heap, seq)
        elif action == "rack_up":
            for node in spec.nodes_in_rack(target):
                if not self._up[node]:
                    self._up[node] = True
                    self._free_at[node] = when
                    if self._alive(node):
                        self._resume(node, when, heap, seq)
        elif action == "partition":
            self.fabric.cut("frontend", f"rack{target}")
            self._cut_racks.add(target)
            for node in spec.nodes_in_rack(target):
                if self._up[node]:
                    self._silence(node, when, heap, seq)
        elif action == "heal":
            self.fabric.heal("frontend", f"rack{target}")
            self._cut_racks.discard(target)
            for node in spec.nodes_in_rack(target):
                if self._up[node]:
                    # Queued work stranded behind the partition is lost.
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
        log.append((when, action.lstrip("_"), target))
        self.tracer.instant(f"cluster:{action.lstrip('_')}", when,
                            track="cluster", target=target)
        self._rebuild_view()

    # -- the run ----------------------------------------------------------

    def run(self, arrivals: Sequence[float],
            events: Sequence[ClusterEvent] = ()) -> ClusterResult:
        """Drive ``arrivals`` (sorted seconds) through the cluster.

        One per-run setup and teardown serves both data planes.  It
        coerces and checks the trace, pre-draws the routing randomness,
        resets the cluster state, seeds the event heap and allocates
        the outcome arrays; after the loop it counts outcomes and
        builds the :class:`ClusterResult`.  In between runs the
        unbatched loop (:meth:`_run_unbatched`) or, with a
        :class:`NodeBatching` configured, the batched one
        (:meth:`_run_batched`).  Both loops index the trace, the draws
        and the outcome arrays through ``memoryview``s, so every
        per-request value is a Python scalar, not a numpy one.
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
        # for the whole run happens here, in one numpy call — the loops
        # only index. This is what keeps 1e6+ requests fast *and*
        # bit-deterministic per seed.
        route_u = np.random.default_rng(self.seed).random((2, max(n, 1)))

        self._up = [True] * spec.num_nodes
        self._slow = [1.0] * spec.num_nodes
        self._free_at = [0.0] * spec.num_nodes
        self._cut_racks: set = set()
        self._event_log: List[Tuple[float, str, int]] = []
        self.fabric.heal_all()
        self._rebuild_view()

        seq = iter(range(1 << 62))
        heap: List[Tuple[float, int, str, int, float]] = []
        for ev in events:
            heapq.heappush(heap, (ev.time_s, next(seq), ev.action,
                                  ev.target, ev.value))

        monitor = self.monitor
        node_of = None
        if monitor is not None:
            # Per-request node attribution for the monitor.  A bytearray
            # (0xFF = unrouted) converts to numpy zero-copy after the
            # run; fall back to a list when node ids don't fit a byte.
            node_of = bytearray(b"\xff" * n) \
                if spec.num_nodes < 0xFF else [-1] * n
            for ts in monitor.begin(self, arrivals, events):
                heapq.heappush(
                    heap, (float(ts), next(seq), "_scrape", 0, 0.0))

        # FAILED is the default: loops leave a failed request's status.
        status = np.full(n, FAILED, dtype=np.uint8)
        latency = np.full(n, np.nan, dtype=np.float64)
        loop_args = (memoryview(arrivals), memoryview(route_u[0]),
                     memoryview(route_u[1]), memoryview(status),
                     memoryview(latency), heap, seq)
        batch_log = active_trace = None
        if self.batching is None:
            self._run_unbatched(*loop_args, node_of)
        else:
            batch_log, active_trace = self._run_batched(*loop_args)

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
            batch_log=batch_log, active_nodes_trace=active_trace)
        if monitor is not None:
            monitor.finish(result, node_of)
        return result

    def _run_unbatched(self, times, draw1, draw2, status, latency, heap,
                       seq, node_of) -> None:
        """Unbatched data plane: each node serves one request at a
        time, first come first served.  The first five arguments are
        memoryviews of :meth:`run`'s arrivals, routing draws, status
        and latency; ``node_of`` is the monitor's attribution."""
        spec = self.spec
        # Hot-loop locals (attribute lookups hoisted out of the loop).
        service_s = spec.service_time_s
        deadline_s = spec.deadline_s
        queue_s = spec.queue_depth * service_s
        net_s = 2e-6 * spec.network.transfer_us(spec.payload_bytes)
        free_at = self._free_at
        slow = self._slow
        up = self._up
        least_loaded = self.router == "least_loaded"
        random_router = self.router == "random"
        retries = self.retries
        admission = self.admission
        tokens = tok_burst = admission.burst if admission else 0.0
        tok_rate = admission.rate_rps if admission else 0.0
        n = len(times)
        last_t = times[0] if n else 0.0
        brownout = self.brownout
        cpu_free: List[float] = []
        if brownout is not None:
            cpu_free = [0.0] * brownout.max_concurrent
            cpu_latency = brownout.cpu_latency_s
        ncpu = len(cpu_free)
        shed_on_deadline = self.shed_on_deadline
        cut_racks = self._cut_racks
        rack_span = spec.nodes_per_rack
        # Only control events push onto this heap and change the
        # router's view, so both are re-read after events, not per
        # request.
        view = self._view
        nh = len(view)
        next_at = heap[0][0] if heap else math.inf

        for i in range(n):
            t = times[i]
            if t >= next_at:
                while heap and heap[0][0] <= t:
                    when, _, action, target, value = heapq.heappop(heap)
                    self._apply(when, action, target, value, heap, seq)
                view = self._view
                nh = len(view)
                next_at = heap[0][0] if heap else math.inf

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
                        slot = int(draw1[i] * ncpu)
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
                    node = view[int(draw1[i] * nh)]
                elif least_loaded:
                    backlog = [free_at[j] for j in view]
                    node = view[min(range(nh),
                                    key=backlog.__getitem__)]
                else:  # p2c
                    a = view[int(draw1[i] * nh)]
                    b = view[int(draw2[i] * nh)]
                    node = a if free_at[a] <= free_at[b] else b
                if node_of is not None:
                    # Failed requests attribute to the dead node they
                    # landed on — that's the failure domain that ate
                    # them, which is what the per-rack breakdown needs.
                    node_of[i] = node
                # Failover: in the detection window after a fault the
                # router's view still contains dead nodes; one retry on
                # the alternate candidate is the client-side hedge.
                if not up[node] or node // rack_span in cut_racks:
                    node = -1 if retries < 1 else \
                        view[int(draw2[i] * nh)]
                    if node >= 0 and (not up[node]
                                      or node // rack_span in cut_racks):
                        node = -1
                    elif node >= 0 and node_of is not None:
                        node_of[i] = node

            if node < 0:
                # No live candidate: brownout if possible, else fail.
                if brownout is not None:
                    slot = int(draw1[i] * ncpu)
                    finish = max(t, cpu_free[slot]) + cpu_latency
                    if finish - t <= deadline_s:
                        cpu_free[slot] = finish
                        status[i] = BROWNOUT
                        latency[i] = finish - t
                continue

            wait = free_at[node] - t
            if wait < 0.0:
                wait = 0.0
            service = service_s * slow[node]
            predicted = wait + service + net_s
            if shed_on_deadline and (wait > queue_s
                                     or predicted > deadline_s):
                # Bounded queue / deadline-aware shedding: don't burn
                # server time on a request that cannot meet its SLO.
                # The ablated stack skips this — it queues without
                # backpressure and lets clients time out instead.
                if brownout is not None:
                    slot = int(draw2[i] * ncpu)
                    finish = max(t, cpu_free[slot]) + cpu_latency
                    if finish - t <= deadline_s:
                        cpu_free[slot] = finish
                        status[i] = BROWNOUT
                        latency[i] = finish - t
                        continue
                status[i] = SHED_DEADLINE
                continue
            free_at[node] = t + wait + service
            latency[i] = predicted
            status[i] = SERVED if predicted <= deadline_s else TIMEOUT

        # Drain any control events past the last arrival so the event
        # log reflects the full scenario timeline.
        while heap:
            when, _, action, target, value = heapq.heappop(heap)
            self._apply(when, action, target, value, heap, seq)

    # -- the batched data plane -------------------------------------------

    def _run_batched(self, times, draw1, draw2, status, latency, heap,
                     seq) -> Tuple[List[Tuple[float, int]],
                                   Optional[List[Tuple[float, int]]]]:
        """Batched-node data plane (see :class:`NodeBatching`); takes
        the arguments of :meth:`_run_unbatched` but ``node_of`` and
        returns the batch log and the autoscaler's resize trace
        (``None`` without one).

        Each node owns a FIFO batching queue: a dispatch of
        ``min(queued, max_batch)`` requests starts when the node is
        free and either the batch is full or the oldest queued request
        has waited ``timeout_s``; its service time is the measured
        curve at the dispatch size (times any slow-node multiplier).
        Requests queued or in flight on a node that crashes or is
        partitioned away are ``FAILED`` — batching widens the blast
        radius of a node loss, and the model is honest about it.
        Routing, the failure detector, control events and the per-run
        setup are shared with the unbatched plane, so runs are
        bit-deterministic per seed.
        """
        spec = self.spec
        bcfg = self.batching
        autoscaler = self.autoscaler
        n = len(times)
        num_nodes = spec.num_nodes

        max_batch = bcfg.max_batch
        timeout_s = bcfg.timeout_s
        # The curve is evaluated once per dispatch size, not per
        # dispatch — measured curves interpolate, and a million
        # dispatches should not pay that repeatedly.
        svc = [0.0] + [float(bcfg.curve(b))
                       for b in range(1, max_batch + 1)]
        per_req_s = svc[max_batch] / max_batch
        queue_cap = spec.queue_depth * max_batch
        deadline_s = spec.deadline_s
        net_s = 2e-6 * spec.network.transfer_us(spec.payload_bytes)
        shed_on_deadline = self.shed_on_deadline
        retries = self.retries
        free_at = self._free_at
        slow = self._slow
        up = self._up
        cut_racks = self._cut_racks
        rack_span = spec.nodes_per_rack
        least_loaded = self.router == "least_loaded"
        random_router = self.router == "random"

        queues: List[deque] = [deque() for _ in range(num_nodes)]
        inflight: List[Optional[Tuple[float, List[Tuple[float, int]]]]] \
            = [None] * num_nodes
        epoch = [0] * num_nodes
        flush_at = [math.inf] * num_nodes
        batch_log: List[Tuple[float, int]] = []
        active_trace: List[Tuple[float, int]] = []

        m = self.metrics
        occupancy = m.histogram("cluster.batch_occupancy",
                                bounds=OCCUPANCY_BOUNDS)
        queue_wait = m.histogram("cluster.queue_wait_s",
                                 bounds=QUEUE_WAIT_BOUNDS)

        active_count = num_nodes
        if autoscaler is not None:
            active_count = autoscaler.min_nodes
            active_trace.append((0.0, active_count))
            heapq.heappush(heap, (autoscaler.interval_s, next(seq),
                                  "_ascale", 0, 0.0))
        eligible = list(self._view)
        eligible_dirty = autoscaler is not None

        def fail_node(node: int, when: float) -> None:
            """A node died or became unreachable: its queued and
            in-flight requests are lost."""
            flight = inflight[node]
            if flight is not None:
                inflight[node] = None
                for _, idx in flight[1]:
                    status[idx] = FAILED
                    latency[idx] = math.nan
            for _, idx in queues[node]:
                status[idx] = FAILED
            queues[node].clear()
            epoch[node] += 1
            flush_at[node] = math.inf

        def dispatch(node: int, now: float) -> None:
            q = queues[node]
            b = min(len(q), max_batch)
            batch = [q.popleft() for _ in range(b)]
            finish = now + svc[b] * slow[node]
            free_at[node] = finish
            inflight[node] = (finish, batch)
            flush_at[node] = math.inf
            heapq.heappush(heap, (finish, next(seq), "_bdone", node,
                                  float(epoch[node])))
            batch_log.append((finish, b))
            occupancy.observe(float(b))
            for arr, _ in batch:
                queue_wait.observe(now - arr)

        def maybe_dispatch(node: int, now: float) -> None:
            if inflight[node] is not None:
                return
            q = queues[node]
            if not q:
                return
            due = q[0][0] + timeout_s
            if len(q) >= max_batch or now >= due:
                dispatch(node, now)
                return
            if due < flush_at[node]:
                flush_at[node] = due
                heapq.heappush(heap, (due, next(seq), "_bflush",
                                      node, 0.0))

        def handle(when: float, action: str, target: int,
                   value: float) -> None:
            nonlocal eligible_dirty, active_count
            if action == "_bdone":
                node = target
                flight = inflight[node]
                if int(value) != epoch[node] or flight is None:
                    return
                finish, batch = flight
                inflight[node] = None
                for arr, idx in batch:
                    lat = finish - arr + net_s
                    latency[idx] = lat
                    status[idx] = SERVED if lat <= deadline_s \
                        else TIMEOUT
                maybe_dispatch(node, when)
                return
            if action == "_bflush":
                maybe_dispatch(target, when)
                return
            if action == "_ascale":
                lo = bisect.bisect_right(times,
                                         when - autoscaler.interval_s)
                hi = bisect.bisect_right(times, when)
                rate = (hi - lo) / autoscaler.interval_s
                cap = max_batch / svc[max_batch]
                desired = math.ceil(
                    rate / (autoscaler.target_utilization * cap))
                ceiling = (autoscaler.max_nodes
                           if autoscaler.max_nodes is not None
                           else num_nodes)
                desired = min(max(desired, autoscaler.min_nodes),
                              ceiling)
                if desired != active_count:
                    active_count = desired
                    active_trace.append((when, desired))
                    eligible_dirty = True
                    self.tracer.instant("cluster:autoscale", when,
                                        track="cluster",
                                        target=desired)
                if n and when <= times[n - 1]:
                    heapq.heappush(
                        heap, (when + autoscaler.interval_s,
                               next(seq), "_ascale", 0, 0.0))
                return
            self._apply(when, action, target, value, heap, seq)
            eligible_dirty = True
            if action in ("crash", "rack_down", "partition"):
                affected = ([target] if action == "crash"
                            else spec.nodes_in_rack(target))
                for node in affected:
                    if not up[node] or node // rack_span in cut_racks:
                        fail_node(node, when)

        def load(node: int, now: float) -> float:
            """Backlog estimate for routing: residual busy time plus
            amortized queue drain time."""
            busy = free_at[node] - now
            if busy < 0.0:
                busy = 0.0
            return busy + len(queues[node]) * per_req_s

        # Dispatches push onto the heap between control events, so
        # unlike the unbatched loop this one checks it per request.
        for i in range(n):
            t = times[i]
            while heap and heap[0][0] <= t:
                when, _, action, target, value = heapq.heappop(heap)
                handle(when, action, target, value)
            if eligible_dirty:
                view = self._view
                eligible = (view if autoscaler is None else
                            [v for v in view if v < active_count])
                eligible_dirty = False

            nh = len(eligible)
            node = -1
            if nh:
                if random_router:
                    node = eligible[int(draw1[i] * nh)]
                elif least_loaded:
                    backlog = [load(j, t) for j in eligible]
                    node = eligible[min(range(nh),
                                        key=backlog.__getitem__)]
                else:  # p2c: load() inlined, as it runs per request
                    a = eligible[int(draw1[i] * nh)]
                    b = eligible[int(draw2[i] * nh)]
                    busy_a = free_at[a] - t
                    busy_b = free_at[b] - t
                    node = a if ((busy_a if busy_a >= 0.0 else 0.0)
                                 + len(queues[a]) * per_req_s
                                 <= (busy_b if busy_b >= 0.0 else 0.0)
                                 + len(queues[b]) * per_req_s) else b
                if not up[node] or node // rack_span in cut_racks:
                    node = -1 if retries < 1 else \
                        eligible[int(draw2[i] * nh)]
                    if node >= 0 and (not up[node]
                                      or node // rack_span in cut_racks):
                        node = -1

            if node < 0:
                continue

            q = queues[node]
            qlen = len(q)
            if qlen >= queue_cap:
                status[i] = SHED_DEADLINE
                continue
            if shed_on_deadline:
                # Optimistic finish bound: residual busy time, the
                # full batches already ahead, then this request's own
                # dispatch — no timeout waits included, so a request
                # is only shed when even the best case misses the SLO.
                busy = free_at[node] - t
                if busy < 0.0:
                    busy = 0.0
                own = svc[min(qlen + 1, max_batch)] * slow[node]
                predicted = busy + (qlen // max_batch) \
                    * svc[max_batch] * slow[node] + own + net_s
                if predicted > deadline_s:
                    status[i] = SHED_DEADLINE
                    continue
            q.append((t, i))
            if inflight[node] is None:
                maybe_dispatch(node, t)

        # Drain everything past the last arrival: pending timeouts
        # dispatch, in-flight batches commit, control events land.
        while heap:
            when, _, action, target, value = heapq.heappop(heap)
            handle(when, action, target, value)

        return batch_log, (active_trace if autoscaler is not None
                           else None)
