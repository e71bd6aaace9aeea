"""Hardware microservices: pooled FPGAs served over the network.

Section II-A: accelerators are "logically disaggregated and pooled into
instances of hardware microservices with no software in the loop",
registered with a resource manager and addressed directly by IP. The
resource manager here is replica-aware: a service name maps to one or
more :class:`FpgaNode` replicas, each with a consecutive-failure
circuit breaker (open -> timed half-open probe -> closed) so callers
can fail over around crashed or misbehaving nodes.
"""

from __future__ import annotations

import dataclasses
import difflib
import itertools
import math
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from ..compiler.lowering import CompiledModel
from ..errors import FaultError, ReproError
from ..functional.executor import FunctionalSimulator
from ..obs import Metrics, Tracer, or_null, or_null_metrics
from ..timing.scheduler import TimingSimulator
from .network import Locality, NetworkModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .faults import FaultInjector


class ServiceError(ReproError):
    """Microservice registration/lookup failure."""


_ip_counter = itertools.count(1)


@dataclasses.dataclass
class FpgaNode:
    """One network-attached FPGA hosting a compiled model."""

    name: str
    compiled: CompiledModel
    locality: Locality = Locality.SAME_RACK
    _resident: Optional[FunctionalSimulator] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = next(_ip_counter)
        self.ip_address = f"10.0.{n // 256}.{n % 256}"
        self._timing = TimingSimulator(self.compiled.config)
        self._latency_cache: Dict[int, float] = {}

    def compute_latency_s(self, steps: int) -> float:
        """NPU compute latency for a ``steps``-step invocation.

        The timing simulator is deterministic for a given program and
        step count, so results are memoized — serving simulations
        invoke the same shape thousands of times.
        """
        if steps not in self._latency_cache:
            report = self._timing.run(
                self.compiled.program,
                bindings={self.compiled.steps_binding: steps},
                nominal_ops=self.compiled.ops_per_step * steps)
            self._latency_cache[steps] = report.latency_s
        return self._latency_cache[steps]

    def batch_compute_latency_s(self, steps: int, batch: int) -> float:
        """Compute latency of one batched invocation of ``batch``
        requests of ``steps`` timesteps each.

        The node processes requests serially: ``batch`` times the
        batch-1 latency (a batch-1 NPU gains nothing from coalescing),
        so batch 1 is exactly :meth:`compute_latency_s`.
        """
        if batch < 1:
            raise ServiceError(f"{self.name}: batch must be >= 1, "
                               f"got {batch}")
        return self.compute_latency_s(steps) * batch

    def simulator(self) -> FunctionalSimulator:
        """The node's resident functional simulator, built on first use:
        weights pinned once in the configured BFP format, replay plans
        cached across requests.  Requests never write state back to it.
        Raises :class:`~repro.errors.CompileError` for shape-only
        models."""
        if self._resident is None:
            self._resident = self.compiled.new_simulator()
        return self._resident

    def run_functional(self, xs_batch: List[List[np.ndarray]]
                       ) -> List[List[np.ndarray]]:
        """Outputs of ``len(xs_batch)`` requests (lockstep lengths) from
        one batched replay on :meth:`simulator`, each bit-identical to
        ``compiled.run_sequence(xs)`` on a fresh simulator."""
        return self.compiled.run_sequence_batched(xs_batch,
                                                  sim=self.simulator())


@dataclasses.dataclass(frozen=True)
class InvocationResult:
    """Latency breakdown of one microservice invocation."""

    network_in_s: float
    compute_s: float
    network_out_s: float
    outputs: Optional[List[np.ndarray]] = None

    @property
    def total_s(self) -> float:
        return self.network_in_s + self.compute_s + self.network_out_s

    @property
    def total_ms(self) -> float:
        return self.total_s * 1e3


@dataclasses.dataclass(frozen=True)
class BatchedInvocationResult:
    """Latency breakdown of one *batched* microservice invocation.

    One dispatch serves ``batch`` coalesced requests; every request in
    the batch finishes together at ``total_s``.  ``outputs[b]`` (when
    functional inputs were given) is request ``b``'s output list,
    bit-identical to a sequential :meth:`HardwareMicroservice.invoke`
    of that request alone.
    """

    batch: int
    network_in_s: float
    compute_s: float
    network_out_s: float
    outputs: Optional[List[List[np.ndarray]]] = None

    @property
    def total_s(self) -> float:
        return self.network_in_s + self.compute_s + self.network_out_s


class HardwareMicroservice:
    """A published model-serving endpoint backed by one FPGA node.

    ``injector`` is an optional :class:`~repro.system.faults.FaultInjector`
    hook: when set, every invocation draws from the fault model and may
    raise :class:`~repro.errors.FaultError` or have its latency
    perturbed (tail spikes, packet retransmits). Without it, behavior
    is exactly the fault-free model.
    """

    def __init__(self, name: str, node: FpgaNode,
                 network: Optional[NetworkModel] = None,
                 injector: Optional["FaultInjector"] = None):
        self.name = name
        self.node = node
        self.network = network if network is not None else NetworkModel()
        self.injector = injector

    def invoke(self, steps: int, functional_inputs:
               Optional[List[np.ndarray]] = None) -> InvocationResult:
        """Serve one request of ``steps`` timesteps: a batch-1
        :meth:`invoke_batched`.

        Network time covers the input vector stream in and the output
        stream back; compute time comes from the timing simulator. Pass
        ``functional_inputs`` to additionally produce real outputs on
        the node's resident simulator (:meth:`FpgaNode.run_functional`).
        Raises :class:`~repro.errors.FaultError` when the fault injector
        fails the invocation (node down, crash, or transient failure).
        """
        res = self.invoke_batched(
            steps, batch=1,
            functional_inputs=(None if functional_inputs is None
                               else [functional_inputs]))
        return InvocationResult(
            network_in_s=res.network_in_s, compute_s=res.compute_s,
            network_out_s=res.network_out_s,
            outputs=None if res.outputs is None else res.outputs[0])

    def invoke_batched(self, steps: int, batch: Optional[int] = None,
                       functional_inputs:
                       Optional[List[List[np.ndarray]]] = None
                       ) -> BatchedInvocationResult:
        """Serve ``batch`` coalesced requests of ``steps`` timesteps in
        one dispatch.

        Each timestep streams every request's vectors.  Compute comes
        from the node's batched latency model
        (:meth:`FpgaNode.batch_compute_latency_s`): ``batch`` times the
        batch-1 latency, since the node serves coalesced requests
        serially.  Pass
        ``functional_inputs`` (one input list per request, lockstep
        lengths) for real outputs via one
        :class:`~repro.functional.replay.BatchedReplay` execution on the
        node's resident simulator; the fault injector is sampled once
        per dispatch, exactly as a single invocation on the wire.
        """
        if functional_inputs is not None:
            if batch is None:
                batch = len(functional_inputs)
            elif batch != len(functional_inputs):
                raise ServiceError(
                    f"{self.name}: batch={batch} but "
                    f"{len(functional_inputs)} functional input lists")
            for b, xs in enumerate(functional_inputs):
                if len(xs) != steps:
                    raise ServiceError(
                        f"{self.name}: request {b} has {len(xs)} "
                        f"inputs for {steps} steps")
        if batch is None or batch < 1:
            raise ServiceError(
                f"{self.name}: batched invocation needs batch >= 1 "
                f"or functional_inputs, got batch={batch}")
        compute_multiplier = 1.0
        extra_network_s = 0.0
        if self.injector is not None:
            sample = self.injector.sample(self.node.name)
            if sample.fail_kind is not None:
                raise FaultError(
                    f"{self.name}@{self.node.name}: injected "
                    f"{sample.fail_kind} fault", kind=sample.fail_kind)
            compute_multiplier = sample.compute_multiplier
            extra_network_s = sample.extra_network_s
        compiled = self.node.compiled
        bytes_per_vec = compiled.config.native_dim * 2  # float16 wire fmt
        in_bytes = (batch * steps * compiled.input_vectors_per_step
                    * bytes_per_vec)
        out_bytes = (batch * steps * compiled.output_vectors_per_step
                     * bytes_per_vec)
        # Inputs stream concurrently with compute (the NPU consumes
        # vectors as they arrive) and outputs stream back per step, so
        # the dispatch pays one propagation plus the first step's
        # serialization on the way in, and one propagation plus the
        # last step's serialization on the way out; serialization of
        # the full payload only matters if it exceeds compute.
        first_in = in_bytes / max(steps, 1)
        last_out = out_bytes / max(steps, 1)
        net_in = self.network.transfer_us(first_in,
                                          self.node.locality) * 1e-6
        net_in += extra_network_s
        net_out = self.network.transfer_us(last_out,
                                           self.node.locality) * 1e-6
        compute = max(self.node.batch_compute_latency_s(steps, batch),
                      self.network.serialization_us(in_bytes) * 1e-6,
                      self.network.serialization_us(out_bytes) * 1e-6)
        compute *= compute_multiplier
        outputs = None
        if functional_inputs is not None:
            outputs = self.node.run_functional(functional_inputs)
        return BatchedInvocationResult(
            batch=batch, network_in_s=net_in, compute_s=compute,
            network_out_s=net_out, outputs=outputs)


@dataclasses.dataclass
class _ReplicaState:
    """One replica's circuit-breaker bookkeeping."""

    service: HardwareMicroservice
    consecutive_failures: int = 0
    #: Breaker is open (replica excluded) until this simulated time;
    #: past it, the replica is admitted as a half-open probe.
    open_until: float = -math.inf
    #: Last breaker state surfaced to the tracer (transition edges are
    #: emitted as instant events when this changes).
    last_reported: str = "closed"

    def state(self, now: float) -> str:
        if self.open_until == -math.inf:
            return "closed"
        if now < self.open_until:
            return "open"
        return "half_open"


class MicroserviceRegistry:
    """The distributed resource manager: name -> service replicas.

    Each published name holds an ordered list of replicas. Health is
    tracked per replica with a consecutive-failure circuit breaker:
    after ``failure_threshold`` consecutive failures the breaker opens
    for ``recovery_timeout_s`` of simulated time, after which the
    replica is re-admitted as a half-open probe — one success closes
    the breaker, one failure re-opens it.
    """

    def __init__(self, failure_threshold: int = 3,
                 recovery_timeout_s: float = 25e-3,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[Metrics] = None):
        if failure_threshold < 1:
            raise ServiceError("failure_threshold must be >= 1")
        if recovery_timeout_s < 0:
            raise ServiceError("recovery_timeout_s must be >= 0")
        self.failure_threshold = failure_threshold
        self.recovery_timeout_s = recovery_timeout_s
        self.tracer = or_null(tracer)
        self.metrics = or_null_metrics(metrics)
        self._services: Dict[str, List[_ReplicaState]] = {}

    def _note_state(self, name: str, r: _ReplicaState,
                    now: float) -> None:
        """Emit an instant event on any breaker state transition since
        the last observation of this replica (closed -> open on the
        threshold failure, open -> half_open when the probe window
        opens, half_open -> closed on probe success, ...)."""
        state = r.state(now)
        if state != r.last_reported:
            self.tracer.instant(
                "breaker", now, track="breaker", service=name,
                replica=r.service.node.name,
                from_state=r.last_reported, to_state=state)
            self.metrics.counter(f"breaker.to_{state}").inc()
            r.last_reported = state

    # -- registration -----------------------------------------------------

    def publish(self, service: HardwareMicroservice) -> str:
        """Register a new service name; returns the endpoint address."""
        if service.name in self._services:
            raise ServiceError(
                f"service {service.name!r} already published; use "
                "publish_replica() to add replicas")
        self._services[service.name] = [_ReplicaState(service)]
        return service.node.ip_address

    def publish_replica(self, service: HardwareMicroservice) -> str:
        """Add a replica under ``service.name`` (creating the name if
        needed); returns the replica's endpoint address."""
        replicas = self._services.setdefault(service.name, [])
        if any(r.service.node.name == service.node.name
               for r in replicas):
            raise ServiceError(
                f"node {service.node.name!r} already serves "
                f"{service.name!r}")
        replicas.append(_ReplicaState(service))
        return service.node.ip_address

    def __contains__(self, name: object) -> bool:
        return name in self._services

    def __len__(self) -> int:
        return len(self._services)

    # -- lookup -----------------------------------------------------------

    def lookup(self, name: str) -> HardwareMicroservice:
        """The primary (first) replica of ``name``."""
        if name not in self._services:
            if not self._services:
                raise ServiceError(
                    f"no service {name!r}; registry is empty")
            close = difflib.get_close_matches(
                name, self._services, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise ServiceError(
                f"no service {name!r}{hint}; published: "
                f"{sorted(self._services)}")
        return self._services[name][0].service

    def replicas(self, name: str) -> List[HardwareMicroservice]:
        """All replicas of ``name``, in publication order."""
        self.lookup(name)
        return [r.service for r in self._services[name]]

    def healthy(self, name: str,
                now: float = 0.0) -> List[HardwareMicroservice]:
        """Replicas admissible at time ``now``: half-open probes first
        (standard breaker semantics — one trial request goes through),
        then closed replicas; open breakers are excluded."""
        self.lookup(name)
        probes, closed = [], []
        for r in self._services[name]:
            self._note_state(name, r, now)
            state = r.state(now)
            if state == "half_open":
                probes.append(r.service)
            elif state == "closed":
                closed.append(r.service)
        return probes + closed

    # -- health reporting -------------------------------------------------

    def _replica_state(self, name: str,
                       service: HardwareMicroservice) -> _ReplicaState:
        for r in self._services.get(name, []):
            if r.service is service or \
                    r.service.node.name == service.node.name:
                return r
        raise ServiceError(
            f"{service.node.name!r} is not a replica of {name!r}")

    def record_success(self, name: str, service: HardwareMicroservice,
                       now: float = 0.0) -> None:
        """A replica served a request: close its breaker."""
        r = self._replica_state(name, service)
        self._note_state(name, r, now)
        r.consecutive_failures = 0
        r.open_until = -math.inf
        self._note_state(name, r, now)

    def record_failure(self, name: str, service: HardwareMicroservice,
                       now: float = 0.0) -> None:
        """A replica failed a request: count it, and open the breaker
        at the threshold (a failed half-open probe re-opens it)."""
        r = self._replica_state(name, service)
        self._note_state(name, r, now)
        r.consecutive_failures += 1
        was_half_open = r.state(now) == "half_open"
        if was_half_open or \
                r.consecutive_failures >= self.failure_threshold:
            r.open_until = now + self.recovery_timeout_s
        self._note_state(name, r, now)
