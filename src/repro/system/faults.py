"""Fault injection and resilient invocation (Section II-A, hardened).

The paper's serving substrate — FPGAs "logically disaggregated and
pooled into instances of hardware microservices" behind a resource
manager — only earns its keep at datacenter scale if it survives node
and network failures. This module supplies the fault model and the
client-side resilience machinery:

* :class:`FaultInjector` — a deterministic, seeded source of injected
  faults: permanent node crashes (until repaired), transient
  invocation failures, tail-latency spikes, and packet-loss-induced
  retransmit delays. It plugs into
  :meth:`~repro.system.microservice.HardwareMicroservice.invoke` as an
  optional hook, so fault-free call sites are untouched.
* :class:`ResilientClient` — deadline-bounded retries with exponential
  backoff + jitter, replica failover against the registry's circuit
  breakers, and optional request hedging (a second replica is tried
  once the primary's latency exceeds a p9x budget). Every call returns
  an :class:`InvocationOutcome` recording attempts, replicas tried,
  and whether the SLO deadline was met.

All randomness comes from seeded private generators: the same seed
produces the same fault sequence and the same retry jitter, request
for request.
"""

from __future__ import annotations

import collections
import dataclasses
import random
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from ..errors import ConfigError, FaultError
from ..obs import Metrics, Tracer, or_null, or_null_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .microservice import InvocationResult, MicroserviceRegistry


@dataclasses.dataclass(frozen=True)
class FaultProfile:
    """Per-invocation fault probabilities and magnitudes."""

    #: Probability an invocation fails transiently (caller may retry).
    transient_failure_prob: float = 0.0
    #: Probability the node crashes on an invocation (down until
    #: :meth:`FaultInjector.repair`).
    crash_prob: float = 0.0
    #: Probability compute latency is multiplied by
    #: ``tail_spike_multiplier`` (straggler / contention model).
    tail_spike_prob: float = 0.0
    tail_spike_multiplier: float = 8.0
    #: Probability the request's network transfer loses a packet and
    #: pays ``retransmit_delay_s`` extra.
    packet_loss_prob: float = 0.0
    retransmit_delay_s: float = 50e-6

    def __post_init__(self) -> None:
        for field in ("transient_failure_prob", "crash_prob",
                      "tail_spike_prob", "packet_loss_prob"):
            p = getattr(self, field)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{field}={p} not a probability")
        if self.tail_spike_multiplier < 1.0:
            raise ConfigError("tail_spike_multiplier must be >= 1")
        if self.retransmit_delay_s < 0:
            raise ConfigError("retransmit_delay_s must be >= 0")


@dataclasses.dataclass(frozen=True)
class FaultSample:
    """One invocation's drawn faults."""

    #: ``None`` (healthy), ``"node_down"``, ``"crash"``, or
    #: ``"transient"``; non-``None`` means the invocation fails.
    fail_kind: Optional[str]
    #: Multiplier applied to compute latency (tail spike).
    compute_multiplier: float = 1.0
    #: Extra one-way network delay (packet retransmit).
    extra_network_s: float = 0.0


class FaultInjector:
    """Deterministic, seeded fault source shared by a set of nodes.

    One injector instance models the fault environment of a deployment;
    each :class:`~repro.system.microservice.HardwareMicroservice`
    holding a reference consults :meth:`sample` once per invocation.
    Crashed nodes stay down until :meth:`repair` — the injector is the
    single source of truth for node liveness.
    """

    def __init__(self, profile: Optional[FaultProfile] = None,
                 seed: int = 0):
        self.profile = profile if profile is not None else FaultProfile()
        self._rng = random.Random(seed)
        self._down: set = set()
        #: Injected-fault counts by category (observability).
        self.counts: Dict[str, int] = collections.Counter()

    # -- node liveness ----------------------------------------------------

    def crash(self, node_name: str) -> None:
        """Take a node down (stays down until :meth:`repair`)."""
        self._down.add(node_name)

    def repair(self, node_name: str) -> None:
        """Bring a crashed node back."""
        self._down.discard(node_name)

    # -- per-invocation draws ---------------------------------------------

    def sample(self, node_name: str) -> FaultSample:
        """Draw this invocation's faults for ``node_name``.

        A fixed number of RNG draws happens per call regardless of
        outcome, so the fault sequence depends only on the seed and the
        call order — never on which faults happened to fire.
        """
        p = self.profile
        r_crash = self._rng.random()
        r_transient = self._rng.random()
        r_spike = self._rng.random()
        r_loss = self._rng.random()
        if node_name in self._down:
            self.counts["node_down"] += 1
            return FaultSample(fail_kind="node_down")
        if r_crash < p.crash_prob:
            self._down.add(node_name)
            self.counts["crash"] += 1
            return FaultSample(fail_kind="crash")
        if r_transient < p.transient_failure_prob:
            self.counts["transient"] += 1
            return FaultSample(fail_kind="transient")
        mult = 1.0
        extra = 0.0
        if r_spike < p.tail_spike_prob:
            self.counts["tail_spike"] += 1
            mult = p.tail_spike_multiplier
        if r_loss < p.packet_loss_prob:
            self.counts["packet_loss"] += 1
            extra = p.retransmit_delay_s
        return FaultSample(fail_kind=None, compute_multiplier=mult,
                           extra_network_s=extra)


# ---------------------------------------------------------------------------
# Resilient invocation
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Deadline-bounded retry/hedging parameters."""

    #: Maximum invocation attempts (1 = no retries).
    max_attempts: int = 3
    #: Wall-clock budget per request; exceeded => SLO miss.
    deadline_s: float = 20e-3
    #: First retry backoff; doubles (``backoff_multiplier``) per retry.
    base_backoff_s: float = 200e-6
    backoff_multiplier: float = 2.0
    #: Backoff jitter as a fraction of the backoff (+/-).
    jitter_frac: float = 0.25
    #: Hedge to a second replica once the primary's latency exceeds
    #: this budget (``None`` disables hedging). Set it near the
    #: service's p95/p99 latency.
    hedge_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts={self.max_attempts} must be >= 1 "
                "(1 means no retries)")
        if self.deadline_s <= 0:
            raise ConfigError(
                f"deadline_s={self.deadline_s} must be positive — a "
                "zero deadline fails every request before its first "
                "attempt")
        if self.base_backoff_s < 0:
            raise ConfigError(
                f"base_backoff_s={self.base_backoff_s} must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigError(
                f"backoff_multiplier={self.backoff_multiplier} must be "
                ">= 1 (shrinking backoff would hammer failing replicas)")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ConfigError(
                f"jitter_frac={self.jitter_frac} must be in [0, 1]")
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ConfigError(
                f"hedge_after_s={self.hedge_after_s} must be positive "
                "(or None to disable hedging)")


@dataclasses.dataclass(frozen=True)
class InvocationOutcome:
    """What one resilient invocation did and how it ended."""

    service: str
    #: Whether a result was produced at all (availability).
    ok: bool
    #: The successful invocation's latency breakdown (``None`` on
    #: failure).
    result: Optional["InvocationResult"]
    #: Invocation attempts issued, including the hedge.
    attempts: int
    #: Node names tried, in order (repeats possible across retries).
    replicas_tried: List[str]
    #: End-to-end request latency including backoff waits (seconds);
    #: on failure, the time burned before giving up.
    latency_s: float
    #: ``ok`` and the request finished within the deadline (goodput).
    deadline_met: bool
    #: A hedged (duplicate) invocation was issued.
    hedged: bool = False
    #: Failure category when not ``ok``: ``"all_replicas_down"``,
    #: ``"deadline_exceeded"``, or ``"retries_exhausted"``.
    error_kind: Optional[str] = None
    error: Optional[str] = None


class ResilientClient:
    """Retries, failover, and hedging over a replicated registry.

    Time is simulated, not wall-clock: the caller passes the request's
    arrival time ``now`` and the client accounts attempt latencies and
    backoff waits against the policy deadline, reporting breaker events
    to the registry at the simulated instant they happen.
    """

    def __init__(self, registry: "MicroserviceRegistry",
                 policy: Optional[RetryPolicy] = None, seed: int = 0,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[Metrics] = None):
        """``tracer``/``metrics`` are optional :mod:`repro.obs` hooks
        (simulated-seconds timebase): every request gets a span with
        nested attempt, replica-invocation, backoff, and hedge child
        spans; counters track attempts, failures by kind, and hedges,
        and ``serving.request_latency_ms`` collects the end-to-end
        latency histogram. Tracing never perturbs the retry RNG."""
        self.registry = registry
        self.policy = policy if policy is not None else RetryPolicy()
        self._rng = random.Random(seed)
        self.tracer = or_null(tracer)
        self.metrics = or_null_metrics(metrics)

    def _backoff(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered."""
        p = self.policy
        base = p.base_backoff_s * p.backoff_multiplier ** (attempt - 1)
        jitter = 1.0 + p.jitter_frac * (2.0 * self._rng.random() - 1.0)
        return base * jitter

    def _trace_invocation(self, node_name: str, start: float,
                          result: "InvocationResult") -> None:
        """Span the replica-side work of one successful invocation,
        with the network/compute breakdown as child spans."""
        tracer = self.tracer
        if not tracer.enabled:
            return
        span = tracer.begin("replica", start, track=node_name,
                            node=node_name)
        t = start
        tracer.span("net_in", t, t + result.network_in_s)
        t += result.network_in_s
        tracer.span("compute", t, t + result.compute_s)
        t += result.compute_s
        tracer.span("net_out", t, t + result.network_out_s)
        tracer.end(span, start + result.total_s)

    def invoke(self, name: str, steps: int, now: float = 0.0,
               functional_inputs: Optional[List[np.ndarray]] = None
               ) -> InvocationOutcome:
        """Resiliently serve one request arriving at time ``now``."""
        policy = self.policy
        tracer, m = self.tracer, self.metrics
        request = tracer.begin("request", now, track="client",
                               service=name, steps=steps)
        m.counter("serving.requests").inc()
        deadline = now + policy.deadline_s
        t = now
        attempts = 0
        tried: List[str] = []
        hedged = False
        error_kind: Optional[str] = None
        error: Optional[str] = None
        failovers = 0
        while attempts < policy.max_attempts:
            if t >= deadline:
                error_kind, error = "deadline_exceeded", (
                    f"{name}: deadline {policy.deadline_s * 1e3:.1f} ms "
                    f"exhausted after {attempts} attempts")
                break
            candidates = self.registry.healthy(name, now=t)
            if not candidates:
                error_kind, error = "all_replicas_down", (
                    f"{name}: no healthy replicas "
                    f"(circuit breakers open or nodes crashed)")
                break
            primary = candidates[failovers % len(candidates)]
            attempts += 1
            tried.append(primary.node.name)
            m.counter("serving.attempts").inc()
            m.counter(f"serving.replica.{primary.node.name}.attempts") \
                .inc()
            try:
                result = primary.invoke(
                    steps, functional_inputs=functional_inputs)
            except FaultError as exc:
                self.registry.record_failure(name, primary, now=t)
                error_kind, error = "retries_exhausted", str(exc)
                failovers += 1
                attempt = tracer.begin(
                    "attempt", t, track="client", n=attempts,
                    replica=primary.node.name, ok=False, fault=exc.kind)
                m.counter(f"serving.faults.{exc.kind}").inc()
                wait = self._backoff(attempts)
                tracer.span("backoff", t, t + wait)
                tracer.end(attempt, t + wait)
                t += wait
                continue
            self.registry.record_success(name, primary, now=t)
            latency = result.total_s
            attempt = tracer.begin(
                "attempt", t, track="client", n=attempts,
                replica=primary.node.name, ok=True)
            self._trace_invocation(primary.node.name, t, result)
            tracer.end(attempt, t + result.total_s)
            if (policy.hedge_after_s is not None
                    and latency > policy.hedge_after_s):
                others = [c for c in candidates if c is not primary]
                if others:
                    hedge_svc = others[0]
                    hedged = True
                    attempts += 1
                    tried.append(hedge_svc.node.name)
                    hedge_t = t + policy.hedge_after_s
                    m.counter("serving.hedges").inc()
                    m.counter(f"serving.replica."
                              f"{hedge_svc.node.name}.attempts").inc()
                    try:
                        hedge_result = hedge_svc.invoke(
                            steps, functional_inputs=functional_inputs)
                    except FaultError as exc:
                        self.registry.record_failure(
                            name, hedge_svc, now=hedge_t)
                        tracer.span("hedge", hedge_t, hedge_t,
                                    track="client", ok=False,
                                    replica=hedge_svc.node.name,
                                    fault=exc.kind)
                        m.counter(f"serving.faults.{exc.kind}").inc()
                    else:
                        self.registry.record_success(
                            name, hedge_svc, now=hedge_t)
                        hedge_latency = (policy.hedge_after_s
                                         + hedge_result.total_s)
                        won = hedge_latency < latency
                        hedge = tracer.begin(
                            "hedge", hedge_t, track="client", ok=True,
                            replica=hedge_svc.node.name, won=won)
                        self._trace_invocation(
                            hedge_svc.node.name, hedge_t, hedge_result)
                        tracer.end(hedge,
                                   hedge_t + hedge_result.total_s)
                        if won:
                            m.counter("serving.hedge_wins").inc()
                            latency = hedge_latency
                            result = hedge_result
            finish = t + latency
            met = finish <= deadline
            tracer.end(request, finish, ok=True, attempts=attempts,
                       deadline_met=met, hedged=hedged)
            m.histogram("serving.request_latency_ms") \
                .observe((finish - now) * 1e3)
            if not met:
                m.counter("serving.deadline_misses").inc()
            return InvocationOutcome(
                service=name, ok=True, result=result, attempts=attempts,
                replicas_tried=tried, latency_s=finish - now,
                deadline_met=met, hedged=hedged)
        else:
            error_kind = error_kind or "retries_exhausted"
            error = error or (f"{name}: {policy.max_attempts} attempts "
                              "exhausted")
        tracer.end(request, t, ok=False, attempts=attempts,
                   error_kind=error_kind)
        m.counter(f"serving.failures.{error_kind}").inc()
        return InvocationOutcome(
            service=name, ok=False, result=None, attempts=attempts,
            replicas_tried=tried, latency_s=t - now, deadline_met=False,
            hedged=hedged, error_kind=error_kind, error=error)
