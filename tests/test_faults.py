"""Tests for fault injection, replica failover, circuit breakers,
resilient invocation, and the fault scenario runner."""

import numpy as np
import pytest

from repro.compiler import compile_lstm
from repro.errors import ConfigError, FaultError
from repro.models import LstmReference
from repro.obs import Metrics, Tracer
from repro.system import (
    FaultEvent,
    FaultInjector,
    FaultProfile,
    FaultSample,
    FpgaNode,
    HardwareMicroservice,
    MicroserviceRegistry,
    ResilientClient,
    RetryPolicy,
    ServiceError,
    run_fault_scenario,
)
from repro.system.loadgen import LoadError


@pytest.fixture
def compiled(small_config):
    return compile_lstm(LstmReference(16, 16, seed=0), small_config)


def make_service(compiled, name="svc", node=None, injector=None):
    node_name = node if node is not None else name + "-node"
    return HardwareMicroservice(name, FpgaNode(node_name, compiled),
                                injector=injector)


def replicated_registry(compiled, injector=None, n=2, name="svc",
                        **registry_kwargs):
    reg = MicroserviceRegistry(**registry_kwargs)
    for i in range(n):
        reg.publish_replica(make_service(compiled, name,
                                         node=f"{name}-{i}",
                                         injector=injector))
    return reg


class ScriptedInjector(FaultInjector):
    """Returns a fixed sample sequence (for hedging/retry tests)."""

    def __init__(self, samples):
        super().__init__()
        self._samples = list(samples)

    def sample(self, node_name):
        return self._samples.pop(0)


class TestFaultProfile:
    def test_probability_validated(self):
        with pytest.raises(ConfigError):
            FaultProfile(transient_failure_prob=1.5)
        with pytest.raises(ConfigError):
            FaultProfile(crash_prob=-0.1)
        with pytest.raises(ConfigError):
            FaultProfile(tail_spike_multiplier=0.5)


class TestFaultInjector:
    def test_same_seed_same_sequence(self):
        profile = FaultProfile(transient_failure_prob=0.3,
                               tail_spike_prob=0.3,
                               packet_loss_prob=0.3)
        a = FaultInjector(profile, seed=42)
        b = FaultInjector(profile, seed=42)
        samples_a = [a.sample("n") for _ in range(50)]
        samples_b = [b.sample("n") for _ in range(50)]
        assert samples_a == samples_b
        assert a.counts == b.counts

    def test_crash_and_repair(self):
        inj = FaultInjector()
        inj.crash("node-a")
        assert inj.sample("node-a").fail_kind == "node_down"
        assert inj.sample("node-b").fail_kind is None
        inj.repair("node-a")
        assert inj.sample("node-a").fail_kind is None

    def test_crash_draw_is_permanent(self):
        inj = FaultInjector(FaultProfile(crash_prob=1.0))
        assert inj.sample("n").fail_kind == "crash"
        assert inj.sample("n").fail_kind == "node_down"
        assert inj.counts["crash"] == 1
        assert inj.counts["node_down"] == 1

    def test_perturbations(self):
        inj = FaultInjector(FaultProfile(
            tail_spike_prob=1.0, tail_spike_multiplier=8.0,
            packet_loss_prob=1.0, retransmit_delay_s=123e-6))
        sample = inj.sample("n")
        assert sample.fail_kind is None
        assert sample.compute_multiplier == 8.0
        assert sample.extra_network_s == 123e-6


class TestMicroserviceFaultHook:
    def test_transient_failure_raises(self, compiled):
        inj = FaultInjector(FaultProfile(transient_failure_prob=1.0))
        svc = make_service(compiled, injector=inj)
        with pytest.raises(FaultError) as exc:
            svc.invoke(steps=3)
        assert exc.value.kind == "transient"

    def test_node_down_raises_until_repair(self, compiled):
        inj = FaultInjector()
        svc = make_service(compiled, injector=inj)
        inj.crash(svc.node.name)
        with pytest.raises(FaultError) as exc:
            svc.invoke(steps=3)
        assert exc.value.kind == "node_down"
        inj.repair(svc.node.name)
        assert svc.invoke(steps=3).total_s > 0

    def test_tail_spike_multiplies_compute(self, compiled):
        clean = make_service(compiled).invoke(steps=3)
        inj = FaultInjector(FaultProfile(tail_spike_prob=1.0,
                                         tail_spike_multiplier=8.0))
        spiked = make_service(compiled, injector=inj).invoke(steps=3)
        assert spiked.compute_s == pytest.approx(8.0 * clean.compute_s)

    def test_packet_loss_adds_network_delay(self, compiled):
        clean = make_service(compiled).invoke(steps=3)
        inj = FaultInjector(FaultProfile(packet_loss_prob=1.0,
                                         retransmit_delay_s=50e-6))
        lossy = make_service(compiled, injector=inj).invoke(steps=3)
        assert lossy.network_in_s == pytest.approx(
            clean.network_in_s + 50e-6)

    def test_no_injector_unchanged(self, compiled):
        result = make_service(compiled).invoke(steps=3)
        assert result.total_s == pytest.approx(
            result.network_in_s + result.compute_s
            + result.network_out_s)


class TestFpgaNodeAddressing:
    def test_ip_addresses_unique_across_octet_boundary(self, compiled):
        nodes = [FpgaNode(f"n{i}", compiled) for i in range(300)]
        ips = {n.ip_address for n in nodes}
        assert len(ips) == 300
        for ip in ips:
            octets = [int(p) for p in ip.split(".")]
            assert len(octets) == 4
            assert all(0 <= o <= 255 for o in octets)

    def test_latency_memoized(self, compiled):
        node = FpgaNode("memo", compiled)
        first = node.compute_latency_s(4)
        assert node.compute_latency_s(4) == first
        assert 4 in node._latency_cache


class TestReplicaRegistry:
    def test_publish_replica_and_replicas(self, compiled):
        reg = replicated_registry(compiled, n=3)
        assert len(reg) == 1
        assert [s.node.name for s in reg.replicas("svc")] == \
            ["svc-0", "svc-1", "svc-2"]
        assert reg.lookup("svc") is reg.replicas("svc")[0]

    def test_publish_still_rejects_duplicate_name(self, compiled):
        reg = MicroserviceRegistry()
        reg.publish(make_service(compiled))
        with pytest.raises(ServiceError, match="publish_replica"):
            reg.publish(make_service(compiled, node="other"))

    def test_publish_replica_rejects_duplicate_node(self, compiled):
        reg = MicroserviceRegistry()
        reg.publish_replica(make_service(compiled, node="n0"))
        with pytest.raises(ServiceError, match="already serves"):
            reg.publish_replica(make_service(compiled, node="n0"))

    def test_contains_and_len(self, compiled):
        reg = MicroserviceRegistry()
        assert "svc" not in reg and len(reg) == 0
        reg.publish(make_service(compiled))
        assert "svc" in reg and len(reg) == 1

    def test_lookup_empty_registry_message(self):
        with pytest.raises(ServiceError, match="registry is empty"):
            MicroserviceRegistry().lookup("ghost")

    def test_lookup_suggests_closest_name(self, compiled):
        reg = MicroserviceRegistry()
        reg.publish(make_service(compiled, "lstm-forward"))
        with pytest.raises(ServiceError,
                           match=r"did you mean 'lstm-forward'\?"):
            reg.lookup("lstm-froward")

    def test_lookup_no_suggestion_for_distant_name(self, compiled):
        reg = MicroserviceRegistry()
        reg.publish(make_service(compiled, "lstm-forward"))
        with pytest.raises(ServiceError) as exc:
            reg.lookup("zzz")
        assert "did you mean" not in str(exc.value)
        assert "lstm-forward" in str(exc.value)  # published list shown


class TestCircuitBreaker:
    def test_opens_after_threshold(self, compiled):
        reg = replicated_registry(compiled, n=2, failure_threshold=3,
                                  recovery_timeout_s=1.0)
        primary = reg.replicas("svc")[0]
        for _ in range(2):
            reg.record_failure("svc", primary, now=0.0)
        assert reg._replica_state("svc", primary).state(0.0) == "closed"
        reg.record_failure("svc", primary, now=0.0)
        assert reg._replica_state("svc", primary).state(0.0) == "open"
        assert [s.node.name for s in reg.healthy("svc", now=0.5)] == \
            ["svc-1"]

    def test_half_open_probe_listed_first(self, compiled):
        reg = replicated_registry(compiled, n=2, failure_threshold=1,
                                  recovery_timeout_s=1.0)
        primary = reg.replicas("svc")[0]
        reg.record_failure("svc", primary, now=0.0)
        assert reg.healthy("svc", now=0.5) == [reg.replicas("svc")[1]]
        assert reg._replica_state("svc", primary).state(1.5) == "half_open"
        assert reg.healthy("svc", now=1.5)[0] is primary

    def test_lifecycle_emits_transition_events(self, compiled):
        """Full breaker lifecycle, observed through tracer events:
        closed -> open on the 3rd consecutive failure, open ->
        half_open once the 25 ms probe window passes, half_open ->
        closed on probe success."""
        tracer = Tracer(unit="s")
        metrics = Metrics()
        reg = replicated_registry(compiled, n=1, failure_threshold=3,
                                  recovery_timeout_s=25e-3,
                                  tracer=tracer, metrics=metrics)
        svc = reg.replicas("svc")[0]
        for t in (1e-3, 2e-3, 3e-3):
            reg.record_failure("svc", svc, now=t)
        # Probe window: 3 ms + 25 ms = 28 ms; past it the replica is
        # re-admitted as a half-open probe.
        assert reg.healthy("svc", now=29e-3)[0] is svc
        reg.record_success("svc", svc, now=30e-3)
        events = tracer.find_events(name="breaker")
        assert [(e.attrs["from_state"], e.attrs["to_state"])
                for e in events] == [("closed", "open"),
                                     ("open", "half_open"),
                                     ("half_open", "closed")]
        assert [e.time for e in events] == [3e-3, 29e-3, 30e-3]
        assert all(e.attrs["service"] == "svc"
                   and e.attrs["replica"] == "svc-0" for e in events)
        assert metrics.counter("breaker.to_open").value == 1
        assert metrics.counter("breaker.to_half_open").value == 1
        assert metrics.counter("breaker.to_closed").value == 1

    def test_success_closes_failed_probe_reopens(self, compiled):
        reg = replicated_registry(compiled, n=1, failure_threshold=1,
                                  recovery_timeout_s=1.0)
        svc = reg.replicas("svc")[0]
        reg.record_failure("svc", svc, now=0.0)
        # Failed half-open probe re-opens immediately (one strike).
        reg.record_failure("svc", svc, now=1.5)
        assert reg._replica_state("svc", svc).state(2.0) == "open"
        reg.record_success("svc", svc, now=2.6)
        assert reg._replica_state("svc", svc).state(2.6) == "closed"

    def test_record_failure_unknown_replica(self, compiled):
        reg = replicated_registry(compiled, n=1)
        stranger = make_service(compiled, "svc", node="stranger")
        with pytest.raises(ServiceError, match="not a replica"):
            reg.record_failure("svc", stranger)


class TestHalfOpenInterleavings:
    """Half-open probe behavior when multiple in-flight requests
    report back out of order — the interleavings a concurrent client
    pool would produce, replayed at simulated timestamps."""

    def _open_breaker(self, reg, svc, until_t):
        for k in range(reg.failure_threshold):
            reg.record_failure("svc", svc, now=until_t)

    def test_probe_failure_reopens_below_threshold(self, compiled):
        """A failed half-open probe re-opens on ONE strike even when
        the closed-state threshold is higher."""
        reg = replicated_registry(compiled, n=1, failure_threshold=3,
                                  recovery_timeout_s=1.0)
        svc = reg.replicas("svc")[0]
        self._open_breaker(reg, svc, 0.0)
        assert reg._replica_state("svc", svc).state(1.5) == "half_open"
        reg.record_failure("svc", svc, now=1.5)
        assert reg._replica_state("svc", svc).state(1.5) == "open"
        assert reg._replica_state("svc", svc).state(2.4) == "open"

    def test_straggler_success_after_probe_failure_closes(self, compiled):
        """Two requests race against a half-open replica: the probe
        fails (re-opens) but a straggler success lands just after.
        Latest report wins — the breaker closes."""
        reg = replicated_registry(compiled, n=1, failure_threshold=1,
                                  recovery_timeout_s=1.0)
        svc = reg.replicas("svc")[0]
        reg.record_failure("svc", svc, now=0.0)
        reg.record_failure("svc", svc, now=1.5)   # failed probe
        assert reg._replica_state("svc", svc).state(1.6) == "open"
        reg.record_success("svc", svc, now=1.6)   # straggler
        assert reg._replica_state("svc", svc).state(1.6) == "closed"
        assert reg.healthy("svc", now=1.6) == [svc]

    def test_stale_failure_during_open_extends_window(self, compiled):
        """An in-flight request dispatched before the trip fails while
        the breaker is already open: the probe window pushes out."""
        reg = replicated_registry(compiled, n=1, failure_threshold=1,
                                  recovery_timeout_s=1.0)
        svc = reg.replicas("svc")[0]
        reg.record_failure("svc", svc, now=0.0)
        reg.record_failure("svc", svc, now=0.5)   # stale report
        assert reg._replica_state("svc", svc).state(1.2) == "open"
        assert reg._replica_state("svc", svc).state(1.6) == "half_open"

    def test_breakers_probe_independently(self, compiled):
        """Staggered trips on two replicas: each gets its own probe
        window, and a probe outcome on one never touches the other."""
        reg = replicated_registry(compiled, n=2, failure_threshold=1,
                                  recovery_timeout_s=1.0)
        first, second = reg.replicas("svc")
        reg.record_failure("svc", first, now=0.0)
        reg.record_failure("svc", second, now=0.4)
        assert reg.healthy("svc", now=0.5) == []
        # Only the first window has elapsed at 1.2 s.
        assert reg.healthy("svc", now=1.2) == [first]
        reg.record_success("svc", first, now=1.2)
        assert reg._replica_state("svc", second).state(1.2) == "open"
        # Probes list ahead of closed replicas once both are back.
        assert reg.healthy("svc", now=1.5) == [second, first]

    def test_probe_emits_single_half_open_edge(self, compiled):
        """Repeated healthy() polls during the half-open window report
        the transition edge exactly once."""
        tracer = Tracer(unit="s")
        reg = replicated_registry(compiled, n=1, failure_threshold=1,
                                  recovery_timeout_s=1.0,
                                  tracer=tracer)
        svc = reg.replicas("svc")[0]
        reg.record_failure("svc", svc, now=0.0)
        for now in (1.1, 1.2, 1.3):
            assert reg.healthy("svc", now=now) == [svc]
        edges = [(e.attrs["from_state"], e.attrs["to_state"])
                 for e in tracer.find_events(name="breaker")]
        assert edges == [("closed", "open"), ("open", "half_open")]


class TestResilientClient:
    def test_failover_to_healthy_replica(self, compiled):
        inj = FaultInjector()
        reg = replicated_registry(compiled, injector=inj, n=2)
        inj.crash("svc-0")
        client = ResilientClient(reg, RetryPolicy(max_attempts=3))
        outcome = client.invoke("svc", steps=3)
        assert outcome.ok and outcome.attempts == 2
        assert outcome.replicas_tried == ["svc-0", "svc-1"]
        assert outcome.deadline_met
        assert outcome.latency_s > outcome.result.total_s  # backoff paid

    def test_retries_exhausted(self, compiled):
        inj = FaultInjector()
        reg = replicated_registry(compiled, injector=inj, n=2,
                                  failure_threshold=10)
        inj.crash("svc-0")
        inj.crash("svc-1")
        client = ResilientClient(reg, RetryPolicy(max_attempts=3))
        outcome = client.invoke("svc", steps=3)
        assert not outcome.ok and outcome.attempts == 3
        assert outcome.error_kind == "retries_exhausted"
        assert not outcome.deadline_met

    def test_all_replicas_down_via_breakers(self, compiled):
        inj = FaultInjector()
        reg = replicated_registry(compiled, injector=inj, n=2,
                                  failure_threshold=1,
                                  recovery_timeout_s=10.0)
        inj.crash("svc-0")
        inj.crash("svc-1")
        client = ResilientClient(reg, RetryPolicy(max_attempts=5))
        outcome = client.invoke("svc", steps=3)
        # Both breakers open after one strike each; the third attempt
        # finds nothing admissible.
        assert not outcome.ok
        assert outcome.attempts == 2
        assert outcome.error_kind == "all_replicas_down"

    def test_deadline_exceeded_during_backoff(self, compiled):
        inj = FaultInjector()
        reg = replicated_registry(compiled, injector=inj, n=1,
                                  failure_threshold=10)
        inj.crash("svc-0")
        client = ResilientClient(
            reg, RetryPolicy(max_attempts=5, deadline_s=100e-6,
                             base_backoff_s=200e-6))
        outcome = client.invoke("svc", steps=3)
        assert not outcome.ok and outcome.attempts == 1
        assert outcome.error_kind == "deadline_exceeded"

    def test_slow_success_misses_deadline(self, compiled):
        reg = replicated_registry(compiled, n=1)
        base = reg.lookup("svc").invoke(steps=3).total_s
        client = ResilientClient(
            reg, RetryPolicy(max_attempts=1, deadline_s=base / 2))
        outcome = client.invoke("svc", steps=3)
        assert outcome.ok and not outcome.deadline_met

    def test_hedge_improves_spiked_latency(self, compiled):
        spike = FaultSample(fail_kind=None, compute_multiplier=100.0)
        clean = FaultSample(fail_kind=None)
        inj = ScriptedInjector([spike, clean])
        reg = replicated_registry(compiled, injector=inj, n=2)
        hedge_after = 10e-6
        client = ResilientClient(
            reg, RetryPolicy(max_attempts=2, hedge_after_s=hedge_after))
        spiked_total = 100.0 * make_service(compiled).invoke(3).compute_s
        outcome = client.invoke("svc", steps=3)
        assert outcome.ok and outcome.hedged
        assert outcome.attempts == 2
        assert outcome.replicas_tried == ["svc-0", "svc-1"]
        assert outcome.latency_s < spiked_total
        assert outcome.result.compute_s < spiked_total

    def test_no_hedge_below_budget(self, compiled):
        reg = replicated_registry(compiled, n=2)
        client = ResilientClient(
            reg, RetryPolicy(max_attempts=2, hedge_after_s=10.0))
        outcome = client.invoke("svc", steps=3)
        assert outcome.ok and not outcome.hedged
        assert outcome.attempts == 1

    def test_functional_inputs_thread_through(self, compiled, rng):
        reg = replicated_registry(compiled, n=2)
        client = ResilientClient(reg, RetryPolicy())
        xs = [rng.uniform(-1, 1, 16).astype(np.float32)
              for _ in range(4)]
        outcome = client.invoke("svc", steps=4, functional_inputs=xs)
        got, want = outcome.result.outputs, compiled.run_sequence(xs)
        assert len(got) == len(want)
        assert all(g.dtype == w.dtype and np.array_equal(g, w)
                   for g, w in zip(got, want))
        ref = LstmReference(16, 16, seed=0).run(xs)
        assert np.allclose(got[-1], ref[-1], atol=0.05)

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(deadline_s=0)

    @pytest.mark.parametrize("kw", [
        dict(base_backoff_s=-1e-6),
        dict(backoff_multiplier=0.5),
        dict(jitter_frac=-0.1),
        dict(jitter_frac=1.5),
        dict(hedge_after_s=0.0),
    ])
    def test_policy_validation_rejects_bad_fields(self, kw):
        with pytest.raises(ConfigError):
            RetryPolicy(**kw)

    def test_policy_validation_messages_name_the_field(self):
        with pytest.raises(ConfigError, match="backoff_multiplier"):
            RetryPolicy(backoff_multiplier=0.0)
        with pytest.raises(ConfigError, match="jitter_frac"):
            RetryPolicy(jitter_frac=2.0)
        with pytest.raises(ConfigError, match="hedge_after_s"):
            RetryPolicy(hedge_after_s=-1.0)


class TestFaultScenarioRunner:
    def test_fault_free_scenario(self, compiled):
        reg = replicated_registry(compiled, n=1)
        client = ResilientClient(reg, RetryPolicy(max_attempts=1))
        res = run_fault_scenario(client, "svc",
                                 [(i + 1) / 100.0 for i in range(50)], steps=3)
        assert res.availability == 1.0
        assert res.served == res.total == 50
        assert res.p50_ms > 0
        assert res.goodput_rps > 0
        assert res.fault_counts == {}

    def test_crash_event_degrades_naive_client(self, compiled):
        inj = FaultInjector()
        reg = replicated_registry(compiled, injector=inj, n=1)
        client = ResilientClient(reg, RetryPolicy(max_attempts=1))
        arrivals = [(i + 1) / 100.0 for i in range(100)]  # 0.01 .. 1.0 s
        events = [FaultEvent(0.5, "crash", "svc-0")]
        res = run_fault_scenario(client, "svc", arrivals, steps=3,
                                 injector=inj, events=events)
        assert res.availability == pytest.approx(0.49, abs=0.02)
        assert res.fault_counts.get("node_down", 0) > 0

    def test_crash_then_repair_with_failover(self, compiled):
        inj = FaultInjector()
        reg = replicated_registry(compiled, injector=inj, n=2,
                                  recovery_timeout_s=50e-3)
        client = ResilientClient(reg, RetryPolicy(max_attempts=4))
        arrivals = [(i + 1) / 100.0 for i in range(100)]
        events = [FaultEvent(0.25, "crash", "svc-0"),
                  FaultEvent(0.50, "repair", "svc-0")]
        res = run_fault_scenario(client, "svc", arrivals, steps=3,
                                 injector=inj, events=events)
        assert res.availability == 1.0
        assert res.mean_attempts > 1.0  # failovers happened

    def test_events_require_injector(self, compiled):
        reg = replicated_registry(compiled, n=1)
        client = ResilientClient(reg)
        with pytest.raises(LoadError, match="no injector"):
            run_fault_scenario(client, "svc", [0.0], steps=3,
                               events=[FaultEvent(0.0, "crash", "x")])

    def test_bad_event_action(self):
        with pytest.raises(LoadError, match="unknown fault action"):
            FaultEvent(0.0, "reboot", "x")

    def test_deterministic_under_seed(self, compiled):
        def run():
            inj = FaultInjector(FaultProfile(
                transient_failure_prob=0.2, tail_spike_prob=0.1),
                seed=5)
            reg = replicated_registry(compiled, injector=inj, n=2)
            client = ResilientClient(reg, RetryPolicy(max_attempts=3),
                                     seed=6)
            return run_fault_scenario(client, "svc",
                                      [(i + 1) / 200.0 for i in range(60)],
                                      steps=3, injector=inj)
        a, b = run(), run()
        assert a.availability == b.availability
        assert [o.latency_s for o in a.outcomes] == \
            [o.latency_s for o in b.outcomes]
        assert a.fault_counts == b.fault_counts
