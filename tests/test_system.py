"""Tests for the datacenter serving layer: network, microservices,
federated runtime, and the bidirectional-RNN split."""

import numpy as np
import pytest

from repro.compiler import compile_gru, compile_lstm
from repro.compiler.lowering import compile_rnn_shape
from repro.errors import CompileError
from repro.models import GruReference, LstmReference
from repro.system import (
    BidirectionalRnnService,
    CpuStage,
    FederatedRuntime,
    FpgaNode,
    FpgaStage,
    HardwareMicroservice,
    Locality,
    MicroserviceRegistry,
    NetworkModel,
    ServiceError,
)


@pytest.fixture
def compiled(small_config):
    return compile_lstm(LstmReference(16, 16, seed=0), small_config)


#: Served outputs are in the node's configured numerics; next to the
#: float model only a loose sanity bound holds (5-bit BFP is ~1e-2 off).
SANITY_ATOL = 0.05


def make_service(compiled, name="svc"):
    return HardwareMicroservice(name, FpgaNode(name + "-node", compiled))


def assert_bit_equal(got, want):
    """Served outputs equal a reference run bit for bit."""
    assert len(got) == len(want)
    for t, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype and np.array_equal(g, w), f"step {t}"


class TestNetworkModel:
    def test_locality_ordering(self):
        net = NetworkModel()
        lat = [net.propagation_us(loc) for loc in
               (Locality.SAME_NODE, Locality.SAME_RACK,
                Locality.SAME_POD, Locality.SAME_DATACENTER)]
        assert lat == sorted(lat)

    def test_serialization_time(self):
        net = NetworkModel(line_rate_gbps=40.0)
        # 5000 bytes at 40 Gb/s = 1 us.
        assert net.serialization_us(5000) == pytest.approx(1.0)

    def test_transfer_combines_terms(self):
        net = NetworkModel()
        assert net.transfer_us(5000) == pytest.approx(
            net.propagation_us(Locality.SAME_RACK)
            + net.serialization_us(5000))

    def test_round_trip(self):
        net = NetworkModel()
        assert net.round_trip_us(1000, 1000) == pytest.approx(
            2 * net.transfer_us(1000))

    def test_same_datacenter_single_digit_tens_of_us(self):
        """Point-to-point latency stays in the LTL regime."""
        net = NetworkModel()
        assert net.transfer_us(1600, Locality.SAME_DATACENTER) < 25


class TestMicroservice:
    def test_registry_publish_and_lookup(self, compiled):
        reg = MicroserviceRegistry()
        svc = make_service(compiled)
        address = reg.publish(svc)
        assert reg.lookup("svc") is svc
        assert address.startswith("10.")
        assert len(reg) == 1

    def test_duplicate_publish_rejected(self, compiled):
        reg = MicroserviceRegistry()
        reg.publish(make_service(compiled))
        with pytest.raises(ServiceError):
            reg.publish(make_service(compiled))

    def test_unknown_lookup(self):
        with pytest.raises(ServiceError):
            MicroserviceRegistry().lookup("ghost")

    def test_invocation_latency_breakdown(self, compiled):
        svc = make_service(compiled)
        result = svc.invoke(steps=5)
        assert result.network_in_s > 0
        assert result.compute_s > 0
        assert result.total_s == pytest.approx(
            result.network_in_s + result.compute_s
            + result.network_out_s)

    def test_compute_dominates_network(self, compiled):
        """For RNN serving the NPU compute dwarfs the network hops."""
        result = make_service(compiled).invoke(steps=50)
        assert result.compute_s > 5 * (result.network_in_s
                                       + result.network_out_s)

    def test_functional_invocation_matches_reference(self, small_config,
                                                     bfp_config, rng):
        model = LstmReference(16, 16, seed=0)
        xs = [rng.uniform(-1, 1, 16).astype(np.float32)
              for _ in range(4)]
        for config in (small_config, bfp_config):
            compiled = compile_lstm(model, config)
            result = make_service(compiled).invoke(
                steps=4, functional_inputs=xs)
            assert_bit_equal(result.outputs, compiled.run_sequence(xs))
            assert np.allclose(result.outputs[-1], model.run(xs)[-1],
                               atol=SANITY_ATOL)

    def test_functional_input_count_checked(self, compiled, rng):
        svc = make_service(compiled)
        with pytest.raises(ServiceError):
            svc.invoke(steps=3,
                       functional_inputs=[rng.uniform(-1, 1, 16)])


def _same_state(a, b) -> bool:
    """Two architectural snapshots are equal field by field."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k])
                                            for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same_state(x, y)
                                        for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class TestResidentModel:
    """Every functional request runs on the node's one resident
    simulator, and no request sees another's state."""

    @pytest.mark.tier1
    def test_requests_are_isolated_on_the_resident_simulator(
            self, bfp_config, rng):
        compiled = compile_lstm(LstmReference(24, 20, seed=3), bfp_config)
        service = make_service(compiled)
        steps = 3
        dispatches = [[[rng.uniform(-1, 1, 20).astype(np.float32)
                        for _ in range(steps)] for _ in range(size)]
                      for size in (1, 4, 1, 3, 2)]

        def serve(order):
            outputs = {}
            for d in order:
                batch = dispatches[d]
                if len(batch) == 1:
                    got = [service.invoke(steps, batch[0]).outputs]
                else:
                    got = service.invoke_batched(
                        steps, functional_inputs=batch).outputs
                for r, out in enumerate(got):
                    outputs[d, r] = out
            return outputs

        forward = serve(range(len(dispatches)))
        assert len(forward) >= 8
        for (d, r), out in forward.items():
            assert_bit_equal(out, compiled.run_sequence(dispatches[d][r]))
        backward = serve(reversed(range(len(dispatches))))
        for key, out in forward.items():
            assert_bit_equal(backward[key], out)
        assert _same_state(service.node.simulator().snapshot(),
                           compiled.new_simulator().snapshot())

    @pytest.mark.tier1
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_requests_leave_resident_counters_untouched(self, kind,
                                                        bfp_config, rng):
        """Batched runs keep no counters: after requests in mixed batch
        sizes the resident simulator's register-file counters and stats
        equal a freshly loaded simulator's."""
        model, comp = ((LstmReference, compile_lstm) if kind == "lstm"
                       else (GruReference, compile_gru))
        compiled = comp(model(24, 20, seed=3), bfp_config)
        service = make_service(compiled)
        for size, steps in ((1, 3), (4, 3), (16, 1), (1, 1), (3, 2)):
            batch = [[rng.uniform(-1, 1, 20).astype(np.float32)
                      for _ in range(steps)] for _ in range(size)]
            if size == 1:
                service.invoke(steps, batch[0])
            else:
                service.invoke_batched(steps, functional_inputs=batch)
        sim = service.node.simulator()
        fresh = compiled.new_simulator()
        assert (sim.mrf.reads, sim.mrf.writes) == \
            (fresh.mrf.reads, fresh.mrf.writes)
        for mem, vrf in sim.vrfs.items():
            assert (vrf.reads, vrf.writes) == \
                (fresh.vrfs[mem].reads, fresh.vrfs[mem].writes), mem
        assert sim.stats == fresh.stats

    def test_resident_simulator_is_built_once(self, compiled, rng):
        node = FpgaNode("node", compiled)
        xs = [rng.uniform(-1, 1, 16).astype(np.float32)]
        HardwareMicroservice("svc", node).invoke(1, xs)
        sim = node.simulator()
        HardwareMicroservice("svc", node).invoke(1, xs)
        assert node.simulator() is sim
        # The resident simulator is run-time state, not node identity.
        assert node == FpgaNode("node", compiled)
        assert "_resident" not in repr(node)

    def test_shape_only_node_serves_timing_only(self, small_config,
                                                monkeypatch):
        compiled = compile_rnn_shape("lstm", 24, small_config)
        service = make_service(compiled)

        def no_simulator(*args, **kwargs):
            raise AssertionError("timing-only request built a simulator")

        with monkeypatch.context() as patch:
            patch.setattr(compiled, "new_simulator", no_simulator)
            assert service.invoke(steps=5).total_s > 0
            assert service.invoke_batched(steps=5, batch=4).total_s > 0
        xs = [np.zeros(24, dtype=np.float32)] * 5
        for _ in range(2):  # a failed build leaves nothing half-made
            with pytest.raises(CompileError, match="shapes only"):
                service.invoke(steps=5, functional_inputs=xs)


class TestFederatedRuntime:
    def test_cpu_fpga_plan(self, compiled, rng):
        reg = MicroserviceRegistry()
        reg.publish(make_service(compiled, "lstm"))
        runtime = FederatedRuntime(reg)
        xs = [rng.uniform(-1, 1, 16).astype(np.float32)
              for _ in range(3)]
        scale = CpuStage("scale", lambda seq: [0.5 * x for x in seq])
        plan = [scale, FpgaStage("rnn", "lstm")]
        result = runtime.execute(plan, xs, functional=True)
        scaled = [0.5 * x for x in xs]
        assert_bit_equal(result.value, compiled.run_sequence(scaled))
        want = LstmReference(16, 16, seed=0).run(scaled)
        assert np.allclose(result.value[-1], want[-1], atol=SANITY_ATOL)
        assert len(result.stage_latencies) == 2
        assert result.total_latency_s == pytest.approx(
            sum(result.stage_latencies))

    def test_functional_value_threads_mixed_stages(self, small_config,
                                                   rng):
        """functional=True threads real values through CPU and FPGA
        stages alternately: CPU -> FPGA -> CPU -> FPGA."""
        model_a = LstmReference(16, 16, seed=5)
        model_b = LstmReference(16, 16, seed=6)
        compiled_a = compile_lstm(model_a, small_config)
        compiled_b = compile_lstm(model_b, small_config)
        reg = MicroserviceRegistry()
        reg.publish(make_service(compiled_a, "lstm-a"))
        reg.publish(make_service(compiled_b, "lstm-b"))
        runtime = FederatedRuntime(reg)
        xs = [rng.uniform(-1, 1, 16).astype(np.float32)
              for _ in range(3)]
        plan = [
            CpuStage("scale", lambda seq: [0.5 * x for x in seq]),
            FpgaStage("rnn-a", "lstm-a"),
            CpuStage("negate", lambda seq: [-x for x in seq]),
            FpgaStage("rnn-b", "lstm-b"),
        ]
        result = runtime.execute(plan, xs, functional=True)
        mid = compiled_a.run_sequence([0.5 * x for x in xs])
        assert_bit_equal(result.value,
                         compiled_b.run_sequence([-h for h in mid]))
        want = model_b.run([-h for h in model_a.run([0.5 * x for x in xs])])
        assert np.allclose(result.value[-1], want[-1], atol=SANITY_ATOL)
        assert len(result.stage_latencies) == 4
        assert result.total_latency_s == pytest.approx(
            sum(result.stage_latencies))

    def test_latency_only_mode(self, compiled, rng):
        reg = MicroserviceRegistry()
        reg.publish(make_service(compiled, "lstm"))
        runtime = FederatedRuntime(reg)
        xs = [rng.uniform(-1, 1, 16).astype(np.float32)
              for _ in range(3)]
        result = runtime.execute([FpgaStage("rnn", "lstm")], xs,
                                 functional=False)
        assert result.total_latency_s > 0


class TestBidirectionalRnn:
    def test_concat_of_forward_and_reversed_backward(self, small_config,
                                                     rng):
        """Section II-A: forward and backward halves on two FPGAs,
        outputs concatenated per timestep."""
        fwd_model = LstmReference(16, 16, seed=1)
        bwd_model = LstmReference(16, 16, seed=2)
        reg = MicroserviceRegistry()
        reg.publish(make_service(compile_lstm(fwd_model, small_config),
                                 "fwd"))
        reg.publish(make_service(compile_lstm(bwd_model, small_config),
                                 "bwd"))
        service = BidirectionalRnnService(reg, "fwd", "bwd")
        xs = [rng.uniform(-1, 1, 16).astype(np.float32)
              for _ in range(4)]
        result = service.invoke(xs, functional=True)
        fwd_want = fwd_model.run(xs)
        bwd_want = bwd_model.run(list(reversed(xs)))
        for t in range(4):
            want = np.concatenate([fwd_want[t], bwd_want[3 - t]])
            assert np.allclose(result.value[t], want, atol=1e-5)

    def test_asymmetric_half_latencies(self, small_config, rng):
        """Functional concat ordering survives asymmetric per-half
        latencies (backward half across the datacenter fabric)."""
        fwd_model = LstmReference(16, 16, seed=3)
        bwd_model = LstmReference(16, 16, seed=4)
        reg = MicroserviceRegistry()
        reg.publish(HardwareMicroservice(
            "fwd", FpgaNode("fwd-node",
                            compile_lstm(fwd_model, small_config),
                            locality=Locality.SAME_RACK)))
        reg.publish(HardwareMicroservice(
            "bwd", FpgaNode("bwd-node",
                            compile_lstm(bwd_model, small_config),
                            locality=Locality.SAME_DATACENTER)))
        service = BidirectionalRnnService(reg, "fwd", "bwd")
        xs = [rng.uniform(-1, 1, 16).astype(np.float32)
              for _ in range(5)]
        result = service.invoke(xs, functional=True)
        fwd_lat, bwd_lat, concat = result.stage_latencies
        assert bwd_lat > fwd_lat  # datacenter hops cost more
        assert result.total_latency_s == pytest.approx(
            max(fwd_lat, bwd_lat) + concat)
        fwd_want = fwd_model.run(xs)
        bwd_want = bwd_model.run(list(reversed(xs)))
        for t in range(5):
            want = np.concatenate([fwd_want[t], bwd_want[4 - t]])
            assert np.allclose(result.value[t], want, atol=1e-5)

    def test_latency_is_max_of_halves(self, compiled):
        reg = MicroserviceRegistry()
        reg.publish(make_service(compiled, "fwd"))
        reg.publish(make_service(compiled, "bwd"))
        service = BidirectionalRnnService(reg, "fwd", "bwd")
        result = service.invoke([np.zeros(16, dtype=np.float32)] * 3)
        fwd_lat, bwd_lat, concat = result.stage_latencies
        assert result.total_latency_s == pytest.approx(
            max(fwd_lat, bwd_lat) + concat)
