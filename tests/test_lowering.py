"""Tests for model lowering: program structure and functional
correctness against the numpy references."""

import numpy as np
import pytest

from repro.compiler import (
    compile_conv,
    compile_gru,
    compile_lstm,
)
from repro.compiler.lowering import compile_rnn_shape
from repro.config import NpuConfig
from repro.errors import CapacityError, CompileError
from repro.isa import MemId, Opcode
from repro.models import (
    ConvSpec,
    GruReference,
    LstmReference,
    conv2d_reference,
    random_conv_weights,
)


def seq(rng, n, dim):
    return [rng.uniform(-1, 1, dim).astype(np.float32) for _ in range(n)]


class TestLstmLowering:
    def test_matches_reference_exact(self, small_config, rng):
        model = LstmReference(hidden_dim=30, input_dim=20, seed=7)
        compiled = compile_lstm(model, small_config)
        xs = seq(rng, 6, 20)
        got = compiled.run_sequence(xs, exact=True)
        want = model.run(xs)
        for g, w in zip(got, want):
            assert np.allclose(g, w, atol=1e-5)

    def test_matches_reference_under_bfp(self, bfp_config, rng):
        """With 5-bit mantissas the NPU output tracks the float32
        reference within a few percent (Section VI)."""
        model = LstmReference(hidden_dim=24, input_dim=24, seed=8,
                              scale=0.1)
        compiled = compile_lstm(model, bfp_config)
        xs = seq(rng, 4, 24)
        got = compiled.run_sequence(xs, exact=False)
        want = model.run(xs)
        for g, w in zip(got, want):
            assert np.linalg.norm(g - w) / (np.linalg.norm(w) + 1e-9) \
                < 0.08

    def test_chains_per_step(self, small_config):
        """Ten chains per timestep: xt load, 4 xW, f, i, o, c, h."""
        model = compile_rnn_shape("lstm", 30, small_config, input_dim=30)
        chains = list(model.program.chains({"steps": 1}))
        assert len(chains) == 10

    def test_eight_mv_muls_per_step(self, small_config):
        model = compile_rnn_shape("lstm", 30, small_config)
        chains = list(model.program.chains({"steps": 1}))
        assert sum(1 for c in chains if c.has_mv_mul) == 8

    def test_every_chain_fits_config_mfus(self, small_config):
        model = compile_rnn_shape("lstm", 30, small_config)
        for chain in model.program.chains({"steps": 1}):
            assert chain.mfus_required() <= small_config.mfus

    def test_state_persists_across_invocations(self, small_config, rng):
        """h/c live in the VRFs: a second run_sequence on the same
        simulator continues the recurrence."""
        model = LstmReference(hidden_dim=16, input_dim=16, seed=9)
        compiled = compile_lstm(model, small_config)
        xs = seq(rng, 6, 16)
        sim = compiled.new_simulator(exact=True)
        compiled.run_sequence(xs[:3], exact=True, sim=sim)
        second = compiled.run_sequence(xs[3:], exact=True, sim=sim)
        want = model.run(xs)
        assert np.allclose(second[-1], want[-1], atol=1e-5)

    def test_rectangular_input_dim(self, small_config, rng):
        """input_dim != hidden_dim exercises the Cx != C path."""
        model = LstmReference(hidden_dim=32, input_dim=8, seed=10)
        compiled = compile_lstm(model, small_config)
        # Four gates' W (h x x) and U (h x h), unpadded.
        assert compiled.allocator.mrf_elements_used == \
            4 * (32 * 8 + 32 * 32)
        xs = seq(rng, 3, 8)
        got = compiled.run_sequence(xs, exact=True)
        want = model.run(xs)
        assert np.allclose(got[-1], want[-1], atol=1e-5)

    def test_capacity_error_for_oversized_model(self):
        cfg = NpuConfig(name="t", tile_engines=1, lanes=2, native_dim=4,
                        mrf_size=4, mantissa_bits=0)
        model = compile_rnn_shape
        with pytest.raises(CapacityError):
            model("lstm", 64, cfg)


class TestGruLowering:
    def test_matches_reference_exact(self, small_config, rng):
        model = GruReference(hidden_dim=24, input_dim=24, seed=3)
        compiled = compile_gru(model, small_config)
        xs = seq(rng, 6, 24)
        got = compiled.run_sequence(xs, exact=True)
        want = model.run(xs)
        for g, w in zip(got, want):
            assert np.allclose(g, w, atol=1e-5)

    def test_sigmoid_padding_lanes_do_not_corrupt(self, small_config,
                                                  rng):
        """sigmoid(0) = 0.5 on the padded lanes of a hidden size that is
        not a multiple of the native dimension must not leak into the
        state: the padded lanes of h stay +0.0 step after step."""
        model = GruReference(hidden_dim=20, input_dim=20, seed=5)
        compiled = compile_gru(model, small_config)
        sim = compiled.new_simulator(exact=True)
        xs = seq(rng, 5, 20)
        got = compiled.run_sequence(xs, exact=True, sim=sim)
        for g, w in zip(got, model.run(xs)):
            assert np.allclose(g, w, atol=1e-5)
        padded = 2 * small_config.native_dim
        r_gate = sim.read_vector(MemId.MultiplyVrf,
                                 compiled.allocator.slot("rt").base, padded)
        assert np.all(r_gate[20:] == 0.5)
        h = sim.read_vector(MemId.InitialVrf,
                            compiled.allocator.slot("h_prev").base, padded)
        assert np.array_equal(h[20:], np.zeros(padded - 20, np.float32))
        assert not np.signbit(h[20:]).any()

    def test_chains_per_step(self, small_config):
        """Nine chains: xt, 3 xW, r, z, zbar, zh, fused h."""
        model = compile_rnn_shape("gru", 24, small_config)
        assert len(list(model.program.chains({"steps": 1}))) == 9

    def test_six_mv_muls_per_step(self, small_config):
        model = compile_rnn_shape("gru", 24, small_config)
        chains = list(model.program.chains({"steps": 1}))
        assert sum(1 for c in chains if c.has_mv_mul) == 6

    def test_uses_vv_b_sub_a_for_one_minus_z(self, small_config):
        model = compile_rnn_shape("gru", 24, small_config)
        ops = [i.opcode for c in model.program.chains({"steps": 1})
               for i in c]
        assert Opcode.VV_B_SUB_A in ops

    def test_shape_only_cannot_run_functionally(self, small_config):
        model = compile_rnn_shape("gru", 24, small_config)
        with pytest.raises(CompileError, match="shapes only"):
            model.new_simulator()

    def test_unknown_kind_rejected(self, small_config):
        with pytest.raises(CompileError):
            compile_rnn_shape("rnn", 24, small_config)


class TestConvLowering:
    def test_matches_reference(self, small_config, rng):
        spec = ConvSpec(in_height=5, in_width=5, in_channels=3,
                        kernels=7, kernel_h=3, kernel_w=3)
        w = random_conv_weights(spec, seed=11)
        compiled = compile_conv(spec, w, small_config)
        act = rng.uniform(-1, 1, (5, 5, 3)).astype(np.float32)
        got = compiled.run_image(act, exact=True)
        assert np.allclose(got, conv2d_reference(act, w, spec),
                           atol=1e-5)

    def test_bias_and_relu(self, small_config, rng):
        spec = ConvSpec(in_height=4, in_width=4, in_channels=2,
                        kernels=5, kernel_h=1, kernel_w=1, padding=0)
        w = random_conv_weights(spec, seed=12)
        bias = rng.uniform(-0.5, 0.5, 5).astype(np.float32)
        compiled = compile_conv(spec, w, small_config, bias=bias,
                                relu=True)
        act = rng.uniform(-1, 1, (4, 4, 2)).astype(np.float32)
        want = np.maximum(conv2d_reference(act, w, spec) + bias, 0)
        assert np.allclose(compiled.run_image(act, exact=True), want,
                           atol=1e-5)

    def test_strided_conv(self, small_config, rng):
        spec = ConvSpec(in_height=6, in_width=6, in_channels=2,
                        kernels=4, kernel_h=3, kernel_w=3, stride=2,
                        padding=1)
        w = random_conv_weights(spec, seed=13)
        compiled = compile_conv(spec, w, small_config)
        act = rng.uniform(-1, 1, (6, 6, 2)).astype(np.float32)
        got = compiled.run_image(act, exact=True)
        assert got.shape == (3, 3, 4)
        assert np.allclose(got, conv2d_reference(act, w, spec),
                           atol=1e-5)


class TestCompiledModelApi:
    def test_input_length_validation(self, small_config, rng):
        model = LstmReference(hidden_dim=16, input_dim=16, seed=1)
        compiled = compile_lstm(model, small_config)
        with pytest.raises(CompileError, match="input length"):
            compiled.run_sequence([rng.uniform(-1, 1, 15)])

    def test_mrf_usage_reported(self, small_config):
        compiled = compile_rnn_shape("lstm", 32, small_config)
        assert compiled.mrf_tiles_used == 8 * 4  # 8 matrices, 2x2 tiles

    def test_ops_per_step_metadata(self, small_config):
        compiled = compile_rnn_shape("gru", 24, small_config)
        assert compiled.ops_per_step == \
            GruReference(24, 24).shape(1).ops_per_step


class TestPaperCompactness:
    def test_lstm_program_is_under_100_lines(self):
        """Section IV-C: 'A fully parameterized and performance-tuned
        LSTM ... can be expressed in just under 100 lines of code.'"""
        from repro.config import BW_S10
        from repro.isa import format_program
        compiled = compile_rnn_shape("lstm", 2000, BW_S10)
        lines = [l for l in format_program(compiled.program).splitlines()
                 if l.strip()]
        assert len(lines) < 100

    def test_single_instruction_dispatches_millions_of_ops(self):
        """Section IV-C: the largest GRU's mv_mul dispatches over 7M
        operations from one instruction."""
        from repro.config import BW_S10
        compiled = compile_rnn_shape("gru", 2816, BW_S10)
        chains = list(compiled.program.chains({"steps": 1}))
        n = BW_S10.native_dim
        biggest = max(
            8 * 8 * n * n  # rows x cols tiles at native dim
            for c in chains if c.has_mv_mul)
        assert biggest > 7e6
