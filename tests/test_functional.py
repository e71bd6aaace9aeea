"""Tests for the functional (architectural) simulator."""

import numpy as np
import pytest

from repro.errors import (
    ExecutionError,
    MemoryError_,
    NetworkQueueEmptyError,
)
from repro.functional import FunctionalSimulator
from repro.isa import MemId, ProgramBuilder, ScalarReg


def run_chain(sim, build):
    b = ProgramBuilder("t")
    build(b)
    sim.run(b.build())
    return sim


class TestScalarState:
    def test_rows_cols_default_to_one(self, tiny_config):
        sim = FunctionalSimulator(tiny_config)
        assert sim.scalar_regs[ScalarReg.Rows] == 1
        assert sim.scalar_regs[ScalarReg.Columns] == 1

    def test_s_wr_updates_register(self, tiny_config):
        sim = FunctionalSimulator(tiny_config)
        run_chain(sim, lambda b: b.set_rows(3))
        assert sim.scalar_regs[ScalarReg.Rows] == 3

    def test_zero_rows_rejected(self, tiny_config):
        sim = FunctionalSimulator(tiny_config)
        with pytest.raises(ExecutionError):
            run_chain(sim, lambda b: b.set_rows(0))


class TestVectorChains:
    def test_copy_through_vrfs(self, tiny_config, rng):
        sim = FunctionalSimulator(tiny_config, exact=True)
        vec = rng.uniform(-1, 1, 8).astype(np.float32)
        sim.load_vector(MemId.InitialVrf, 0, vec)

        def build(b):
            b.v_rd(MemId.InitialVrf, 0)
            b.v_wr(MemId.AddSubVrf, 5)
        run_chain(sim, build)
        assert np.allclose(sim.read_vector(MemId.AddSubVrf, 5, 8), vec)

    def test_netq_roundtrip(self, tiny_config, rng):
        sim = FunctionalSimulator(tiny_config, exact=True)
        vec = rng.uniform(-1, 1, 8).astype(np.float32)
        sim.push_input(vec)

        def build(b):
            b.v_rd(MemId.NetQ)
            b.v_wr(MemId.NetQ)
        run_chain(sim, build)
        assert np.allclose(sim.pop_outputs_flat(), vec)

    def test_netq_underflow_raises(self, tiny_config):
        sim = FunctionalSimulator(tiny_config)
        with pytest.raises(NetworkQueueEmptyError):
            run_chain(sim, lambda b: (b.v_rd(MemId.NetQ),
                                      b.v_wr(MemId.NetQ)))

    @pytest.mark.parametrize("op,fn", [
        ("v_relu", lambda x: np.maximum(x, 0)),
        ("v_sigm", lambda x: 1 / (1 + np.exp(-x.astype(np.float64)))),
        ("v_tanh", lambda x: np.tanh(x.astype(np.float64))),
    ])
    def test_unary_ops(self, tiny_config, rng, op, fn):
        sim = FunctionalSimulator(tiny_config, exact=True)
        vec = rng.uniform(-2, 2, 8).astype(np.float32)
        sim.load_vector(MemId.InitialVrf, 0, vec)

        def build(b):
            b.v_rd(MemId.InitialVrf, 0)
            getattr(b, op)()
            b.v_wr(MemId.InitialVrf, 1)
        run_chain(sim, build)
        assert np.allclose(sim.read_vector(MemId.InitialVrf, 1, 8),
                           fn(vec), atol=1e-6)

    @pytest.mark.parametrize("op,fn", [
        ("vv_add", lambda a, b: a + b),
        ("vv_a_sub_b", lambda a, b: a - b),
        ("vv_b_sub_a", lambda a, b: b - a),
        ("vv_max", np.maximum),
    ])
    def test_addsub_ops(self, tiny_config, rng, op, fn):
        sim = FunctionalSimulator(tiny_config, exact=True)
        a = rng.uniform(-2, 2, 8).astype(np.float32)
        operand = rng.uniform(-2, 2, 8).astype(np.float32)
        sim.load_vector(MemId.InitialVrf, 0, a)
        sim.load_vector(MemId.AddSubVrf, 3, operand)

        def build(b):
            b.v_rd(MemId.InitialVrf, 0)
            getattr(b, op)(3)
            b.v_wr(MemId.InitialVrf, 1)
        run_chain(sim, build)
        assert np.allclose(sim.read_vector(MemId.InitialVrf, 1, 8),
                           fn(a, operand), atol=1e-6)

    def test_hadamard_uses_multiply_vrf(self, tiny_config, rng):
        sim = FunctionalSimulator(tiny_config, exact=True)
        a = rng.uniform(-2, 2, 8).astype(np.float32)
        m = rng.uniform(-2, 2, 8).astype(np.float32)
        sim.load_vector(MemId.InitialVrf, 0, a)
        sim.load_vector(MemId.MultiplyVrf, 2, m)

        def build(b):
            b.v_rd(MemId.InitialVrf, 0)
            b.vv_mul(2)
            b.v_wr(MemId.InitialVrf, 1)
        run_chain(sim, build)
        assert np.allclose(sim.read_vector(MemId.InitialVrf, 1, 8), a * m)

    def test_multicast_write(self, tiny_config, rng):
        sim = FunctionalSimulator(tiny_config, exact=True)
        vec = rng.uniform(-1, 1, 8).astype(np.float32)
        sim.load_vector(MemId.InitialVrf, 0, vec)

        def build(b):
            b.v_rd(MemId.InitialVrf, 0)
            b.v_wr(MemId.AddSubVrf, 1)
            b.v_wr(MemId.MultiplyVrf, 2)
            b.v_wr(MemId.NetQ)
        run_chain(sim, build)
        assert np.allclose(sim.read_vector(MemId.AddSubVrf, 1, 8), vec)
        assert np.allclose(sim.read_vector(MemId.MultiplyVrf, 2, 8), vec)
        assert np.allclose(sim.pop_outputs_flat(), vec)

    def test_dram_vector_path(self, tiny_config, rng):
        sim = FunctionalSimulator(tiny_config, exact=True)
        vec = rng.uniform(-1, 1, 8).astype(np.float32)
        sim.dram.write_vectors(4, vec.reshape(1, 8))

        def build(b):
            b.v_rd(MemId.Dram, 4)
            b.v_wr(MemId.InitialVrf, 0)
        run_chain(sim, build)
        assert np.allclose(sim.read_vector(MemId.InitialVrf, 0, 8), vec)


class TestMvMul:
    def test_single_tile(self, tiny_config, rng):
        sim = FunctionalSimulator(tiny_config, exact=True)
        W = rng.uniform(-1, 1, (8, 8)).astype(np.float32)
        x = rng.uniform(-1, 1, 8).astype(np.float32)
        sim.load_matrix(0, W)
        sim.load_vector(MemId.InitialVrf, 0, x)

        def build(b):
            b.v_rd(MemId.InitialVrf, 0)
            b.mv_mul(0)
            b.v_wr(MemId.InitialVrf, 1)
        run_chain(sim, build)
        assert np.allclose(sim.read_vector(MemId.InitialVrf, 1, 8),
                           W @ x, atol=1e-5)

    def test_mega_simd_tiling(self, tiny_config, rng):
        """rows=2, cols=3: 6 consecutive MRF tiles act as a 16x24
        matrix (Section IV-C mega-SIMD)."""
        sim = FunctionalSimulator(tiny_config, exact=True)
        W = rng.uniform(-1, 1, (16, 24)).astype(np.float32)
        x = rng.uniform(-1, 1, 24).astype(np.float32)
        sim.load_matrix(0, W)
        sim.load_vector(MemId.InitialVrf, 0, x)

        def build(b):
            b.set_rows(2)
            b.set_columns(3)
            b.v_rd(MemId.InitialVrf, 0)
            b.mv_mul(0)
            b.v_wr(MemId.InitialVrf, 4)
        run_chain(sim, build)
        assert np.allclose(sim.read_vector(MemId.InitialVrf, 4, 16),
                           W @ x, atol=1e-4)

    def test_mega_simd_scales_reads_and_writes(self, tiny_config, rng):
        """The v_rd feeding mv_mul reads `cols` entries; the v_wr
        writes `rows` entries (Section IV-C)."""
        sim = FunctionalSimulator(tiny_config, exact=True)
        W = rng.uniform(-1, 1, (16, 8)).astype(np.float32)
        x = rng.uniform(-1, 1, 8).astype(np.float32)
        sim.load_matrix(0, W)
        sim.push_input(x)

        def build(b):
            b.set_rows(2)
            b.set_columns(1)
            b.v_rd(MemId.NetQ)
            b.mv_mul(0)
            b.v_wr(MemId.NetQ)
        run_chain(sim, build)
        out = sim.pop_outputs_flat()
        assert out.shape == (16,)
        assert np.allclose(out, W @ x, atol=1e-4)

    def test_padding_zeros_are_harmless(self, tiny_config, rng):
        """A 5x5 matrix padded into an 8x8 tile computes the same
        product on the unpadded lanes."""
        sim = FunctionalSimulator(tiny_config, exact=True)
        W = rng.uniform(-1, 1, (5, 5)).astype(np.float32)
        x = rng.uniform(-1, 1, 5).astype(np.float32)
        sim.load_matrix(0, W)
        sim.load_vector(MemId.InitialVrf, 0, x)

        def build(b):
            b.v_rd(MemId.InitialVrf, 0)
            b.mv_mul(0)
            b.v_wr(MemId.InitialVrf, 1)
        run_chain(sim, build)
        out = sim.read_vector(MemId.InitialVrf, 1, 8)
        assert np.allclose(out[:5], W @ x, atol=1e-5)
        assert np.all(out[5:] == 0)

    def test_mv_mul_out_of_mrf_bounds(self, tiny_config):
        sim = FunctionalSimulator(tiny_config, exact=True)
        sim.load_vector(MemId.InitialVrf, 0, np.ones(8))

        def build(b):
            b.v_rd(MemId.InitialVrf, 0)
            b.mv_mul(tiny_config.mrf_address_space)
            b.v_wr(MemId.InitialVrf, 1)
        with pytest.raises(MemoryError_):
            run_chain(sim, build)

    def test_bfp_quantization_changes_result(self, bfp_config, rng):
        """With BFP enabled the product differs from exact float32 but
        stays within the format's error bound."""
        exact_sim = FunctionalSimulator(bfp_config, exact=True)
        bfp_sim = FunctionalSimulator(bfp_config, exact=False)
        W = rng.uniform(-1, 1, (16, 16)).astype(np.float32)
        x = rng.uniform(-1, 1, 16).astype(np.float32)
        for sim in (exact_sim, bfp_sim):
            sim.load_matrix(0, W)
            sim.load_vector(MemId.InitialVrf, 0, x)

            def build(b):
                b.v_rd(MemId.InitialVrf, 0)
                b.mv_mul(0)
                b.v_wr(MemId.InitialVrf, 1)
            run_chain(sim, build)
        exact = exact_sim.read_vector(MemId.InitialVrf, 1, 16)
        approx = bfp_sim.read_vector(MemId.InitialVrf, 1, 16)
        rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert 0 < rel < 0.1

    def test_stats_track_macs(self, tiny_config, rng):
        sim = FunctionalSimulator(tiny_config, exact=True)
        sim.load_matrix(0, rng.uniform(-1, 1, (8, 8)).astype(np.float32))
        sim.load_vector(MemId.InitialVrf, 0, np.ones(8))

        def build(b):
            b.v_rd(MemId.InitialVrf, 0)
            b.mv_mul(0)
            b.v_relu()
            b.v_wr(MemId.InitialVrf, 1)
        run_chain(sim, build)
        assert sim.stats.mv_mul_count == 1
        assert sim.stats.macs == 64
        assert sim.stats.pointwise_flops == 8


class TestMatrixChains:
    def test_netq_to_mrf(self, tiny_config, rng):
        """MRF initialization over the network (Section IV-C)."""
        sim = FunctionalSimulator(tiny_config, exact=True)
        tiles = rng.uniform(-1, 1, (4, 8, 8)).astype(np.float32)
        sim.netq.push_input_tiles(tiles)

        def build(b):
            b.set_rows(2)
            b.set_columns(2)
            b.m_rd(MemId.NetQ)
            b.m_wr(MemId.MatrixRf, 0)
        run_chain(sim, build)
        assert np.allclose(sim.mrf.read_tiles(0, 4), tiles)

    def test_dram_to_mrf_and_back(self, tiny_config, rng):
        sim = FunctionalSimulator(tiny_config, exact=True)
        tiles = rng.uniform(-1, 1, (2, 8, 8)).astype(np.float32)
        sim.dram.write_tiles(0, tiles)

        def build(b):
            b.set_rows(1)
            b.set_columns(2)
            b.m_rd(MemId.Dram, 0)
            b.m_wr(MemId.MatrixRf, 3)
            b.m_rd(MemId.Dram, 0)
            b.m_wr(MemId.Dram, 10)
        run_chain(sim, build)
        assert np.allclose(sim.mrf.read_tiles(3, 2), tiles)
        assert np.allclose(sim.dram.read_tiles(10, 2), tiles)

    def test_isa_init_equivalent_to_load_matrix(self, bfp_config, rng):
        """Loading via m_rd/m_wr chains quantizes identically to the
        host-side load_matrix utility."""
        W = rng.uniform(-1, 1, (16, 16)).astype(np.float32)
        a = FunctionalSimulator(bfp_config)
        a.load_matrix(0, W)
        b_sim = FunctionalSimulator(bfp_config)
        tiles = FunctionalSimulator(
            bfp_config.replace(mantissa_bits=0), exact=True)._tiles_of(W)
        b_sim.netq.push_input_tiles(tiles)

        def build(b):
            b.set_rows(1)
            b.set_columns(1)
            b.m_rd(MemId.NetQ)
            b.m_wr(MemId.MatrixRf, 0)
        bld = ProgramBuilder("init")
        bld.set_rows(1)
        bld.set_columns(1)
        bld.m_rd(MemId.NetQ)
        bld.m_wr(MemId.MatrixRf, 0)
        b_sim.run(bld.build())
        assert np.array_equal(a.mrf.read_tile(0), b_sim.mrf.read_tile(0))


class TestHostUtilities:
    def test_load_vector_pads(self, tiny_config):
        sim = FunctionalSimulator(tiny_config)
        count = sim.load_vector(MemId.InitialVrf, 0, np.ones(10))
        assert count == 2
        out = sim.read_vector(MemId.InitialVrf, 0, 16)
        assert np.all(out[:10] == 1) and np.all(out[10:] == 0)

    def test_load_matrix_returns_tile_count(self, tiny_config, rng):
        sim = FunctionalSimulator(tiny_config)
        count = sim.load_matrix(0, rng.uniform(-1, 1, (9, 17)))
        assert count == 2 * 3

    def test_load_matrix_rejects_1d(self, tiny_config):
        sim = FunctionalSimulator(tiny_config)
        with pytest.raises(ExecutionError):
            sim.load_matrix(0, np.ones(8))

    def test_push_input_splits_into_native_vectors(self, tiny_config):
        sim = FunctionalSimulator(tiny_config)
        sim.push_input(np.ones(20))
        assert sim.netq.pending_inputs == 3
