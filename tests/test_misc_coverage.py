"""Edge-case and cross-cutting coverage tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BW_S10, NpuConfig
from repro.functional import FunctionalSimulator
from repro.harness.tables import fmt
from repro.isa import MemId, ProgramBuilder
from repro.numerics import BfpFormat, error_stats
from repro.timing import LatencyConstants, TimingSimulator


class TestTableFormatting:
    def test_fmt_ranges(self):
        assert fmt(0) == "0"
        assert fmt(0.1234) == "0.12"
        assert fmt(123.4) == "123"
        assert fmt(12345.6) == "12,346"


class TestNumericsEdges:
    def test_error_stats_zero_signal(self):
        stats = error_stats(np.zeros(8), np.ones(8))
        assert stats.snr_db == float("-inf")
        assert stats.rel_rms_error == float("inf")

    def test_format_str(self):
        # Non-native block sizes are called out in the name; the default
        # 128-element block keeps the paper's bare Table IV notation.
        assert str(BfpFormat(3, block_size=64)) == "1s.5e.3m.b64"
        assert str(BfpFormat(3)) == "1s.5e.3m"
        assert BfpFormat(3, block_size=64).label(native_block=64) == "1s.5e.3m"


class TestExecutorEdges:
    def test_run_empty_program(self, tiny_config):
        sim = FunctionalSimulator(tiny_config)
        from repro.isa import NpuProgram
        stats = sim.run(NpuProgram((), name="empty"))
        assert stats.chains_executed == 0

    def test_exact_flag_forced_by_zero_mantissa(self):
        cfg = NpuConfig(name="z", tile_engines=1, lanes=2, native_dim=4,
                        mrf_size=4, mantissa_bits=0)
        sim = FunctionalSimulator(cfg, exact=False)
        assert sim.exact  # mantissa_bits=0 means exact regardless

    def test_chain_over_mfu_budget_raises_at_execution(self, tiny_config):
        from repro.errors import ChainCapacityError
        cfg = tiny_config.replace(mfus=1)
        sim = FunctionalSimulator(cfg, exact=True)
        sim.load_vector(MemId.InitialVrf, 0, np.ones(8))
        sim.load_vector(MemId.AddSubVrf, 0, np.ones(8))
        sim.load_vector(MemId.AddSubVrf, 1, np.ones(8))
        b = ProgramBuilder("too_long")
        b.v_rd(MemId.InitialVrf, 0)
        b.vv_add(0)
        b.vv_add(1)
        b.v_wr(MemId.InitialVrf, 1)
        with pytest.raises(ChainCapacityError):
            sim.run(b.build())


class TestMegaSimdProperty:
    @given(st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=16, deadline=None)
    def test_mv_mul_matches_numpy_for_any_tiling(self, rows, cols):
        cfg = NpuConfig(name="p", tile_engines=2, lanes=4, native_dim=8,
                        mrf_size=64, mantissa_bits=0)
        rng = np.random.default_rng(rows * 10 + cols)
        W = rng.uniform(-1, 1, (rows * 8, cols * 8)).astype(np.float32)
        x = rng.uniform(-1, 1, cols * 8).astype(np.float32)
        sim = FunctionalSimulator(cfg, exact=True)
        sim.load_matrix(0, W)
        sim.load_vector(MemId.InitialVrf, 0, x)
        b = ProgramBuilder("p")
        b.set_rows(rows)
        b.set_columns(cols)
        b.v_rd(MemId.InitialVrf, 0)
        b.mv_mul(0)
        b.v_wr(MemId.InitialVrf, 8)
        sim.run(b.build())
        got = sim.read_vector(MemId.InitialVrf, 8, rows * 8)
        assert np.allclose(got, W @ x, atol=1e-4)


class TestTimingEdges:
    def test_constants_are_frozen_dataclass(self):
        import dataclasses
        with pytest.raises(dataclasses.FrozenInstanceError):
            LatencyConstants().arb_depth = 1.0

    def test_empty_program_times_to_overhead_only(self):
        from repro.isa import NpuProgram
        report = TimingSimulator(BW_S10).run(NpuProgram((), name="e"))
        assert report.total_cycles == pytest.approx(
            LatencyConstants().invocation_overhead)

    def test_s_wr_only_program(self):
        b = ProgramBuilder("ctl")
        b.set_rows(4)
        b.set_columns(4)
        report = TimingSimulator(BW_S10).run(
            b.build(), include_invocation_overhead=False)
        assert report.instructions_dispatched == 2
        assert report.chains_executed == 0

    def test_utilization_zero_without_nominal_ops(self):
        from repro.compiler.lowering import compile_rnn_shape
        compiled = compile_rnn_shape("gru", 512, BW_S10)
        report = TimingSimulator(BW_S10).run(compiled.program,
                                             bindings={"steps": 1})
        assert report.utilization == 0.0
