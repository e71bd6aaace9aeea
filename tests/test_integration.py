"""End-to-end integration tests across the full stack."""

import numpy as np
import pytest

from repro.compiler import compile_gru, compile_lstm
from repro.config import NpuConfig
from repro.isa import format_program, parse_program
from repro.models import GruReference, LstmReference
from repro.timing import TimingSimulator


@pytest.fixture
def cfg():
    return NpuConfig(name="it", tile_engines=2, lanes=4, native_dim=16,
                     mrf_size=256, mfus=2, initial_vrf_depth=128,
                     addsub_vrf_depth=128, multiply_vrf_depth=128,
                     mantissa_bits=0)


class TestCompileSerializeExecute:
    """Compile -> disassemble -> reassemble -> execute == reference."""

    def test_lstm_through_assembler(self, cfg, rng):
        model = LstmReference(20, 20, seed=21)
        compiled = compile_lstm(model, cfg)
        text = format_program(compiled.program)
        reparsed = parse_program(text, name="reparsed")
        sim = compiled.new_simulator(exact=True)
        xs = [rng.uniform(-1, 1, 20).astype(np.float32)
              for _ in range(3)]
        for x in xs:
            compiled._push_padded(sim, x)
        sim.run(reparsed, bindings={"steps": 3})
        outputs = compiled._collect_outputs(sim, 3)
        want = model.run(xs)
        assert np.allclose(outputs[-1], want[-1], atol=1e-5)


class TestTimingFunctionalConsistency:
    def test_same_program_drives_both_simulators(self, cfg, rng):
        model = GruReference(24, 24, seed=25)
        compiled = compile_gru(model, cfg)
        # Functional run.
        xs = [rng.uniform(-1, 1, 24).astype(np.float32)
              for _ in range(4)]
        outputs = compiled.run_sequence(xs, exact=True)
        assert len(outputs) == 4
        # Timing run of the identical program object.
        report = TimingSimulator(cfg).run(
            compiled.program, bindings={"steps": 4},
            nominal_ops=4 * compiled.ops_per_step)
        assert report.chains_executed == 4 * 9
        assert report.total_cycles > 0

    def test_functional_stats_consistent_with_shape_metadata(self, cfg,
                                                             rng):
        model = GruReference(16, 16, seed=26)
        compiled = compile_gru(model, cfg)
        sim = compiled.new_simulator(exact=True)
        compiled.run_sequence(
            [rng.uniform(-1, 1, 16).astype(np.float32)], exact=True,
            sim=sim)
        # Padded MAC work >= nominal model MACs.
        nominal_macs = model.shape(1).matmul_ops_per_step // 2
        assert sim.stats.macs >= nominal_macs


class TestBfpAccuracyAcrossStack:
    @pytest.mark.parametrize("mantissa,limit", [(2, 0.35), (5, 0.05)])
    def test_rnn_output_error_shrinks_with_mantissa(self, rng, mantissa,
                                                    limit):
        """Section VI: mantissas trimmed to 2-5 bits with bounded
        impact; error decreases with width."""
        cfg = NpuConfig(name="q", tile_engines=2, lanes=4,
                        native_dim=16, mrf_size=256,
                        initial_vrf_depth=128, addsub_vrf_depth=128,
                        multiply_vrf_depth=128, mantissa_bits=mantissa)
        model = GruReference(24, 24, seed=30, scale=0.15)
        compiled = compile_gru(model, cfg)
        xs = [rng.uniform(-1, 1, 24).astype(np.float32)
              for _ in range(3)]
        got = compiled.run_sequence(xs, exact=False)
        want = model.run(xs)
        rel = (np.linalg.norm(got[-1] - want[-1])
               / (np.linalg.norm(want[-1]) + 1e-9))
        assert rel < limit
