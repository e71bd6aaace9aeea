"""Bit-exact equivalence of the vectorized execution layer.

The vectorized ``mv_mul`` paths (row-packed float64 GEMV, mantissa-GEMV,
and the stacked float64 fallback), MRF window assembly, and the
``copy=False`` register-file reads must be indistinguishable from the
reference interpreter (:mod:`repro.verify.reference`) — same
architectural state, same statistics — and the simulator's own
accounting (MRF tile reads, ``executor.*`` counters, the instruction
trace) must report the architectural values. These tests pin that
contract (the perf harness depends on it: a speedup number from a
divergent fast path is invalid).
"""

import collections
import dataclasses

import numpy as np
import pytest

from repro.compiler.lowering import compile_gru, compile_lstm
from repro.config import BW_CNN_A10, BW_S5, NpuConfig
from repro.functional import FunctionalSimulator
from repro.isa import MemId, ProgramBuilder
from repro.memory import MatrixRegisterFile, VectorRegisterFile
from repro.models.gru import GruReference
from repro.models.lstm import LstmReference
from repro.obs import Metrics, Tracer
from repro.timing.scheduler import ReadyTracker
from repro.verify import ReferenceInterpreter

# The two published BFP formats (Table IV/VI) on a lab-sized instance:
# mb=2 activates the row-packed GEMV (k >= 3 slots fit in a float64
# lane); mb=5 at n=128 overflows the packing budget and must take the
# per-column-block mantissa-GEMV path instead.
RNN_CFG = NpuConfig(name="eq_rnn", tile_engines=2, lanes=4, native_dim=128,
                    mrf_size=64, mantissa_bits=2)
CNN_CFG = NpuConfig(name="eq_cnn", tile_engines=2, lanes=4, native_dim=128,
                    mrf_size=64, mantissa_bits=5)


def _reference_of(sim):
    """A reference interpreter holding ``sim``'s architectural state
    (weights are already quantized in the simulator's MRF)."""
    config = sim.config
    if sim.exact:
        config = dataclasses.replace(config, mantissa_bits=0)
    ref = ReferenceInterpreter(config)
    snap = sim.snapshot()
    for name, data in snap["vrf"].items():
        ref.load_vrf(MemId[name], data)
    ref.mrf[:] = snap["mrf"]
    for index, vec in snap["dram_vectors"].items():
        ref.load_dram_vectors(index, vec)
    return ref


def _assert_matches_reference(sim, ref, tracer, metrics):
    """``sim``'s state and statistics equal the reference interpreter's,
    and its counters and instruction trace report the same work."""
    got, want = sim.snapshot(), ref.snapshot()
    for name in want["vrf"]:
        assert np.array_equal(got["vrf"][name], want["vrf"][name]), name
    assert len(got["outputs"]) == len(want["outputs"])
    for a, b in zip(got["outputs"], want["outputs"]):
        assert np.array_equal(a, b)
    assert got["scalar_regs"] == want["scalar_regs"]
    assert dataclasses.asdict(sim.stats) == ref.stats_dict()

    counters = {k: c.value for k, c in metrics.counters.items()}
    prefix = "executor.ops."
    ops = {k[len(prefix):]: v for k, v in counters.items()
           if k.startswith(prefix)}
    assert ops == {k: v for k, v in ref.op_counts.items() if v}
    assert counters.get("executor.macs", 0) == ref.macs
    assert counters.get("executor.pointwise_flops", 0) == \
        ref.pointwise_flops
    assert counters["executor.chains"] == ref.chains_executed

    # One trace tick per retired instruction, in retirement order.
    ticks = [s for s in tracer.spans if s.name not in ("run", "chain")]
    assert collections.Counter(s.name for s in ticks) == ops
    assert [s.start for s in ticks] == \
        [float(t) for t in range(ref.instructions_executed)]
    assert sum(s.name == "chain" for s in tracer.spans) == \
        ref.chains_executed


def _mvm_program(rows, cols):
    b = ProgramBuilder("mvm")
    b.set_rows(rows)
    b.set_columns(cols)
    b.v_rd(MemId.InitialVrf, 0)
    b.mv_mul(0)
    b.v_wr(MemId.InitialVrf, cols)
    return b.build()


@pytest.mark.parametrize("config", [RNN_CFG, CNN_CFG],
                         ids=lambda c: c.name)
@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 3), (3, 1), (2, 2),
                                       (4, 3), (5, 5)])
@pytest.mark.parametrize("exact", [False, True],
                         ids=["quantized", "exact"])
def test_mv_mul_sweep_bit_identical(config, rows, cols, exact):
    """Every (rows, cols) window shape matches the reference interpreter
    exactly over repeated calls (warm caches) — state, statistics,
    counters and trace — and each call reads its rows*cols MRF tiles."""
    n = config.native_dim
    rng = np.random.default_rng(0)
    W = rng.uniform(-1, 1, (rows * n, cols * n)).astype(np.float32)
    xs = [rng.uniform(-2, 2, cols * n).astype(np.float32)
          for _ in range(3)]
    tracer, metrics = Tracer(unit="instructions"), Metrics()
    sim = FunctionalSimulator(config, exact=exact, tracer=tracer,
                              metrics=metrics)
    sim.load_matrix(0, W)
    ref = _reference_of(sim)
    reads = sim.mrf.reads
    program = _mvm_program(rows, cols)
    for x in xs:
        sim.load_vector(MemId.InitialVrf, 0, x)
        ref.load_vrf(MemId.InitialVrf, x.reshape(cols, n))
        sim.run(program)
        ref.run(program)
    assert sim.mrf.reads - reads == len(xs) * rows * cols
    _assert_matches_reference(sim, ref, tracer, metrics)


def test_packed_gemv_active_only_for_narrow_formats():
    """mb=2 packs k>=3 mantissa rows per float64 lane; mb=5 at n=128
    exceeds the slot budget and falls back to mantissa-GEMV; exact mode
    uses neither."""
    rnn = FunctionalSimulator(RNN_CFG)
    cnn = FunctionalSimulator(CNN_CFG)
    ex = FunctionalSimulator(RNN_CFG, exact=True)
    assert rnn._pack_slots >= 3 and rnn._mantissa_gemv
    assert cnn._pack_slots == 0 and cnn._mantissa_gemv
    assert ex._pack_slots == 0 and not ex._mantissa_gemv


def test_mrf_rewrite_invalidates_window_cache():
    """Rewriting the weights between mv_muls bumps the MRF generation,
    so the second call computes with the new weights (the reference
    result), not the cached operands of the first."""
    n = RNN_CFG.native_dim
    rng = np.random.default_rng(5)
    W1 = rng.uniform(-1, 1, (2 * n, 2 * n)).astype(np.float32)
    W2 = rng.uniform(-1, 1, (2 * n, 2 * n)).astype(np.float32)
    x = rng.uniform(-1, 1, 2 * n).astype(np.float32)
    program = _mvm_program(2, 2)
    sim = FunctionalSimulator(RNN_CFG)
    outs = []
    for W in (W1, W2):
        generation = sim.mrf.generation
        sim.load_matrix(0, W)
        assert sim.mrf.generation > generation
        sim.load_vector(MemId.InitialVrf, 0, x)
        ref = _reference_of(sim)
        sim.run(program)
        ref.run(program)
        got = sim.read_vector(MemId.InitialVrf, 2, 2 * n)
        assert np.array_equal(got, ref.vrfs[MemId.InitialVrf][2:4]
                              .reshape(-1))
        outs.append(got)
    assert not np.array_equal(outs[0], outs[1])


@pytest.mark.parametrize("kind,hidden,config", [
    ("lstm", 200, BW_S5), ("gru", 200, BW_S5),
    ("lstm", 256, BW_CNN_A10),
], ids=["lstm_s5", "gru_s5", "lstm_cnn_a10"])
@pytest.mark.parametrize("exact", [False, True],
                         ids=["quantized", "exact"])
def test_compiled_rnn_bit_identical(kind, hidden, config, exact):
    """End-to-end compiled LSTM/GRU sequences on the vectorized executor
    are bit-identical to the reference interpreter, and its
    observability output reports the same work."""
    if kind == "lstm":
        model = compile_lstm(LstmReference(hidden_dim=hidden, seed=3), config)
    else:
        model = compile_gru(GruReference(hidden_dim=hidden, seed=3), config)
    rng = np.random.default_rng(9)
    xs = [rng.standard_normal(model.input_length).astype(np.float32)
          for _ in range(3)]
    tracer, metrics = Tracer(unit="instructions"), Metrics()
    n = config.native_dim
    inputs = np.zeros((len(xs), model.input_vectors_per_step * n),
                      dtype=np.float32)
    inputs[:, :model.input_length] = xs
    sim = model.new_simulator(exact=exact, tracer=tracer, metrics=metrics)
    ref = _reference_of(sim)
    reads = sim.mrf.reads
    for vec in inputs.reshape(-1, n):
        sim.netq.push_input(vec)
    ref.push_inputs(inputs.reshape(-1, n))
    bindings = {model.steps_binding: len(xs)}
    sim.run(model.program, bindings)
    ref.run(model.program, bindings)
    assert sim.mrf.reads - reads == ref.macs // (n * n)
    _assert_matches_reference(sim, ref, tracer, metrics)


# -- MRF window assembly ------------------------------------------------

class TestCopyFalseReads:
    def test_vrf_view_aliases_storage(self):
        vrf = VectorRegisterFile("vrf", depth=4, native_dim=3)
        vrf.write(1, np.arange(6, dtype=np.float32).reshape(2, 3))
        view = vrf.read(1, 2, copy=False)
        copied = vrf.read(1, 2)
        assert np.shares_memory(view, vrf._data)
        assert not np.shares_memory(copied, vrf._data)
        assert np.array_equal(view, copied)

    def test_mrf_tiles_view_aliases_storage(self):
        mrf = MatrixRegisterFile("mrf", capacity=4, native_dim=2)
        mrf.write_tile(1, np.ones((2, 2), dtype=np.float32))
        view = mrf.read_tiles(0, 2, copy=False)
        assert np.shares_memory(view, mrf._tiles)
        assert not np.shares_memory(mrf.read_tiles(0, 2), mrf._tiles)


# -- _tiles_of layout regression ------------------------------------------

def test_tiles_of_row_major_tile_layout():
    """Tile (r, c) of a padded matrix lands at slot r*cols + c, with
    zero padding beyond the matrix edge (the vectorized reshape must
    reproduce the historical per-tile slicing exactly)."""
    cfg = NpuConfig(name="tiles", tile_engines=1, lanes=2, native_dim=4,
                    mrf_size=32, mantissa_bits=0)
    sim = FunctionalSimulator(cfg, exact=True)
    rng = np.random.default_rng(2)
    M = rng.standard_normal((10, 7)).astype(np.float32)  # pads to 12 x 8
    tiles = sim._tiles_of(M)
    assert tiles.shape == (6, 4, 4)
    padded = np.zeros((12, 8), dtype=np.float32)
    padded[:10, :7] = M
    for r in range(3):
        for c in range(2):
            assert np.array_equal(
                tiles[r * 2 + c],
                padded[r * 4:(r + 1) * 4, c * 4:(c + 1) * 4])


# -- ReadyTracker ----------------------------------------------------------

class TestReadyTracker:
    def test_unwritten_ranges_are_time_zero(self):
        t = ReadyTracker()
        assert t.range_max(MemId.InitialVrf, 0, 100) == 0.0
        t.mark(MemId.InitialVrf, 5, 2, 10.0)
        assert t.range_max(MemId.AddSubVrf, 0, 10) == 0.0
        assert t.range_max(MemId.InitialVrf, 0, 5) == 0.0
        assert t.range_max(MemId.InitialVrf, 7, 3) == 0.0

    def test_range_max_over_marks(self):
        t = ReadyTracker()
        t.mark(MemId.MatrixRf, 0, 4, 3.0)
        t.mark(MemId.MatrixRf, 2, 2, 9.0)
        assert t.range_max(MemId.MatrixRf, 0, 1) == 3.0
        assert t.range_max(MemId.MatrixRf, 0, 4) == 9.0
        assert t.range_max(MemId.MatrixRf, 3, 1) == 9.0

    def test_growth_preserves_times(self):
        t = ReadyTracker()
        t.mark(MemId.InitialVrf, 0, 1, 2.5)
        t.mark(MemId.InitialVrf, 500, 8, 7.5)  # forces a regrow
        assert t.range_max(MemId.InitialVrf, 0, 1) == 2.5
        assert t.range_max(MemId.InitialVrf, 500, 8) == 7.5
        assert t.range_max(MemId.InitialVrf, 0, 508) == 7.5

    def test_clipped_range_beyond_array(self):
        t = ReadyTracker()
        t.mark(MemId.InitialVrf, 0, 2, 4.0)
        # Range extends past the backing array; clip, don't fault.
        assert t.range_max(MemId.InitialVrf, 1, 10_000) == 4.0
        assert t.range_max(MemId.InitialVrf, 10_000, 4) == 0.0


@pytest.mark.parametrize("compiled", [False, True],
                         ids=["interpreted", "compiled"])
def test_packed_mv_mul_zero_dot_is_positive_zero(compiled):
    """A packed lane whose top-slot dot is 0 and whose lower slots are
    negative rounds slot 0 to -0.0; the reference's integer dot gives
    +0.0, and so must both engines (``array_equal`` cannot tell)."""
    cfg = NpuConfig(name="signed_zero", native_dim=128, lanes=4,
                    tile_engines=2, mrf_size=8, mantissa_bits=2)
    n = cfg.native_dim
    W = -np.ones((n, n), dtype=np.float32)
    W[0, :n // 2] = 1.0
    b = ProgramBuilder("mvm")
    b.v_rd(MemId.InitialVrf, 0)
    b.mv_mul(0)
    b.v_wr(MemId.NetQ)
    program = b.build()
    sim = FunctionalSimulator(cfg)
    assert sim._pack_slots >= 3
    sim.load_matrix(0, W)
    sim.load_vector(MemId.InitialVrf, 0, np.ones(n, dtype=np.float32))
    ref = _reference_of(sim)
    sim.run(program, compiled=compiled)
    ref.run(program)
    got = sim.pop_outputs_flat()
    want = np.concatenate(ref.snapshot()["outputs"])
    assert np.array_equal(got, want)
    assert got[0] == 0.0
    assert np.array_equal(np.signbit(got), np.signbit(want))
