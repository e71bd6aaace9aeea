"""Property-based tests on core invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.lowering import compile_rnn_shape
from repro.config import NpuConfig
from repro.errors import ChainError
from repro.functional import FunctionalSimulator
from repro.isa import (
    InstructionChain,
    MemId,
    ProgramBuilder,
    mv_mul,
    v_rd,
    v_relu,
    v_sigm,
    v_tanh,
    v_wr,
    vv_add,
    vv_max,
    vv_mul,
)
from repro.timing import LatencyModel, TimingSimulator

CFG = NpuConfig(name="prop", tile_engines=2, lanes=4, native_dim=8,
                mrf_size=64, initial_vrf_depth=64, addsub_vrf_depth=64,
                multiply_vrf_depth=64, mantissa_bits=0)


# -- functional executor linearity ----------------------------------------

vectors8 = st.lists(st.floats(-4, 4, allow_nan=False, width=32),
                    min_size=8, max_size=8)


def _mv_mul_out(sim, x):
    sim.load_vector(MemId.InitialVrf, 0, np.asarray(x, np.float32))
    b = ProgramBuilder("p")
    b.v_rd(MemId.InitialVrf, 0)
    b.mv_mul(0)
    b.v_wr(MemId.InitialVrf, 1)
    sim.run(b.build())
    return sim.read_vector(MemId.InitialVrf, 1, 8)


@given(vectors8, vectors8)
@settings(max_examples=40, deadline=None)
def test_mv_mul_is_linear_in_exact_mode(x, y):
    rng = np.random.default_rng(0)
    W = rng.uniform(-1, 1, (8, 8)).astype(np.float32)
    sim = FunctionalSimulator(CFG, exact=True)
    sim.load_matrix(0, W)
    fx = _mv_mul_out(sim, x)
    fy = _mv_mul_out(sim, y)
    fxy = _mv_mul_out(sim, np.asarray(x) + np.asarray(y))
    assert np.allclose(fxy, fx + fy, atol=1e-3)


@given(vectors8)
@settings(max_examples=40, deadline=None)
def test_activation_outputs_bounded(x):
    sim = FunctionalSimulator(CFG, exact=True)
    sim.load_vector(MemId.InitialVrf, 0, np.asarray(x, np.float32))
    b = ProgramBuilder("p")
    b.v_rd(MemId.InitialVrf, 0)
    b.v_sigm()
    b.v_wr(MemId.InitialVrf, 1)
    b.v_rd(MemId.InitialVrf, 0)
    b.v_tanh()
    b.v_wr(MemId.InitialVrf, 2)
    b.v_rd(MemId.InitialVrf, 0)
    b.v_relu()
    b.v_wr(MemId.InitialVrf, 3)
    sim.run(b.build())
    sigm = sim.read_vector(MemId.InitialVrf, 1, 8)
    tanh = sim.read_vector(MemId.InitialVrf, 2, 8)
    relu = sim.read_vector(MemId.InitialVrf, 3, 8)
    assert np.all((sigm >= 0) & (sigm <= 1))
    assert np.all((tanh >= -1) & (tanh <= 1))
    assert np.all(relu >= 0)


# -- chain validation fuzz --------------------------------------------------

def random_body():
    ops = st.sampled_from([
        mv_mul(0), vv_add(0), vv_mul(0), vv_max(1), v_relu(), v_sigm(),
        v_tanh(), v_rd(MemId.NetQ), v_wr(MemId.InitialVrf, 0),
    ])
    return st.lists(ops, max_size=6)


@given(random_body())
@settings(max_examples=150)
def test_chain_validation_never_crashes(body):
    """Arbitrary instruction bodies either build a valid chain or raise
    ChainError — never anything else."""
    instrs = [v_rd(MemId.InitialVrf, 0)] + body + \
        [v_wr(MemId.InitialVrf, 1)]
    try:
        chain = InstructionChain(instrs)
    except ChainError:
        return
    assert chain.writes


# -- timing model invariants -------------------------------------------------

@given(st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_mvm_issue_monotone_in_tiles(rows, cols):
    model = LatencyModel(CFG)
    base = model.mvm_issue_cycles(rows, cols)
    assert model.mvm_issue_cycles(rows + 1, cols) >= base
    assert model.mvm_issue_cycles(rows, cols + 1) >= base


@given(st.integers(1, 40))
@settings(max_examples=20, deadline=None)
def test_timing_total_monotone_in_steps(steps):
    compiled = compile_rnn_shape("gru", 24, CFG.replace(native_dim=16,
                                                        lanes=4,
                                                        mrf_size=256))
    sim = TimingSimulator(compiled.config)
    a = sim.run(compiled.program, bindings={"steps": steps}).total_cycles
    b = TimingSimulator(compiled.config).run(
        compiled.program, bindings={"steps": steps + 1}).total_cycles
    assert b > a


@given(st.sampled_from([1, 2, 3, 6]), st.sampled_from([1, 2, 4]))
@settings(max_examples=20, deadline=None)
def test_more_hardware_never_slower(tiles, lanes_factor):
    """Scaling tile engines or lanes never increases steady-state
    latency (the timing model is monotone in resources)."""
    base_cfg = NpuConfig(name="m", tile_engines=tiles,
                         lanes=4 * lanes_factor, native_dim=16,
                         mrf_size=256, mantissa_bits=0)
    compiled = compile_rnn_shape("gru", 48, base_cfg)
    small = TimingSimulator(base_cfg).run(
        compiled.program, bindings={"steps": 10}).total_cycles
    big_cfg = base_cfg.replace(tile_engines=tiles * 2)
    compiled_big = compile_rnn_shape("gru", 48, big_cfg)
    big = TimingSimulator(big_cfg).run(
        compiled_big.program, bindings={"steps": 10}).total_cycles
    assert big <= small + 1e-6


# -- lowering correctness over random shapes --------------------------------

@given(st.integers(4, 40), st.integers(4, 40), st.integers(1, 4))
@settings(max_examples=15, deadline=None)
def test_lstm_lowering_correct_for_random_shapes(hidden, inp, steps):
    from repro.compiler import compile_lstm
    from repro.models import LstmReference
    cfg = NpuConfig(name="f", tile_engines=2, lanes=4, native_dim=16,
                    mrf_size=256, initial_vrf_depth=128,
                    addsub_vrf_depth=128, multiply_vrf_depth=128,
                    mantissa_bits=0)
    model = LstmReference(hidden, inp, seed=hidden * 41 + inp)
    compiled = compile_lstm(model, cfg)
    rng = np.random.default_rng(steps)
    xs = [rng.uniform(-1, 1, inp).astype(np.float32)
          for _ in range(steps)]
    got = compiled.run_sequence(xs, exact=True)
    want = model.run(xs)
    assert np.allclose(got[-1], want[-1], atol=1e-4)


@given(st.integers(4, 40), st.integers(1, 4))
@settings(max_examples=15, deadline=None)
def test_gru_lowering_correct_for_random_shapes(hidden, steps):
    from repro.compiler import compile_gru
    from repro.models import GruReference
    cfg = NpuConfig(name="f", tile_engines=2, lanes=4, native_dim=16,
                    mrf_size=256, initial_vrf_depth=128,
                    addsub_vrf_depth=128, multiply_vrf_depth=128,
                    mantissa_bits=0)
    model = GruReference(hidden, hidden, seed=hidden * 13)
    compiled = compile_gru(model, cfg)
    rng = np.random.default_rng(steps)
    xs = [rng.uniform(-1, 1, hidden).astype(np.float32)
          for _ in range(steps)]
    got = compiled.run_sequence(xs, exact=True)
    want = model.run(xs)
    assert np.allclose(got[-1], want[-1], atol=1e-4)
