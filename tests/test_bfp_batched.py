"""Property tests for batched BFP quantization (hypothesis).

The vectorized executor relies on two numerics contracts: quantizing a
batch of vectors in one call is element-wise identical to quantizing
each vector alone (blocks are independent), and :func:`decompose`'s
mantissas and exponents rebuild, bit for bit, the values of
:func:`quantize` and of the scalar oracle :func:`quantize_reference`. A
final property drives the whole stack: the vectorized ``mv_mul`` matches
the reference interpreter bit for bit on random windows in both Table IV
formats.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NpuConfig
from repro.functional import FunctionalSimulator
from repro.isa import MemId, ProgramBuilder
from repro.numerics.bfp import (
    MSFP_CNN,
    MSFP_RNN,
    MX_INT4,
    MX_INT8,
    BfpFormat,
    decompose,
    quantize,
    quantize_reference,
    scales_of,
)
from repro.verify import ReferenceInterpreter

formats = st.sampled_from([
    MSFP_RNN, MSFP_CNN, MX_INT8, MX_INT4,
    BfpFormat(mantissa_bits=3, exponent_bits=5, block_size=16),
    BfpFormat(mantissa_bits=2, exponent_bits=5, block_size=16,
              scale_granularity="tile"),
])

finite32 = st.floats(-1e4, 1e4, allow_nan=False, width=32)


def _batch(draw_rows, fmt):
    return np.asarray(draw_rows, dtype=np.float32).reshape(
        len(draw_rows) // fmt.block_size, fmt.block_size)


@given(fmt=formats, data=st.data())
@settings(max_examples=60, deadline=None)
def test_batched_quantize_equals_scalar(fmt, data):
    rows = data.draw(st.integers(1, 4))
    flat = data.draw(st.lists(finite32,
                              min_size=rows * fmt.block_size,
                              max_size=rows * fmt.block_size))
    batch = _batch(flat, fmt)
    batched = quantize(batch, fmt)
    for r in range(batch.shape[0]):
        alone = quantize(batch[r], fmt)
        assert np.array_equal(batched[r], alone)


def _words(x):
    return np.asarray(x, dtype=np.float32).view(np.uint32)


def _rebuilt(mantissas, exponents, fmt):
    """Values from a decomposition: mantissa times its block's step."""
    blocks = mantissas.reshape(exponents.shape + (fmt.block_size,))
    return (blocks * scales_of(exponents, fmt)[..., np.newaxis]).reshape(
        mantissas.shape).astype(np.float32)


@given(fmt=formats, data=st.data())
@settings(max_examples=60, deadline=None)
def test_decompose_rebuilds_quantize_and_oracle_bit_for_bit(fmt, data):
    rows = data.draw(st.integers(1, 4))
    flat = data.draw(st.lists(finite32,
                              min_size=rows * fmt.block_size,
                              max_size=rows * fmt.block_size))
    batch = _batch(flat, fmt)
    d_mant, d_exp = decompose(batch, fmt)
    assert d_mant.dtype == np.float32  # working dtype preserved
    assert np.all(np.abs(d_mant) <= fmt.max_mantissa)
    rebuilt = _rebuilt(d_mant, d_exp, fmt)
    assert np.array_equal(_words(rebuilt), _words(quantize(batch, fmt)))
    assert np.array_equal(_words(rebuilt),
                          _words(quantize_reference(batch, fmt)))


@given(fmt=formats, data=st.data())
@settings(max_examples=40, deadline=None)
def test_quantize_float32_and_float64_inputs_agree(fmt, data):
    flat = data.draw(st.lists(finite32, min_size=fmt.block_size,
                              max_size=fmt.block_size))
    x32 = np.asarray(flat, dtype=np.float32)
    assert np.array_equal(quantize(x32, fmt),
                          quantize(x32.astype(np.float64), fmt))


def test_all_zero_blocks_quantize_to_zero_at_min_exponent():
    fmt = BfpFormat(mantissa_bits=3, exponent_bits=5, block_size=8)
    batch = np.zeros((3, 8), dtype=np.float32)
    batch[1] = 1.0  # one live block between two dead ones
    d_mant, d_exp = decompose(batch, fmt)
    assert d_exp[0] == d_exp[2] == fmt.min_exponent
    assert np.all(d_mant[0] == 0) and np.all(d_mant[2] == 0)
    values = quantize(batch, fmt)
    assert np.array_equal(_words(values), _words(_rebuilt(d_mant, d_exp,
                                                          fmt)))
    assert np.array_equal(_words(values),
                          _words(quantize_reference(batch, fmt)))
    assert np.array_equal(_words(values[0]), np.zeros(8, np.uint32))
    assert np.array_equal(values[1], np.ones(8, dtype=np.float32))


def test_exponent_clamp_edges_batched_equals_scalar():
    """Blocks straddling both exponent clamps quantize identically
    batched and alone (the clamp is per block, not per batch)."""
    fmt = BfpFormat(mantissa_bits=2, exponent_bits=4, block_size=4)
    tiny = np.full(4, 2.0 ** (fmt.min_exponent - 6), dtype=np.float32)
    huge = np.full(4, 2.0 ** (fmt.max_exponent + 6), dtype=np.float32)
    mid = np.asarray([0.5, -1.5, 2.0, 0.0], dtype=np.float32)
    batch = np.stack([tiny, mid, huge])
    batched = quantize(batch, fmt)
    for r, row in enumerate(batch):
        assert np.array_equal(batched[r], quantize(row, fmt))
    _, exps = decompose(batch, fmt)
    assert exps[0] == fmt.min_exponent
    assert exps[2] == fmt.max_exponent


# -- vectorized mv_mul vs. the reference interpreter ----------------------

_CFGS = {
    2: NpuConfig(name="prop_rnn", tile_engines=2, lanes=4, native_dim=128,
                 mrf_size=64, mantissa_bits=2),
    5: NpuConfig(name="prop_cnn", tile_engines=2, lanes=4, native_dim=128,
                 mrf_size=64, mantissa_bits=5),
}


def _mvm_program(rows, cols):
    b = ProgramBuilder("p")
    b.set_rows(rows)
    b.set_columns(cols)
    b.v_rd(MemId.InitialVrf, 0)
    b.mv_mul(0)
    b.v_wr(MemId.InitialVrf, cols)
    return b.build()


@given(mantissa_bits=st.sampled_from([2, 5]),
       rows=st.integers(1, 4), cols=st.integers(1, 4),
       seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_mv_mul_vectorized_matches_reference(mantissa_bits, rows, cols,
                                             seed):
    """Random windows in both published formats: the vectorized path
    (packed GEMV for mb=2, mantissa-GEMV for mb=5 at n=128) returns the
    reference interpreter's result bit for bit."""
    cfg = _CFGS[mantissa_bits]
    n = cfg.native_dim
    rng = np.random.default_rng(seed)
    W = rng.uniform(-4, 4, (rows * n, cols * n)).astype(np.float32)
    x = rng.uniform(-4, 4, cols * n).astype(np.float32)
    program = _mvm_program(rows, cols)

    sim = FunctionalSimulator(cfg)
    sim.load_matrix(0, W)
    sim.load_vector(MemId.InitialVrf, 0, x)
    sim.run(program)
    ref = ReferenceInterpreter(cfg)
    ref.load_mrf_tiles(0, W.reshape(rows, n, cols, n).transpose(0, 2, 1, 3)
                       .reshape(rows * cols, n, n))
    ref.load_vrf(MemId.InitialVrf, x.reshape(cols, n))
    ref.run(program)
    assert np.array_equal(sim.read_vector(MemId.InitialVrf, cols, rows * n),
                          ref.vrfs[MemId.InitialVrf][cols:cols + rows]
                          .reshape(-1))
