"""Property tests for the configurable BFP / Microscaling format family.

The format family generalizes the paper's whole-row MSFP scheme with
sub-row scale blocks, E8M0 power-of-two scales, and per-tile
granularity. These properties pin the contracts every member must
satisfy against :func:`repro.numerics.bfp.quantize_reference` — the
pure-python scalar oracle the conformance fuzzer trusts:

* batched :func:`quantize` is bit-identical to the oracle;
* quantization commutes with power-of-two scaling (until the shared
  exponent clamps);
* clamp/overflow/zero-block edges behave identically in both paths;
* ``decompose`` + ``scales_of`` reconstructs exactly what ``quantize``
  returns (the executor's operand split loses nothing).
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.numerics.bfp import (
    FORMAT_FAMILY,
    MSFP_RNN_TILE,
    MX_INT4,
    MX_INT8,
    BfpFormat,
    code_dtypes,
    decompose,
    encode,
    quantize,
    quantize_reference,
    scales_of,
)
from repro.verify import FUZZ_CONFIGS

#: Family members plus adversarial extras: tiny blocks, narrow
#: exponents, and a sub-block tile-granularity member.
FAMILY = st.sampled_from(
    list(FORMAT_FAMILY.values()) + [
        BfpFormat(mantissa_bits=2, exponent_bits=4, block_size=4),
        BfpFormat(mantissa_bits=4, exponent_bits=8, block_size=8,
                  scale_encoding="e8m0"),
        BfpFormat(mantissa_bits=3, exponent_bits=5, block_size=4,
                  scale_granularity="tile"),
        BfpFormat(mantissa_bits=1, exponent_bits=2, block_size=1),
    ])

finite32 = st.floats(-1e6, 1e6, allow_nan=False, width=32)


def _rows(data, fmt, max_rows=3, max_blocks=3):
    """Draw a (rows, k * block_size) float32 array for the format."""
    rows = data.draw(st.integers(1, max_rows))
    blocks = data.draw(st.integers(1, max_blocks))
    width = blocks * fmt.block_size
    flat = data.draw(st.lists(finite32, min_size=rows * width,
                              max_size=rows * width))
    return np.asarray(flat, dtype=np.float32).reshape(rows, width)


@given(fmt=FAMILY, data=st.data())
@settings(max_examples=80, deadline=None)
def test_quantize_matches_oracle(fmt, data):
    """The vectorized quantizer is bit-identical to the scalar oracle
    on every family member (the fuzzer's ground-truth contract)."""
    x = _rows(data, fmt)
    assert np.array_equal(quantize(x, fmt), quantize_reference(x, fmt))


@given(fmt=FAMILY, data=st.data(), shift=st.integers(-8, 8))
@settings(max_examples=60, deadline=None)
def test_scale_covariance_power_of_two(fmt, data, shift):
    """Quantization commutes with power-of-two scaling while the shared
    exponent stays inside the clamp range: Q(x * 2^s) == Q(x) * 2^s."""
    x = _rows(data, fmt, max_rows=2, max_blocks=2)
    _, exps = decompose(x, fmt)
    # Keep every block's exponent strictly inside the representable
    # range both before and after the shift, so neither quantization
    # engages the clamp (a clamped exponent breaks the commutation).
    inside = ((exps > fmt.min_exponent) & (exps < fmt.max_exponent)
              & (exps + shift > fmt.min_exponent)
              & (exps + shift < fmt.max_exponent))
    assume(bool(np.all(inside)))
    scaled = np.ldexp(x.astype(np.float64), shift)
    lhs = quantize(scaled, fmt).astype(np.float64)
    rhs = np.ldexp(quantize(x, fmt).astype(np.float64), shift)
    assert np.array_equal(lhs, rhs)


@given(fmt=FAMILY, data=st.data())
@settings(max_examples=60, deadline=None)
def test_decompose_scales_reconstruction(fmt, data):
    """mantissas * scales_of(exponents) rebuilds quantize() exactly —
    the identity the executor's operand decomposition relies on."""
    x = _rows(data, fmt, max_rows=2)
    mant, exps = decompose(x, fmt)
    scale = scales_of(exps, fmt)
    nb = x.shape[-1] // fmt.block_size
    rebuilt = (mant.astype(np.float64)
               .reshape(x.shape[0], nb, fmt.block_size)
               * scale[..., np.newaxis]).reshape(x.shape)
    assert np.array_equal(rebuilt.astype(np.float32), quantize(x, fmt))


@given(fmt=FAMILY)
@settings(max_examples=30, deadline=None)
def test_zero_blocks_use_min_exponent(fmt):
    x = np.zeros((2, 2 * fmt.block_size), dtype=np.float32)
    mant, exps = decompose(x, fmt)
    assert np.all(exps == fmt.min_exponent)
    assert np.all(mant == 0)
    assert np.array_equal(quantize_reference(x, fmt), x)


@given(fmt=FAMILY)
@settings(max_examples=30, deadline=None)
def test_overflow_clamps_to_max_exponent_and_mantissa(fmt):
    """Values beyond the representable range clamp the shared exponent
    and saturate the mantissa, identically in both implementations."""
    huge = math_ldexp_array(fmt.max_exponent + 10, (fmt.block_size,))
    q = quantize(huge, fmt)
    ref = quantize_reference(huge, fmt)
    assert np.array_equal(q, ref)
    _, exps = decompose(huge, fmt)
    assert np.all(exps == fmt.max_exponent)
    top = np.float32(fmt.max_mantissa
                     * 2.0 ** (fmt.max_exponent - fmt.mantissa_bits + 1))
    assert np.all(q == top)


def math_ldexp_array(exponent, shape):
    return np.full(shape, np.ldexp(np.float64(1.0), exponent),
                   dtype=np.float64)


@given(fmt=FAMILY)
@settings(max_examples=30, deadline=None)
def test_underflow_clamps_to_min_exponent(fmt):
    tiny = math_ldexp_array(fmt.min_exponent - 20, (fmt.block_size,))
    assert np.array_equal(quantize(tiny, fmt),
                          quantize_reference(tiny, fmt))
    _, exps = decompose(tiny, fmt)
    assert np.all(exps == fmt.min_exponent)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_tile_granularity_shares_one_exponent_per_row(data):
    fmt = BfpFormat(mantissa_bits=3, exponent_bits=6, block_size=4,
                    scale_granularity="tile")
    x = _rows(data, fmt, max_rows=3, max_blocks=3)
    _, exps = decompose(x, fmt)
    # Every block of a row carries the row-wide exponent.
    assert np.all(exps == exps[:, :1])
    assert np.array_equal(quantize(x, fmt), quantize_reference(x, fmt))


@pytest.mark.parametrize("name", sorted(
    name for name, cfg in FUZZ_CONFIGS.items() if cfg.bfp_format))
def test_oracle_matches_quantize_on_non_finite_blocks(name):
    """Regression: the oracle raised on ±inf (``OverflowError``) and NaN
    (``ValueError``) where :func:`quantize` returns values, which
    aborted ``formats`` fuzz campaigns. Blocks holding ±inf or NaN now
    quantize bit for bit alike (the rule is in docs/NUMERICS.md)."""
    cfg = FUZZ_CONFIGS[name]
    fmt, n = cfg.bfp_format, cfg.native_dim
    rng = np.random.default_rng(0)
    x = (rng.standard_normal((8, n)) * 4).astype(np.float32)
    x[0, 0] = np.inf
    x[1, n - 1] = -np.inf
    x[2, 1] = np.nan
    x[3, :2] = (np.nan, np.inf)
    x[4, :2] = (np.inf, np.nan)
    x[5] = np.nan
    x[6, 0], x[6, 1:] = np.inf, -x[6, 1:] ** 2 * 1e-3  # rounds to -0.0
    x[7, 0], x[7, 1:] = np.inf, 1.0
    with np.errstate(over="ignore"):  # NaN blocks: min exponent
        q = quantize(x, fmt)
    ref = quantize_reference(x, fmt)
    assert np.array_equal(np.isnan(q), np.isnan(ref))
    finite = ~np.isnan(q)
    assert np.array_equal(q.view(np.uint32)[finite],
                          ref.view(np.uint32)[finite])
    # An infinite block maximum takes frexp(inf)'s exponent, -1.
    step = 2.0 ** (-1 - fmt.mantissa_bits + 1)
    assert ref[7, 1] == min(1.0 / step, fmt.max_mantissa) * step


@pytest.mark.parametrize("name", sorted(FORMAT_FAMILY))
def test_nan_block_encodes_to_saturation_without_warnings(name):
    """A block holding a NaN takes the minimum exponent, so its finite
    values saturate to the largest mantissa and the NaN takes the
    all-ones code, each keeping its sign (docs/NUMERICS.md). Regression:
    on the way the divide overflowed where the format's smallest step
    is tiny (the ``mx_int*`` members), and numpy warned."""
    fmt = FORMAT_FAMILY[name]
    rng = np.random.default_rng(3)
    x = (rng.uniform(0.25, 2.0, (2, 128))
         * rng.choice([-1.0, 1.0], (2, 128))).astype(np.float32)
    x[0, ::fmt.block_size] = np.nan       # a NaN in every block of row 0
    x[0, 0] = -np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes, exponents = encode(x, fmt)
        clean_codes, clean_exponents = encode(x[1:], fmt)
    sign_bit = 8 * code_dtypes(fmt)[0].itemsize - 1
    magnitude = np.where(np.isnan(x[0]), (1 << sign_bit) - 1,
                         fmt.max_mantissa)
    want = magnitude | (np.signbit(x[0]).astype(int) << sign_bit)
    assert np.array_equal(codes[0], want)
    assert not exponents[0].any()         # the biased minimum exponent
    assert np.array_equal(codes[1:], clean_codes)
    assert np.array_equal(exponents[1:], clean_exponents)


def test_e8m0_loses_top_exponent():
    """The all-ones E8M0 code is NaN, so exponent 128 is unreachable:
    an e8m0 format clamps one step below its shared-encoding twin."""
    shared = BfpFormat(mantissa_bits=7, exponent_bits=8, block_size=32)
    assert MX_INT8.max_exponent == 127
    assert shared.max_exponent == 128
    assert MX_INT8.min_exponent == shared.min_exponent == -127
    huge = math_ldexp_array(200, (32,))
    _, exps = decompose(huge, MX_INT8)
    assert np.all(exps == 127)
    _, exps = decompose(huge, shared)
    assert np.all(exps == 128)


def test_family_members_are_distinct_and_labelled():
    labels = {fmt.name for fmt in FORMAT_FAMILY.values()}
    assert len(labels) == len(FORMAT_FAMILY)
    assert MX_INT4.name == "1s.e8m0.3m.b32"
    assert MSFP_RNN_TILE.name == "1s.5e.2m.tile"


@pytest.mark.parametrize("fmt", FORMAT_FAMILY.values(),
                         ids=list(FORMAT_FAMILY))
def test_quantize_is_idempotent(fmt):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 2 * fmt.block_size)).astype(np.float32)
    q = quantize(x, fmt)
    assert np.array_equal(quantize(q, fmt), q)
