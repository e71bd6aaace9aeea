"""Tests for block floating-point numerics, including hypothesis
properties."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigError
from repro.numerics import (
    MSFP_CNN,
    MSFP_RNN,
    BfpFormat,
    decompose,
    error_stats,
    quantization_stats,
    quantize,
    scales_of,
)


FMT = BfpFormat(mantissa_bits=4, exponent_bits=5, block_size=8)


class TestFormat:
    def test_paper_formats(self):
        assert MSFP_RNN.name == "1s.5e.2m"
        assert MSFP_CNN.name == "1s.5e.5m"

    def test_exponent_range_5bit(self):
        fmt = BfpFormat(2, exponent_bits=5, block_size=8)
        assert fmt.exponent_bias == 15
        assert fmt.min_exponent == -15
        assert fmt.max_exponent == 16

    def test_bits_per_element_amortizes_exponent(self):
        fmt = BfpFormat(2, exponent_bits=5, block_size=128)
        assert fmt.bits_per_element == pytest.approx(3 + 5 / 128)

    def test_invalid_formats_rejected(self):
        with pytest.raises(ConfigError):
            BfpFormat(0)
        with pytest.raises(ConfigError):
            BfpFormat(2, exponent_bits=1)
        with pytest.raises(ConfigError):
            BfpFormat(2, block_size=0)

    def test_format_bounds_rejected(self):
        with pytest.raises(ConfigError, match="mantissa_bits"):
            BfpFormat(13)
        with pytest.raises(ConfigError, match="exponent_bits"):
            BfpFormat(2, exponent_bits=11)
        with pytest.raises(ConfigError, match="block_size"):
            BfpFormat(2, block_size=4097)
        with pytest.raises(ConfigError, match="block_size"):
            BfpFormat(2, block_size=-8)

    def test_bad_granularity_and_encoding_rejected(self):
        with pytest.raises(ConfigError, match="scale_granularity"):
            BfpFormat(2, scale_granularity="row")
        with pytest.raises(ConfigError, match="scale_encoding"):
            BfpFormat(2, scale_encoding="e5m2")

    def test_e8m0_requires_8_exponent_bits(self):
        with pytest.raises(ConfigError, match="e8m0"):
            BfpFormat(2, exponent_bits=5, scale_encoding="e8m0")
        fmt = BfpFormat(2, exponent_bits=8, scale_encoding="e8m0")
        assert fmt.is_e8m0
        assert fmt.max_exponent == 127  # 0xFF is the NaN code
        assert fmt.min_exponent == -127

    def test_named_format_lookup(self):
        from repro.numerics import named_format
        assert named_format("mx_int8").block_size == 32
        with pytest.raises(ConfigError, match="unknown numeric format"):
            named_format("fp8")

    def test_tile_granularity_storage_amortizes_over_row(self):
        fmt = BfpFormat(2, exponent_bits=5, block_size=32,
                        scale_granularity="tile")
        assert fmt.storage_bits_per_element(128) == pytest.approx(
            3 + 5 / 128)
        # Without a row length the amortization falls back to the block.
        assert fmt.bits_per_element == pytest.approx(3 + 5 / 32)

    def test_max_mantissa(self):
        assert BfpFormat(3).max_mantissa == 7


class TestQuantize:
    def test_zero_block_stays_zero(self):
        x = np.zeros(8, dtype=np.float32)
        assert np.all(quantize(x, FMT) == 0)

    def test_values_on_the_quantization_grid_are_exact(self):
        # Block max 4.0 -> exponent 2 -> step 0.5 at 4 mantissa bits;
        # all multiples of 0.5 within +/-7.5 are exactly representable.
        x = np.array([4.0, 2.0, 1.0, 0.5, -4.0, -2.0, -1.0, -0.5],
                     dtype=np.float32)
        assert np.allclose(quantize(x, FMT), x)

    def test_quantization_error_bounded_by_step(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, 64).astype(np.float32)
        q = quantize(x, FMT)
        steps = scales_of(decompose(x, FMT)[1], FMT)
        for b in range(8):
            step = steps[b]
            err = np.abs(q[b * 8:(b + 1) * 8] - x[b * 8:(b + 1) * 8])
            assert np.all(err <= step / 2 + 1e-12)

    def test_block_exponent_is_floor_log2_of_max(self):
        x = np.array([0.1, 0.2, 0.3, 0.4, 5.0, 0.6, 0.7, 0.8])
        assert decompose(x, FMT)[1][0] == 2  # floor(log2 5) = 2

    def test_bad_block_length_rejected(self):
        with pytest.raises(ValueError):
            quantize(np.ones(7), FMT)

    def test_2d_quantization_blocks_along_last_axis(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (4, 16)).astype(np.float32)
        q = quantize(x, FMT)
        assert q.shape == x.shape
        # Each row quantizes independently the same way.
        q_row = quantize(x[2], FMT)
        assert np.array_equal(q[2], q_row)

    def test_mantissas_within_range(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 10, 128).astype(np.float32)
        mantissas, _ = decompose(x, FMT)
        assert np.all(np.abs(mantissas) <= FMT.max_mantissa)

    def test_large_values_clamped_to_exponent_range(self):
        x = np.full(8, 1e30, dtype=np.float32)
        q = quantize(x, FMT)
        assert np.all(np.isfinite(q))


# -- hypothesis properties ------------------------------------------------

finite_blocks = hnp.arrays(
    np.float64, (16,),
    elements=st.floats(-1e4, 1e4, allow_nan=False, width=32))


@given(finite_blocks)
@settings(max_examples=100)
def test_quantization_idempotent(x):
    """Quantizing a quantized array changes nothing."""
    fmt = BfpFormat(mantissa_bits=3, block_size=16)
    once = quantize(x, fmt)
    twice = quantize(once, fmt)
    assert np.array_equal(once, twice)


@given(finite_blocks)
@settings(max_examples=100)
def test_quantization_preserves_sign(x):
    fmt = BfpFormat(mantissa_bits=3, block_size=16)
    q = quantize(x, fmt)
    assert np.all(q * x >= 0)


@given(finite_blocks)
@settings(max_examples=100)
def test_more_mantissa_bits_never_worse(x):
    """Error is monotonically non-increasing in mantissa width."""
    errs = []
    for m in (2, 4, 6):
        fmt = BfpFormat(mantissa_bits=m, block_size=16)
        errs.append(float(np.max(np.abs(quantize(x, fmt) - x))))
    assert errs[0] >= errs[1] >= errs[2]


@given(finite_blocks, st.floats(0.25, 4.0))
@settings(max_examples=60)
def test_quantization_scale_covariant_for_pow2(x, _scale):
    """Scaling inputs by a power of two scales outputs identically.

    Holds only while the shared exponent stays inside the format's
    range: once a block's magnitude falls below ``2^min_exponent`` the
    exponent clamps and the doubled input gains mantissa resolution the
    original never had.
    """
    fmt = BfpFormat(mantissa_bits=3, block_size=16)
    amax = float(np.max(np.abs(x)))
    assume(amax == 0.0 or amax >= 2.0 ** fmt.min_exponent)
    assert np.allclose(quantize(x * 2.0, fmt), 2.0 * quantize(x, fmt),
                       rtol=1e-6, atol=1e-30)


class TestAnalysis:
    def test_error_stats_zero_error(self):
        x = np.ones(16)
        stats = error_stats(x, x)
        assert stats.snr_db == float("inf")
        assert stats.max_abs_error == 0

    def test_error_stats_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_stats(np.ones(4), np.ones(5))

    def test_snr_improves_with_mantissa(self, rng):
        x = rng.normal(0, 1, 1024)
        snrs = [quantization_stats(
            x, BfpFormat(mantissa_bits=m, block_size=128)).snr_db
            for m in (2, 3, 4, 5)]
        assert snrs == sorted(snrs)

    def test_snr_exceeds_analytic_floor(self, rng):
        """SNR should beat a generous analytic floor for Gaussian data —
        the Section VI claim that 2-5 mantissa bits suffice: about
        6.02 dB per mantissa bit, less a few dB for the shared exponent
        (small elements of a block with a large maximum lose precision)
        and a 3 dB margin."""
        x = rng.normal(0, 1, 4096)
        for m in (2, 3, 4, 5):
            fmt = BfpFormat(mantissa_bits=m, block_size=128)
            stats = quantization_stats(x, fmt)
            assert stats.snr_db > 6.02 * m - 6.0 - 3

    def test_matvec_error_small_at_5bits(self, rng):
        matrix = rng.uniform(-1, 1, (128, 128))
        vector = rng.uniform(-1, 1, 128)
        fmt = BfpFormat(mantissa_bits=5, block_size=128)
        approx = (quantize(matrix, fmt).astype(np.float64)
                  @ quantize(vector, fmt).astype(np.float64))
        stats = error_stats(matrix @ vector, approx)
        assert stats.rel_rms_error < 0.05

    def test_str_rendering(self):
        stats = quantization_stats(np.linspace(-1, 1, 128), MSFP_RNN)
        assert "SNR" in str(stats)
