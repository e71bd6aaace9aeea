"""The float16 rounding kernel against numpy's cast.

``round_float16`` rounds float32 arrays to float16 values by a magic
add (``|x| + C - C``, then the sign) instead of numpy's
float32 -> float16 -> float32 round trip. The oracle here is the
conformance reference's own cast (``verify.reference._f16``), which
shares no code with the kernel. Comparisons are on bit patterns, so
the sign of zero and NaN payloads count.
"""

import numpy as np
import pytest

from repro.numerics import bfp
from repro.numerics.bfp import F16_KERNEL_MIN_SIZE, round_float16
from repro.verify.reference import _f16

#: float32 bits of 65520, from where float16 rounds to inf.
OVERFLOW_BITS = 0x477FF000


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float32).view(np.uint32)


def _check(bits):
    """Round the float32 patterns ``bits`` both ways; the patterns below
    65520 in magnitude go through the kernel whatever their count."""
    bits = np.asarray(bits, dtype=np.uint32)
    x = bits.view(np.float32)
    want = _bits(_f16(x))
    small = (bits & 0x7FFFFFFF) < OVERFLOW_BITS
    kernel = x[small].copy()
    bfp._magic_round(kernel)
    assert np.array_equal(_bits(kernel), want[small])
    rest = x.copy()
    got = round_float16(rest)
    assert np.array_equal(_bits(got), want)


@pytest.mark.tier1
def test_every_tie_rounds_half_to_even():
    """Every float32 pattern whose low 13 bits are 0x1000 (a tie
    between two float16 neighbours for a normal float16), for every
    sign and exponent."""
    sign_exp = np.arange(512, dtype=np.uint32) << 23
    high = np.arange(1024, dtype=np.uint32) << 13
    bits = (sign_exp[:, None] | high[None, :] | 0x1000).ravel()
    _check(bits)


@pytest.mark.tier1
def test_subnormal_boundary():
    """The float16 subnormal range and its edges: 2^-25 (half the
    smallest subnormal, a tie to zero), 2^-24, 2^-14 (the smallest
    normal) and their neighbours, plus a strided sweep of every
    float32 between 2^-27 and 2^-13 for both signs."""
    edges = []
    for e in (-26, -25, -24, -15, -14, -13):
        centre = np.float32(2.0 ** e).view(np.uint32)
        edges.extend(range(int(centre) - 3, int(centre) + 4))
    centre = np.float32(3 * 2.0 ** -25).view(np.uint32)  # 1.5 ulp: a tie
    edges.extend(range(int(centre) - 2, int(centre) + 3))
    lo = int(np.float32(2.0 ** -27).view(np.uint32))
    hi = int(np.float32(2.0 ** -13).view(np.uint32))
    sweep = np.arange(lo, hi, 61, dtype=np.uint32)
    bits = np.concatenate([np.array(edges, dtype=np.uint32), sweep])
    _check(np.concatenate([bits, bits | 0x80000000]))


@pytest.mark.tier1
def test_specials_and_the_top_of_the_range():
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 65504.0,
                         -65504.0, 65519.99, -65519.99, 65520.0,
                         -65520.0, 1e30, 6e-8, -6e-8], dtype=np.float32)
    _check(specials.view(np.uint32))
    # A lone special in an array above the size crossover sends the
    # whole array to numpy's cast, which keeps its saturation.
    for special in (np.inf, np.nan, 65520.0, -70000.0):
        x = np.linspace(-3, 3, F16_KERNEL_MIN_SIZE).astype(np.float32)
        x[17] = special
        assert np.array_equal(_bits(round_float16(x.copy())),
                              _bits(_f16(x)))
    assert round_float16(np.float32([65519.99]))[0] == 65504.0


@pytest.mark.tier1
def test_strided_sample_of_all_float32_patterns():
    """Every 4099th float32 bit pattern (about a million)."""
    _check(np.arange(0, 1 << 32, 4099, dtype=np.uint64).astype(np.uint32))


@pytest.mark.tier1
@pytest.mark.parametrize("size", [1, F16_KERNEL_MIN_SIZE - 1,
                                  F16_KERNEL_MIN_SIZE, 3 * 1200, 76_800])
def test_both_sides_of_the_size_crossover(size):
    """Arrays below the crossover take numpy's cast, arrays at or above
    it the kernel (rounded in place); both equal the oracle."""
    rng = np.random.default_rng(size)
    x = (rng.standard_normal(size) * rng.choice([1e-6, 1.0, 300.0], size)
         ).astype(np.float32).reshape(-1, 1)
    want = _bits(_f16(x))
    got = round_float16(x)
    assert np.array_equal(_bits(got), want)
    if size >= F16_KERNEL_MIN_SIZE:
        assert got is x


@pytest.mark.fuzz
def test_every_64th_float32_pattern():
    """The CI fuzz gate: every 64th float32 bit pattern (67M), in
    chunks, against numpy's cast."""
    chunk = 1 << 22
    for start in range(0, 1 << 32, chunk * 64):
        _check(np.arange(start, start + chunk * 64, 64,
                         dtype=np.uint64).astype(np.uint32))
