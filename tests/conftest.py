"""Shared fixtures for the test suite.

The repository's root ``conftest.py`` pins one BLAS thread for this
suite and ``benchmarks/`` alike.
"""

import numpy as np
import pytest

from repro.config import NpuConfig


@pytest.fixture
def tiny_config():
    """A minimal configuration for fast functional tests.

    native_dim=8, 2 tile engines, 4 lanes, exact numerics disabled via
    mantissa_bits=0 unless a test overrides.
    """
    return NpuConfig(name="tiny", tile_engines=2, lanes=4, native_dim=8,
                     mrf_size=64, mfus=2, initial_vrf_depth=64,
                     addsub_vrf_depth=64, multiply_vrf_depth=64,
                     mantissa_bits=0)


@pytest.fixture
def small_config():
    """A mid-size configuration exercising mega-SIMD tiling."""
    return NpuConfig(name="small", tile_engines=2, lanes=4, native_dim=16,
                     mrf_size=256, mfus=2, initial_vrf_depth=128,
                     addsub_vrf_depth=128, multiply_vrf_depth=128,
                     mantissa_bits=0)


@pytest.fixture
def bfp_config():
    """A small configuration with BFP quantization enabled (5-bit
    mantissa keeps errors tight enough for tolerance checks)."""
    return NpuConfig(name="bfp", tile_engines=2, lanes=4, native_dim=16,
                     mrf_size=256, mfus=2, initial_vrf_depth=128,
                     addsub_vrf_depth=128, multiply_vrf_depth=128,
                     mantissa_bits=5)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
