"""Shared fixtures for the test suite.

Pins one BLAS thread before numpy is first imported: several tests gate
on wall-clock ratios, and a multi-threaded BLAS makes small GEMVs slow
and noisy on small hosts. An explicit setting in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.config import NpuConfig  # noqa: E402


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
