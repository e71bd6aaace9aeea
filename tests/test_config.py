"""Tests for NpuConfig: validation, derived quantities, standard
instances."""

import dataclasses

import pytest

from repro.config import (
    BW_A10,
    BW_CNN_A10,
    BW_S5,
    BW_S10,
    STANDARD_CONFIGS,
    NpuConfig,
)
from repro.errors import ConfigError


def make(**overrides):
    base = dict(name="c", tile_engines=2, lanes=4, native_dim=8,
                mrf_size=16)
    base.update(overrides)
    return NpuConfig(**base)


class TestValidation:
    def test_valid_config_builds(self):
        assert make().name == "c"

    @pytest.mark.parametrize("field", ["tile_engines", "lanes",
                                       "native_dim", "mrf_size", "mfus"])
    def test_nonpositive_rejected(self, field):
        with pytest.raises(ConfigError):
            make(**{field: 0})

    def test_lanes_must_divide_native_dim(self):
        with pytest.raises(ConfigError):
            make(native_dim=10, lanes=4)

    def test_mantissa_bits_range(self):
        with pytest.raises(ConfigError):
            make(mantissa_bits=11)
        assert make(mantissa_bits=0).mantissa_bits == 0

    def test_exponent_bits_range(self):
        with pytest.raises(ConfigError):
            make(exponent_bits=1)
        with pytest.raises(ConfigError):
            make(exponent_bits=9)

    def test_clock_must_be_positive(self):
        with pytest.raises(ConfigError):
            make(clock_mhz=0)

    def test_bfp_block_size_must_divide_native_dim(self):
        with pytest.raises(ConfigError):
            make(bfp_block_size=3)
        with pytest.raises(ConfigError):
            make(bfp_block_size=-4)
        assert make(bfp_block_size=4).effective_block_size == 4
        assert make(bfp_block_size=0).effective_block_size == 8

    def test_scale_granularity_and_encoding_validated(self):
        with pytest.raises(ConfigError):
            make(scale_granularity="row")
        with pytest.raises(ConfigError):
            make(scale_encoding="fp8")
        with pytest.raises(ConfigError):
            make(scale_encoding="e8m0", exponent_bits=5)
        cfg = make(scale_encoding="e8m0", exponent_bits=8,
                   bfp_block_size=4)
        assert cfg.bfp_format.is_e8m0

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            make().name = "other"


class TestDerived:
    def test_total_macs(self):
        assert make().total_macs == 2 * 8 * 4

    def test_flops_per_cycle_is_twice_macs(self):
        cfg = make()
        assert cfg.flops_per_cycle == 2 * cfg.total_macs

    def test_peak_tflops(self):
        cfg = make(clock_mhz=250.0)
        expected = 2 * cfg.total_macs * 250e6 / 1e12
        assert cfg.peak_tflops == pytest.approx(expected)

    def test_cycles_per_native_row(self):
        assert make(native_dim=8, lanes=4).cycles_per_native_row == 2

    def test_mrf_capacity_elements(self):
        cfg = make()
        assert cfg.mrf_capacity_elements == 16 * 64

    def test_mrf_address_space_exceeds_physical_slots(self):
        cfg = make()
        assert cfg.mrf_address_space > cfg.mrf_size

    def test_weight_bits_exact_mode(self):
        assert make(mantissa_bits=0).weight_bits_per_element == 32.0

    def test_weight_bits_bfp(self):
        cfg = make(mantissa_bits=2, exponent_bits=5)
        assert cfg.weight_bits_per_element == pytest.approx(
            1 + 2 + 5 / 8)

    def test_precision_name(self):
        assert make(mantissa_bits=2).precision_name == "BFP (1s.5e.2m)"
        assert "exact" in make(mantissa_bits=0).precision_name

    def test_precision_name_shows_mx_block(self):
        cfg = make(mantissa_bits=7, exponent_bits=8, bfp_block_size=4,
                   scale_encoding="e8m0")
        assert cfg.precision_name == "BFP (1s.e8m0.7m.b4)"

    def test_bfp_format_single_authority(self):
        cfg = make(mantissa_bits=3, bfp_block_size=4,
                   scale_granularity="tile")
        fmt = cfg.bfp_format
        assert fmt.block_size == 4
        assert fmt.scale_granularity == "tile"
        assert make(mantissa_bits=0).bfp_format is None

    def test_weight_bits_tile_granularity_amortizes_over_row(self):
        cfg = make(mantissa_bits=2, exponent_bits=5, bfp_block_size=4,
                   scale_granularity="tile")
        assert cfg.weight_bits_per_element == pytest.approx(3 + 5 / 8)

    def test_weight_bits_sub_block(self):
        cfg = make(mantissa_bits=2, exponent_bits=5, bfp_block_size=4)
        assert cfg.weight_bits_per_element == pytest.approx(3 + 5 / 4)

    def test_native_tiles_for(self):
        cfg = make(native_dim=8)
        assert cfg.native_tiles_for(8, 8) == 1
        assert cfg.native_tiles_for(9, 8) == 2
        assert cfg.native_tiles_for(17, 17) == 9

    def test_replace(self):
        cfg = make().replace(lanes=8)
        assert cfg.lanes == 8
        assert cfg.native_dim == 8


class TestStandardConfigs:
    """The three Table III instances must match the published
    parameters."""

    def test_bw_s5_macs(self):
        assert BW_S5.total_macs == 6000

    def test_bw_a10_macs(self):
        assert BW_A10.total_macs == 16384

    def test_bw_s10_macs(self):
        """The headline figure: 96,000 MACs on Stratix 10 280."""
        assert BW_S10.total_macs == 96000

    @pytest.mark.parametrize("config,expected", [
        (BW_S5, 2.4), (BW_A10, 9.8), (BW_S10, 48.0)])
    def test_peak_tflops_match_table3(self, config, expected):
        assert config.peak_tflops == pytest.approx(expected, rel=0.02)

    def test_bw_s10_parameters(self):
        assert BW_S10.tile_engines == 6
        assert BW_S10.lanes == 40
        assert BW_S10.native_dim == 400
        assert BW_S10.mrf_size == 306
        assert BW_S10.mfus == 2
        assert BW_S10.clock_mhz == 250.0

    def test_cnn_variant_uses_5bit_mantissa(self):
        assert BW_CNN_A10.mantissa_bits == 5

    def test_registry_complete(self):
        assert set(STANDARD_CONFIGS) == {"BW_S5", "BW_A10", "BW_S10",
                                         "BW_CNN_A10"}

    def test_bw_s10_mrf_holds_largest_deepbench_gru(self):
        """47.6M GRU-2816 weights must fit the packed MRF capacity."""
        weights = 6 * 2816 * 2816
        assert weights <= BW_S10.mrf_capacity_elements

    def test_bw_s10_mrf_capacity_in_bytes_fits_m20k_budget(self):
        """On-chip weight bytes must be storable in the device's
        M20K capacity (20 MB on Stratix 10 280)."""
        weight_bytes = (BW_S10.mrf_capacity_elements
                        * BW_S10.weight_bits_per_element / 8)
        assert weight_bytes < 20e6
