"""Tests for the FPGA device library, resource model, and specializer."""

import pytest

from repro.config import BW_A10, BW_S5, BW_S10
from repro.errors import SynthesisError
from repro.synthesis import (
    ARRIA_10_1150,
    DEVICES,
    STRATIX_10_280,
    STRATIX_V_D5,
    ModelRequirements,
    best_config,
    device_by_name,
    estimate,
    exponent_groups_per_row,
    mrf_m20ks,
    rnn_requirements,
    specialize,
    weight_storage_bits,
)


class TestDevices:
    def test_catalogue(self):
        assert set(DEVICES) == {"Stratix V D5", "Arria 10 1150",
                                "Stratix 10 280"}

    def test_lookup(self):
        assert device_by_name("Stratix 10 280") is STRATIX_10_280
        with pytest.raises(KeyError):
            device_by_name("Virtex")

    def test_m20k_geometry(self):
        assert STRATIX_10_280.m20k_depth == 512

    def test_generational_scaling(self):
        assert STRATIX_V_D5.alms < ARRIA_10_1150.alms < \
            STRATIX_10_280.alms


class TestResourceModel:
    """The calibrated model reproduces Table III essentially exactly."""

    PAPER = {
        "BW_S5": (149641, 1192, 1047),
        "BW_A10": (216602, 2171, 1518),
        "BW_S10": (845719, 8192, 5245),
    }

    @pytest.mark.parametrize("config", [BW_S5, BW_A10, BW_S10],
                             ids=lambda c: c.name)
    def test_matches_table3_within_1pct(self, config):
        est = estimate(config)
        alms, m20ks, dsps = self.PAPER[config.name]
        assert est.alms == pytest.approx(alms, rel=0.01)
        assert est.m20ks == pytest.approx(m20ks, rel=0.01)
        assert est.dsps == pytest.approx(dsps, rel=0.01)

    @pytest.mark.parametrize("config", [BW_S5, BW_A10, BW_S10],
                             ids=lambda c: c.name)
    def test_all_instances_fit_their_devices(self, config):
        assert estimate(config).fits

    def test_limiting_resources(self):
        assert estimate(BW_A10).limiting_resource == "DSPs"
        assert estimate(BW_S5).limiting_resource == "ALMs"

    def test_scaling_up_tiles_eventually_overflows(self):
        big = BW_S10.replace(tile_engines=24)
        assert not estimate(big).fits

    def test_mrf_m20ks_structural_scaling(self):
        """Doubling lanes (wider banks) needs more width slices."""
        base = mrf_m20ks(BW_S10, STRATIX_10_280)
        wide = mrf_m20ks(BW_S10.replace(lanes=80), STRATIX_10_280)
        assert wide > base

    def test_weight_storage_bits(self):
        assert weight_storage_bits(BW_S10) == 3  # 1 sign + 2 mantissa
        assert weight_storage_bits(BW_S10.replace(mantissa_bits=5)) == 6

    def test_unknown_family_rejected(self):
        from repro.synthesis.devices import FpgaDevice
        dev = FpgaDevice(name="x", family="unknown", alms=1, m20ks=1,
                         dsps=1, clock_mhz=100)
        with pytest.raises(SynthesisError):
            estimate(BW_S10, dev)

    def test_summary_renders(self):
        assert "BW_S10" in estimate(BW_S10).summary()

    def test_exponent_groups_per_row(self):
        # Paper scheme (whole-row block) and per-tile granularity keep
        # the exponent in the fitted side structure.
        assert exponent_groups_per_row(BW_S10) == 1
        assert exponent_groups_per_row(
            BW_S10.replace(bfp_block_size=100,
                           scale_granularity="tile")) == 1
        assert exponent_groups_per_row(
            BW_S10.replace(mantissa_bits=0)) == 1
        # Microscaling sub-row blocks multiply it.
        assert exponent_groups_per_row(
            BW_A10.replace(bfp_block_size=32, exponent_bits=8,
                           mantissa_bits=7,
                           scale_encoding="e8m0")) == 4

    def test_sub_block_exponents_deepen_mrf_banks(self):
        """Sub-row scale blocks store extra exponents in the MRF banks;
        the native-row scheme is the unchanged Table III baseline."""
        wide = BW_A10.replace(exponent_bits=8, mantissa_bits=7)
        base = mrf_m20ks(wide, ARRIA_10_1150)
        mx = wide.replace(bfp_block_size=8, scale_encoding="e8m0")
        assert mrf_m20ks(mx, ARRIA_10_1150) > base
        tile = BW_A10.replace(bfp_block_size=16,
                              scale_granularity="tile")
        assert mrf_m20ks(tile, ARRIA_10_1150) == \
            mrf_m20ks(BW_A10, ARRIA_10_1150)


class TestSpecializer:
    def test_requirements_padding_efficiency(self):
        req = rnn_requirements("lstm", 2000)
        # 2000 pads to 5x5 tiles of 400: efficiency (2000/2000)^2 = 1.
        assert req.padding_efficiency(400) == pytest.approx(1.0)
        assert req.padding_efficiency(384) < 1.0

    def test_requirements_total_weights(self):
        assert rnn_requirements("gru", 100).total_weights == 6 * 100 * 100
        assert rnn_requirements("lstm", 100).total_weights == \
            8 * 100 * 100

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            rnn_requirements("cnn", 100)

    def test_best_config_fits_device(self):
        req = rnn_requirements("gru", 1536)
        cand = best_config(req, STRATIX_10_280)
        assert cand.resources.fits
        assert cand.config.mrf_capacity_elements >= req.total_weights

    def test_candidates_sorted_by_effective_tflops(self):
        req = rnn_requirements("lstm", 1024)
        cands = specialize(req, ARRIA_10_1150)
        effs = [c.effective_tflops for c in cands]
        assert effs == sorted(effs, reverse=True)

    def test_bigger_device_gives_faster_instance(self):
        req = rnn_requirements("gru", 512)
        s5 = best_config(req, STRATIX_V_D5)
        s10 = best_config(req, STRATIX_10_280)
        assert s10.effective_tflops > 2 * s5.effective_tflops

    def test_large_model_does_not_fit_stratix_v(self):
        """GRU-1536 weights (14.2M elements) exceed what a Stratix V
        D5's block RAM can pin — the multi-FPGA motivation."""
        req = rnn_requirements("gru", 1536)
        with pytest.raises(SynthesisError):
            specialize(req, STRATIX_V_D5)

    def test_alignment_preference(self):
        """For a 512-dim model, specialization prefers a native dim
        that divides 512 over one that wastes padding (Section VI)."""
        req = rnn_requirements("lstm", 512)
        cands = specialize(req, STRATIX_10_280,
                           native_dims=(256, 320))
        best = cands[0].config.native_dim
        assert best == 256

    def test_no_feasible_instance_raises(self):
        req = ModelRequirements("huge", ((10 ** 5, 10 ** 5),) * 8)
        with pytest.raises(SynthesisError):
            specialize(req, STRATIX_V_D5)

    def test_mrf_sized_to_model(self):
        req = rnn_requirements("gru", 2816)
        cand = best_config(req, STRATIX_10_280)
        needed = req.total_weights
        assert cand.config.mrf_capacity_elements >= needed
        # ... with less than 4x slack (no wild overprovisioning).
        assert cand.config.mrf_capacity_elements < 4 * needed

    def test_specialize_with_pinned_format(self):
        from repro.numerics import MX_INT8
        req = rnn_requirements("gru", 1024)
        cands = specialize(req, STRATIX_10_280, fmt=MX_INT8)
        # The pinned format round-trips through the config exactly, and
        # every candidate's native dim is a multiple of the MX block.
        assert cands[0].config.bfp_format == MX_INT8
        assert all(c.config.native_dim % 32 == 0 for c in cands)
