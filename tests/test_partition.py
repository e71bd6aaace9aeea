"""Tests for multi-FPGA partitioning."""

import pytest

from repro.compiler.partition import (
    WeightBlock,
    accelerators_needed,
    capacity_elements,
    partition_blocks,
    rnn_weight_blocks,
)
from repro.config import BW_S10, NpuConfig
from repro.errors import PartitionError


@pytest.fixture
def cfg():
    # Capacity: 64 tiles x 16x16 = 16384 elements.
    return NpuConfig(name="t", tile_engines=2, lanes=4, native_dim=16,
                     mrf_size=64, mantissa_bits=0)


class TestPartitioning:
    def test_small_model_single_accelerator(self, cfg):
        blocks = rnn_weight_blocks("gru", 32)
        parts = partition_blocks(blocks, cfg)
        assert len(parts) == 1
        assert sum(b.elements for b in parts[0].blocks) == 6 * 32 * 32

    def test_stacked_layers_split_across_accelerators(self, cfg):
        # One layer of LSTM-40: 8 * 1600 = 12800 elements; two layers
        # exceed the 16384 capacity, so they split 1+1.
        blocks = rnn_weight_blocks("lstm", 40, layers=2)
        parts = partition_blocks(blocks, cfg)
        assert len(parts) == 2
        assert {b.stage for b in parts[0].blocks} == {0}
        assert {b.stage for b in parts[1].blocks} == {1}

    def test_stage_atomicity(self, cfg):
        """Blocks of one stage never split across accelerators."""
        blocks = rnn_weight_blocks("gru", 40, layers=3)
        parts = partition_blocks(blocks, cfg)
        seen = {}
        for part in parts:
            for block in part.blocks:
                assert seen.setdefault(block.stage,
                                       part.accelerator) \
                    == part.accelerator

    def test_oversized_stage_rejected(self, cfg):
        blocks = [WeightBlock("big", 200, 200, stage=0)]
        with pytest.raises(PartitionError, match="stage 0"):
            partition_blocks(blocks, cfg)

    def test_accelerator_limit(self, cfg):
        blocks = rnn_weight_blocks("lstm", 40, layers=4)
        with pytest.raises(PartitionError):
            partition_blocks(blocks, cfg, max_accelerators=2)

    def test_accelerators_needed(self, cfg):
        assert accelerators_needed(rnn_weight_blocks("gru", 32), cfg) == 1
        assert accelerators_needed(
            rnn_weight_blocks("lstm", 40, layers=3), cfg) == 3

    def test_capacity_matches_config(self, cfg):
        assert capacity_elements(cfg) == cfg.mrf_capacity_elements

    def test_bw_s10_scale_partitioning(self):
        """Production scale: one 2048-dim LSTM layer (33.5M weights)
        fits a Stratix 10; a three-layer stack needs three."""
        assert accelerators_needed(
            rnn_weight_blocks("lstm", 2048, layers=1), BW_S10) == 1
        assert accelerators_needed(
            rnn_weight_blocks("lstm", 2048, layers=3), BW_S10) == 3

    def test_oversized_single_layer_rejected_at_scale(self):
        """A 4096-dim LSTM layer (134M weights) exceeds one BW_S10's
        packed MRF and must be split below the layer level."""
        with pytest.raises(PartitionError):
            partition_blocks(rnn_weight_blocks("lstm", 4096), BW_S10)

    def test_unknown_kind(self):
        with pytest.raises(PartitionError):
            rnn_weight_blocks("rnn", 16)
