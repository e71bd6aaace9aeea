"""Tests for the hierarchical decode and dispatch model (Fig. 6)."""

import pytest

from repro.config import BW_S5, BW_S10, NpuConfig
from repro.timing.hdd import build_hdd_tree


@pytest.fixture
def tree():
    return build_hdd_tree(BW_S10)


class TestTreeShape:
    def test_bw_s10_counts_match_section5c(self, tree):
        """'The top-level scheduler dispatches to 6 decoders and 4
        second-level schedulers, which in turn dispatch to an
        additional 41 decoders.'"""
        assert len(tree.top_level_decoders) == 6
        assert len(tree.second_level_schedulers) == 4
        assert len(tree.third_level_decoders) == 41

    def test_per_tile_engine_decoder_groups(self, tree):
        mvm = next(s for s in tree.second_level_schedulers
                   if s.name == "MVM scheduler")
        # 5 decoders per tile engine + 1 monolithic add-reduction.
        assert len(mvm.children) == 5 * BW_S10.tile_engines + 1

    def test_mfu_schedulers_scale_with_mfus(self):
        cfg = BW_S10.replace(mfus=4)
        tree = build_hdd_tree(cfg)
        mfu_scheds = [s for s in tree.second_level_schedulers
                      if s.name.startswith("MFU")]
        assert len(mfu_scheds) == 4

    def test_data_plane_fanout_covers_dpes(self, tree):
        """Tile-engine dispatchers drive one signal per dot-product
        engine; total fanout exceeds the DPE count."""
        assert tree.data_plane_fanout > \
            BW_S10.tile_engines * BW_S10.dot_product_engines

    def test_walk_visits_every_node(self, tree):
        assert tree.total_nodes == (
            1 + len(tree.top_level_decoders)
            + len(tree.second_level_schedulers)
            + len(tree.third_level_decoders))

    def test_smaller_instance_has_smaller_tree(self):
        assert build_hdd_tree(BW_S5).total_nodes == \
            build_hdd_tree(BW_S10).total_nodes  # same engines/MFUs
        tiny = NpuConfig(name="t", tile_engines=2, lanes=4,
                         native_dim=8, mrf_size=8)
        assert build_hdd_tree(tiny).total_nodes < \
            build_hdd_tree(BW_S10).total_nodes


class TestExpansion:
    def test_7_million_ops_from_one_instruction(self, tree):
        """Section IV-C: in the largest GRU 'a single instruction can
        be configured to dispatch over 7 million operations' — the
        useful (unpadded) work of one 8x8-tiled mv_mul at N=400."""
        padded = tree.mv_mul_primitive_ops(8, 8)
        assert padded == 8 * 8 * 400 * 400
        useful = 2816 * 2816
        assert useful > 7e6
        assert padded >= useful

