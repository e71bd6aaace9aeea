"""Tests for the CNN timing path (Table I CNN rows, Table VI)."""

import pytest

from repro.config import BW_CNN_A10, BW_S10
from repro.models.cnn import TABLE1_CNN_1X1, TABLE1_CNN_3X3, ConvSpec
from repro.models.resnet import resnet50_featurizer, total_ops
from repro.timing.cnn import (
    block_packed_conv_cycles,
    conv_layer_compute_cycles,
    conv_layer_stream_cycles,
    network_timing,
    variant_bound_cycles,
)


class TestResNetInventory:
    def test_layer_count(self):
        assert len(resnet50_featurizer()) == 53

    def test_total_ops_near_published(self):
        """ResNet-50 forward pass ~8.2 GOPs (4.1 GMACs)."""
        assert total_ops(resnet50_featurizer()) == pytest.approx(
            8.2e9, rel=0.05)

    def test_total_parameters_near_23m(self):
        params = sum(layer.spec.parameter_count * layer.count
                     for layer in resnet50_featurizer())
        assert params == pytest.approx(23.5e6, rel=0.05)

    def test_spatial_dimensions_telescope(self):
        layers = {l.name: l.spec for l in resnet50_featurizer()}
        assert layers["conv1"].out_height == 112
        assert layers["layer1.0.conv1"].in_height == 56
        assert layers["layer4.2.conv3"].out_height == 7


class TestBlockPackedMapping:
    def test_table1_3x3_layer_matches_paper(self):
        """The structural mapping lands at 1,320 cycles vs the paper's
        measured 1,326."""
        assert block_packed_conv_cycles(TABLE1_CNN_3X3, BW_S10) == \
            pytest.approx(1326, rel=0.01)

    def test_pixel_packing_requires_small_kernels(self):
        """K > N prevents row packing; throughput drops accordingly."""
        small_k = ConvSpec(28, 28, 128, kernels=128, kernel_h=3,
                           kernel_w=3)
        big_k = ConvSpec(28, 28, 128, kernels=512, kernel_h=3,
                         kernel_w=3)
        per_op_small = block_packed_conv_cycles(small_k, BW_S10) \
            / small_k.matmul_ops
        per_op_big = block_packed_conv_cycles(big_k, BW_S10) \
            / big_k.matmul_ops
        assert per_op_small < per_op_big * 1.5

    def test_variant_bound_tracks_sdm(self):
        cycles = variant_bound_cycles(TABLE1_CNN_1X1, BW_S10)
        macs = TABLE1_CNN_1X1.matmul_ops / 2
        assert cycles > macs / BW_S10.total_macs

    def test_compute_model_takes_better_mapping(self):
        c = conv_layer_compute_cycles(TABLE1_CNN_1X1, BW_S10)
        assert c <= block_packed_conv_cycles(TABLE1_CNN_1X1, BW_S10)

    def test_table1_cnn_rows_within_6pct(self):
        assert conv_layer_compute_cycles(TABLE1_CNN_3X3, BW_S10) == \
            pytest.approx(1326, rel=0.06)
        assert conv_layer_compute_cycles(TABLE1_CNN_1X1, BW_S10) == \
            pytest.approx(646, rel=0.06)


class TestNetworkTiming:
    def test_table6_anchor(self):
        """BW_CNN_A10 serves the featurizer at ~559 IPS / 1.8 ms."""
        t = network_timing(BW_CNN_A10)
        assert t.ips == pytest.approx(559, rel=0.08)
        assert t.latency_ms == pytest.approx(1.8, rel=0.08)

    def test_bw_beats_p40_at_batch_1(self):
        from repro.baselines import P40, GpuCnnModel
        bw = network_timing(BW_CNN_A10)
        gpu = GpuCnnModel(P40).run(total_ops(resnet50_featurizer()),
                                   batch=1)
        assert bw.ips > gpu.ips
        assert bw.latency_ms < gpu.latency_ms

    def test_streaming_overlap(self):
        """Per-layer time is max(compute, stream), not the sum."""
        t = network_timing(BW_CNN_A10)
        for layer in t.layers:
            assert layer.cycles == max(layer.compute_cycles,
                                       layer.stream_cycles)

    def test_some_layers_stream_bound(self):
        """Deep layers with big kernels are DRAM-bound on an A10."""
        t = network_timing(BW_CNN_A10)
        assert 0 < t.stream_bound_layers < len(t.layers)

    def test_more_bandwidth_reduces_latency(self):
        slow = network_timing(BW_CNN_A10, dram_gbps=8.0)
        fast = network_timing(BW_CNN_A10, dram_gbps=32.0)
        assert fast.latency_ms < slow.latency_ms

    def test_stream_cycles_scale_with_precision(self):
        spec = TABLE1_CNN_3X3
        narrow = conv_layer_stream_cycles(spec, BW_CNN_A10, 14.0)
        wide = conv_layer_stream_cycles(
            spec, BW_CNN_A10.replace(mantissa_bits=8), 14.0)
        assert wide > narrow

    def test_effective_tflops_positive(self):
        t = network_timing(BW_CNN_A10)
        assert 0 < t.total_ops / t.latency_s / 1e12 < BW_CNN_A10.peak_tflops
