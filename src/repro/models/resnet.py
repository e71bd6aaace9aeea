"""ResNet-50 featurizer layer table (paper Section VII-C, Table VI).

The paper serves a production image featurizer whose topology and
computational requirements are "nearly identical" to ResNet-50 with the
final dense layer removed (scenario-specific classifiers run on CPU).
This module provides the full convolution layer inventory so the CNN
timing path can cost the whole network.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from .cnn import ConvSpec


@dataclasses.dataclass(frozen=True)
class NetworkLayer:
    """A named convolution layer with a static repeat count."""

    name: str
    spec: ConvSpec
    count: int = 1

    @property
    def total_ops(self) -> int:
        return self.spec.matmul_ops * self.count


def _bottleneck(name: str, spatial: int, in_channels: int, width: int,
                stride_first: bool) -> List[NetworkLayer]:
    """One ResNet-50 bottleneck block: 1x1 reduce, 3x3, 1x1 expand."""
    out_spatial = spatial // 2 if stride_first else spatial
    layers = [
        NetworkLayer(f"{name}.conv1", ConvSpec(
            spatial, spatial, in_channels, width, 1, 1, padding=0)),
        NetworkLayer(f"{name}.conv2", ConvSpec(
            spatial, spatial, width, width, 3, 3,
            stride=2 if stride_first else 1, padding=1)),
        NetworkLayer(f"{name}.conv3", ConvSpec(
            out_spatial, out_spatial, width, 4 * width, 1, 1, padding=0)),
    ]
    if in_channels != 4 * width or stride_first:
        layers.append(NetworkLayer(f"{name}.downsample", ConvSpec(
            spatial, spatial, in_channels, 4 * width, 1, 1,
            stride=2 if stride_first else 1, padding=0)))
    return layers


def resnet50_featurizer() -> List[NetworkLayer]:
    """All convolution layers of the ResNet-50-based featurizer.

    The classifier head is omitted (it runs on CPU in the Bing pipeline,
    Section VII-C); pooling and batch-norm are folded/negligible for the
    op-count and timing model.
    """
    layers: List[NetworkLayer] = [
        NetworkLayer("conv1", ConvSpec(224, 224, 3, 64, 7, 7,
                                       stride=2, padding=3)),
    ]
    stages: List[Tuple[str, int, int, int, int]] = [
        # (name, blocks, spatial at block input, in_channels, width)
        ("layer1", 3, 56, 64, 64),
        ("layer2", 4, 56, 256, 128),
        ("layer3", 6, 28, 512, 256),
        ("layer4", 3, 14, 1024, 512),
    ]
    for name, blocks, spatial, in_channels, width in stages:
        stride_first = name != "layer1"
        block_spatial = spatial
        block_in = in_channels
        for b in range(blocks):
            layers.extend(_bottleneck(
                f"{name}.{b}", block_spatial, block_in, width,
                stride_first=stride_first and b == 0))
            if stride_first and b == 0:
                block_spatial //= 2
            block_in = 4 * width
    return layers


def total_ops(layers: List[NetworkLayer]) -> int:
    """Total multiply+add operations across the network."""
    return sum(layer.total_ops for layer in layers)
