"""Convolution layers: numpy reference and im2col lowering metadata.

The BW NPU has no convolution primitive; CNN layers are *linearized onto
matrix-vector multiplication* (Section IV-B). A conv layer with K kernels
of size R x S x C becomes a ``K x (R*S*C)`` matrix multiplied against one
im2col patch vector per output pixel. :class:`ConvSpec` carries the shape
algebra (op counts, Table I's "Data" column); :func:`conv2d_reference`
and :func:`im2col` provide the exact semantics used for verification.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np


@dataclasses.dataclass(frozen=True)
class ConvSpec:
    """One 2-D convolution layer (NCHW-free single-sample form).

    Attributes:
        in_height, in_width, in_channels: Input activation dimensions.
        kernels: Number of output channels K.
        kernel_h, kernel_w: Spatial kernel size R x S.
        stride: Spatial stride.
        padding: Symmetric zero padding.
    """

    in_height: int
    in_width: int
    in_channels: int
    kernels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: Optional[int] = None  # None = "same" for stride 1

    def __post_init__(self) -> None:
        if min(self.in_height, self.in_width, self.in_channels,
               self.kernels, self.kernel_h, self.kernel_w,
               self.stride) <= 0:
            raise ValueError("all ConvSpec dimensions must be positive")

    @property
    def pad(self) -> int:
        if self.padding is not None:
            return self.padding
        return (self.kernel_h - 1) // 2

    @property
    def out_height(self) -> int:
        return (self.in_height + 2 * self.pad - self.kernel_h) \
            // self.stride + 1

    @property
    def out_width(self) -> int:
        return (self.in_width + 2 * self.pad - self.kernel_w) \
            // self.stride + 1

    @property
    def output_pixels(self) -> int:
        return self.out_height * self.out_width

    @property
    def patch_length(self) -> int:
        """im2col patch vector length (R*S*C) — the GEMV inner dim."""
        return self.kernel_h * self.kernel_w * self.in_channels

    @property
    def matmul_ops(self) -> int:
        """Multiply and add ops for the full layer."""
        return 2 * self.output_pixels * self.kernels * self.patch_length

    @property
    def parameter_count(self) -> int:
        return self.kernels * self.patch_length

    @property
    def input_elements(self) -> int:
        return self.in_height * self.in_width * self.in_channels

    def as_matrix_shape(self) -> Tuple[int, int]:
        """The GEMV matrix shape this layer lowers to: K x (R*S*C)."""
        return (self.kernels, self.patch_length)

    def describe(self) -> str:
        return (f"In:{self.in_height}x{self.in_width}x{self.in_channels} "
                f"K:{self.kernels}x{self.kernel_h}x{self.kernel_w}"
                f"{'' if self.stride == 1 else f' s{self.stride}'}")


def im2col(activations: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Unfold activations (H, W, C) into patch vectors.

    Returns shape ``(out_h * out_w, R*S*C)``: one GEMV input per output
    pixel, in row-major output order.
    """
    activations = np.asarray(activations, dtype=np.float32)
    if activations.shape != (spec.in_height, spec.in_width,
                             spec.in_channels):
        raise ValueError(
            f"activations shape {activations.shape} != "
            f"({spec.in_height}, {spec.in_width}, {spec.in_channels})")
    pad = spec.pad
    padded = np.pad(activations, ((pad, pad), (pad, pad), (0, 0)))
    patches = np.zeros((spec.output_pixels, spec.patch_length),
                       dtype=np.float32)
    idx = 0
    for oy in range(spec.out_height):
        for ox in range(spec.out_width):
            y0 = oy * spec.stride
            x0 = ox * spec.stride
            patch = padded[y0:y0 + spec.kernel_h, x0:x0 + spec.kernel_w, :]
            patches[idx] = patch.reshape(-1)
            idx += 1
    return patches


def conv2d_reference(activations: np.ndarray, weights: np.ndarray,
                     spec: ConvSpec) -> np.ndarray:
    """Exact convolution via im2col; weights shape (K, R, S, C).

    Returns activations of shape ``(out_h, out_w, K)``.
    """
    weights = np.asarray(weights, dtype=np.float32)
    expected = (spec.kernels, spec.kernel_h, spec.kernel_w,
                spec.in_channels)
    if weights.shape != expected:
        raise ValueError(f"weights shape {weights.shape} != {expected}")
    matrix = weights.reshape(spec.kernels, spec.patch_length)
    patches = im2col(activations, spec)
    out = patches @ matrix.T
    return out.reshape(spec.out_height, spec.out_width, spec.kernels)


def random_conv_weights(spec: ConvSpec, seed: int = 0,
                        scale: float = 0.2) -> np.ndarray:
    """Seeded random weights with shape (K, R, S, C)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale,
                       (spec.kernels, spec.kernel_h, spec.kernel_w,
                        spec.in_channels)).astype(np.float32)


#: Table I's two representative ResNet-50 layers.
TABLE1_CNN_3X3 = ConvSpec(in_height=28, in_width=28, in_channels=128,
                          kernels=128, kernel_h=3, kernel_w=3)
TABLE1_CNN_1X1 = ConvSpec(in_height=56, in_width=56, in_channels=64,
                          kernels=256, kernel_h=1, kernel_w=1)
