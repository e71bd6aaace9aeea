"""Synthesis specialization: tailoring an NPU instance to a model.

Section VI: "aligning the native vector dimension to parameters of the
model tends to minimize padding and waste", "increasing lane widths can
drive up intra-row-level parallelism", "increasing matrix multiply tiles
can exploit sub-matrix parallelism". The specializer searches the
(native_dim, lanes, tile_engines) space under a device's resource budget
and ranks candidates by *effective* throughput — peak TFLOPS discounted
by the model's padding efficiency at that native dimension.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, List, Optional, Sequence, Tuple

from ..config import NpuConfig
from ..errors import SynthesisError
from .devices import FpgaDevice
from .resources import ResourceEstimate, estimate


@dataclasses.dataclass(frozen=True)
class ModelRequirements:
    """What the target model demands from an instance."""

    name: str
    #: (rows, cols) of every dense matrix to pin on chip.
    matrix_shapes: Tuple[Tuple[int, int], ...]

    @property
    def total_weights(self) -> int:
        return sum(r * c for r, c in self.matrix_shapes)

    def padding_efficiency(self, native_dim: int) -> float:
        """Real work / padded work when matrices tile at ``native_dim``."""
        real = 0
        padded = 0
        for rows, cols in self.matrix_shapes:
            real += rows * cols
            padded += (math.ceil(rows / native_dim) * native_dim
                       * math.ceil(cols / native_dim) * native_dim)
        return real / padded if padded else 1.0


def rnn_requirements(kind: str, hidden_dim: int,
                     input_dim: Optional[int] = None) -> ModelRequirements:
    """Requirements of an LSTM/GRU layer (4 or 3 gate matrix pairs)."""
    x = input_dim if input_dim is not None else hidden_dim
    gates = {"lstm": 4, "gru": 3}
    if kind not in gates:
        raise ValueError("kind must be 'lstm' or 'gru'")
    shapes = tuple([(hidden_dim, x)] * gates[kind]
                   + [(hidden_dim, hidden_dim)] * gates[kind])
    return ModelRequirements(name=f"{kind}{hidden_dim}",
                             matrix_shapes=shapes)


@dataclasses.dataclass(frozen=True)
class Candidate:
    """One specialization candidate with its scores."""

    config: NpuConfig
    resources: ResourceEstimate
    padding_efficiency: float

    @property
    def effective_tflops(self) -> float:
        return self.config.peak_tflops * self.padding_efficiency


def candidate_space(device: FpgaDevice,
                    native_dims: Sequence[int] = (64, 100, 128, 200, 256,
                                                  320, 400, 512),
                    lane_options: Sequence[int] = (4, 8, 10, 16, 20, 32,
                                                   40, 64),
                    tile_options: Sequence[int] = (1, 2, 4, 6, 8, 12, 16),
                    mantissa_bits: int = 2,
                    fmt=None) -> Iterable[NpuConfig]:
    """Enumerate the synthesis-parameter grid for a device.

    ``fmt`` (a :class:`~repro.numerics.BfpFormat`) pins the full weight
    format — mantissa/exponent widths, scale-block size, granularity,
    and encoding; native dimensions its block size does not divide are
    skipped. Without it only ``mantissa_bits`` varies (the paper's
    whole-row scheme).
    """
    fmt_kwargs = {}
    if fmt is not None:
        mantissa_bits = fmt.mantissa_bits
        fmt_kwargs = {"exponent_bits": fmt.exponent_bits,
                      "bfp_block_size": fmt.block_size,
                      "scale_granularity": fmt.scale_granularity,
                      "scale_encoding": fmt.scale_encoding}
    for n in native_dims:
        if fmt is not None and n % fmt.block_size != 0:
            continue
        for lanes in lane_options:
            if n % lanes != 0:
                continue
            for tiles in tile_options:
                yield NpuConfig(
                    name=f"bw_{device.family}_t{tiles}l{lanes}n{n}",
                    tile_engines=tiles, lanes=lanes, native_dim=n,
                    mrf_size=1, mfus=2, mantissa_bits=mantissa_bits,
                    clock_mhz=device.clock_mhz, device=device.name,
                    **fmt_kwargs)


def specialize(requirements: ModelRequirements, device: FpgaDevice,
               mantissa_bits: int = 2,
               native_dims: Optional[Sequence[int]] = None,
               fmt=None) -> List[Candidate]:
    """Rank feasible instances for a model on a device.

    Returns candidates sorted by effective TFLOPS (descending). The MRF
    is sized to pin the model's weights (packed storage) with a small
    margin; candidates whose resources exceed the device are dropped.
    ``fmt`` pins a full :class:`~repro.numerics.BfpFormat` (Microscaling
    block sizes, E8M0 scales, per-tile granularity) instead of just the
    mantissa width.

    Raises:
        SynthesisError: if no candidate fits the device at all.
    """
    n2 = lambda cfg: cfg.native_dim * cfg.native_dim
    kwargs = {}
    if native_dims is not None:
        kwargs["native_dims"] = native_dims
    candidates: List[Candidate] = []
    for base in candidate_space(device, mantissa_bits=mantissa_bits,
                                fmt=fmt, **kwargs):
        mrf_size = max(1, math.ceil(requirements.total_weights / n2(base)))
        cfg = base.replace(mrf_size=mrf_size)
        try:
            resources = estimate(cfg, device)
        except SynthesisError:
            continue
        if not resources.fits:
            continue
        candidates.append(Candidate(
            config=cfg, resources=resources,
            padding_efficiency=requirements.padding_efficiency(
                cfg.native_dim)))
    if not candidates:
        raise SynthesisError(
            f"no BW NPU instance for {requirements.name} fits "
            f"{device.name}")
    candidates.sort(key=lambda c: c.effective_tflops, reverse=True)
    return candidates


def best_config(requirements: ModelRequirements, device: FpgaDevice,
                mantissa_bits: int = 2) -> Candidate:
    """The highest-effective-throughput feasible instance."""
    return specialize(requirements, device,
                      mantissa_bits=mantissa_bits)[0]
