"""FPGA resource cost model, calibrated on the Table III design points.

Structure of the model:

* **DSPs** — narrow-mantissa multiplications pack into DSP blocks
  (Section VI); each family has a fitted MACs-per-DSP packing density,
  with the remainder implemented as cell-optimized soft-logic
  multipliers in ALMs.
* **ALMs** — dominated by the MAC array (soft multipliers, accumulation
  trees, control); a fitted per-MAC cost per family captures the ALM
  architecture and packing efficiency differences across generations.
* **M20Ks** — structural: every dot-product engine needs a private MRF
  bank wide enough to feed its lanes each cycle
  (``ceil(lanes * weight_bits / port_width)`` slices) and deep enough for
  its share of the MRF; VRFs and I/O buffers add a fitted per-family
  constant. This reproduces the 1192 / 2171 / 8192 M20K counts of
  Table III from first principles (within the fitted constant).

Single-point-per-family calibration means intra-family *scaling* is
linear in the structural terms — exactly what the synthesis specializer
needs to trade tiles/lanes/native-dim within a device.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional

from ..config import NpuConfig
from ..errors import SynthesisError
from .devices import FpgaDevice, device_by_name


@dataclasses.dataclass(frozen=True)
class FamilyCoefficients:
    """Fitted per-family cost coefficients."""

    alm_per_mac: float
    macs_per_dsp: float
    #: M20K blocks for VRFs, instruction buffers, and network queues.
    m20k_overhead: int


#: Coefficients fitted on the three Table III rows.
FAMILY_COEFFICIENTS: Dict[str, FamilyCoefficients] = {
    "stratix5": FamilyCoefficients(alm_per_mac=24.94, macs_per_dsp=5.73,
                                   m20k_overhead=592),
    "arria10": FamilyCoefficients(alm_per_mac=13.22, macs_per_dsp=10.79,
                                  m20k_overhead=123),
    "stratix10": FamilyCoefficients(alm_per_mac=8.81, macs_per_dsp=18.30,
                                    m20k_overhead=992),
}


@dataclasses.dataclass(frozen=True)
class ResourceEstimate:
    """Estimated resource usage of a configuration on a device."""

    config: NpuConfig
    device: FpgaDevice
    alms: int
    m20ks: int
    dsps: int

    @property
    def alm_fraction(self) -> float:
        return self.alms / self.device.alms

    @property
    def m20k_fraction(self) -> float:
        return self.m20ks / self.device.m20ks

    @property
    def dsp_fraction(self) -> float:
        return self.dsps / self.device.dsps

    @property
    def fits(self) -> bool:
        return (self.alms <= self.device.alms
                and self.m20ks <= self.device.m20ks
                and self.dsps <= self.device.dsps)

    @property
    def limiting_resource(self) -> str:
        fractions = {"ALMs": self.alm_fraction,
                     "M20Ks": self.m20k_fraction,
                     "DSPs": self.dsp_fraction}
        return max(fractions, key=fractions.get)

    def summary(self) -> str:
        return (f"{self.config.name} on {self.device.name}: "
                f"{self.alms} ALMs ({100 * self.alm_fraction:.0f}%), "
                f"{self.m20ks} M20Ks ({100 * self.m20k_fraction:.0f}%), "
                f"{self.dsps} DSPs ({100 * self.dsp_fraction:.0f}%)")


def weight_storage_bits(config: NpuConfig) -> int:
    """Per-element MRF storage bits: sign + mantissa (the shared exponent
    lives in a separate narrow side structure)."""
    return 1 + config.mantissa_bits


def exponent_groups_per_row(config: NpuConfig) -> int:
    """Shared exponents stored per native matrix row.

    The paper's scheme (one exponent per native row — whole-row blocks,
    or any block size under per-tile granularity) stores exponents in
    the narrow side structure covered by the fitted per-family M20K
    overhead. Microscaling-style sub-row blocks multiply this count.
    """
    if config.mantissa_bits == 0 or config.scale_granularity == "tile":
        return 1
    return config.native_dim // config.effective_block_size


def mrf_m20ks(config: NpuConfig, device: FpgaDevice) -> int:
    """M20K blocks for the matrix register file.

    Each of the ``tiles * N`` dot-product engines owns a private bank
    (Section V-A: one read port per multiplier); the bank must deliver
    ``lanes * weight_bits`` bits per cycle (width slices) and hold
    ``mrf_size * N * weight_bits / tiles`` bits (depth slices). When a
    format keeps more than one shared exponent per native row, the extra
    exponents ride in the same banks and deepen them; the single per-row
    exponent of the paper's scheme stays in the fitted side-structure
    overhead, so Table III calibration points are unchanged.
    """
    wbits = weight_storage_bits(config)
    dpe_count = config.tile_engines * config.native_dim
    width_bits = config.lanes * wbits
    width_slices = math.ceil(width_bits / device.m20k_width)
    bank_bits = (config.mrf_size * config.native_dim * wbits
                 / config.tile_engines)
    groups = exponent_groups_per_row(config)
    if groups > 1:
        # mrf_size / tiles native rows per bank, ``groups`` exponents
        # of ``exponent_bits`` each beyond the side-structure one.
        bank_bits += (config.mrf_size * (groups - 1)
                      * config.exponent_bits / config.tile_engines)
    usable_bits_per_group = device.m20k_depth * width_bits
    depth_groups = math.ceil(bank_bits / max(usable_bits_per_group, 1))
    return dpe_count * width_slices * depth_groups


def estimate(config: NpuConfig,
             device: Optional[FpgaDevice] = None) -> ResourceEstimate:
    """Estimate FPGA resource usage of ``config`` on ``device``
    (default: the device named in the config)."""
    if device is None:
        device = device_by_name(config.device)
    if device.family not in FAMILY_COEFFICIENTS:
        raise SynthesisError(
            f"no calibrated coefficients for family {device.family!r}")
    coeff = FAMILY_COEFFICIENTS[device.family]
    macs = config.total_macs
    dsps = min(device.dsps, round(macs / coeff.macs_per_dsp))
    alms = round(coeff.alm_per_mac * macs)
    m20ks = mrf_m20ks(config, device) + coeff.m20k_overhead
    return ResourceEstimate(config=config, device=device, alms=alms,
                            m20ks=m20ks, dsps=dsps)
