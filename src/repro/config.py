"""NPU configuration: the synthesis-time parameters of a BW NPU instance.

Section VI of the paper lists the four specialization parameters — data
type (precision), native vector size, number of lanes, and number of
matrix-vector tile engines — plus secondary structures (MRF size, MFU
count). :class:`NpuConfig` captures one fully-specified instance; the
three published instances of Table III (and the CNN variant of Table VI)
are provided as module-level constants.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import ConfigError


@dataclasses.dataclass(frozen=True)
class NpuConfig:
    """A fully-specified BW NPU microarchitecture instance.

    Attributes:
        name: Human-readable instance name (e.g. ``"BW_S10"``).
        tile_engines: Number of matrix-vector tile engines in the MVM.
        lanes: Multiplier lanes per dot-product engine.
        native_dim: Native vector dimension N; matrices are N x N tiles.
        mrf_size: Matrix register file capacity in native-tile slots.
        mfus: Number of multifunction units after the MVM.
        fus_per_mfu: Function units inside each MFU (add/sub, multiply,
            activation behind a crossbar — three in the paper's design).
        initial_vrf_depth: Entries in the InitialVrf (MVM input vectors).
        addsub_vrf_depth: Entries in each AddSubVrf.
        multiply_vrf_depth: Entries in each MultiplyVrf.
        exponent_bits: Shared-exponent width of the BFP weight format.
        mantissa_bits: Mantissa width of the BFP weight format (2-5 in
            the paper). ``0`` disables quantization (exact mode), used
            for functional verification.
        bfp_block_size: Elements sharing one exponent. ``0`` (the
            default) means the native dimension — the paper's scheme;
            Microscaling formats use smaller blocks (e.g. 32). Must
            divide ``native_dim``.
        scale_granularity: ``"block"`` or ``"tile"`` — see
            :class:`repro.numerics.BfpFormat`.
        scale_encoding: ``"shared"`` or ``"e8m0"`` (MX power-of-two
            scales; requires ``exponent_bits == 8``).
        clock_mhz: Target clock frequency.
        device: Name of the FPGA device this instance targets.
    """

    name: str
    tile_engines: int
    lanes: int
    native_dim: int
    mrf_size: int
    mfus: int = 2
    fus_per_mfu: int = 3
    initial_vrf_depth: int = 4096
    addsub_vrf_depth: int = 1024
    multiply_vrf_depth: int = 1024
    exponent_bits: int = 5
    mantissa_bits: int = 2
    bfp_block_size: int = 0
    scale_granularity: str = "block"
    scale_encoding: str = "shared"
    clock_mhz: float = 250.0
    device: str = "generic"

    def __post_init__(self) -> None:
        for field in ("tile_engines", "lanes", "native_dim", "mrf_size",
                      "mfus", "fus_per_mfu", "initial_vrf_depth",
                      "addsub_vrf_depth", "multiply_vrf_depth"):
            if getattr(self, field) <= 0:
                raise ConfigError(f"{field} must be positive")
        if self.native_dim % self.lanes != 0:
            raise ConfigError(
                f"lanes ({self.lanes}) must divide native_dim "
                f"({self.native_dim}) so rows stream evenly through the "
                "accumulation tree")
        if self.mantissa_bits < 0 or self.mantissa_bits > 10:
            raise ConfigError("mantissa_bits must be in [0, 10]")
        if self.exponent_bits < 2 or self.exponent_bits > 8:
            raise ConfigError("exponent_bits must be in [2, 8]")
        if self.bfp_block_size < 0:
            raise ConfigError("bfp_block_size must be >= 0 (0 = native)")
        if self.bfp_block_size and self.native_dim % self.bfp_block_size:
            raise ConfigError(
                f"bfp_block_size ({self.bfp_block_size}) must divide "
                f"native_dim ({self.native_dim}) so native rows split "
                "into whole scale blocks")
        if self.scale_granularity not in ("block", "tile"):
            raise ConfigError(
                "scale_granularity must be 'block' or 'tile'")
        if self.scale_encoding not in ("shared", "e8m0"):
            raise ConfigError("scale_encoding must be 'shared' or 'e8m0'")
        if self.scale_encoding == "e8m0" and self.exponent_bits != 8:
            raise ConfigError(
                "e8m0 scales are 8-bit by definition; set exponent_bits=8")
        if self.clock_mhz <= 0:
            raise ConfigError("clock_mhz must be positive")

    # -- derived quantities --------------------------------------------------

    @property
    def dot_product_engines(self) -> int:
        """Dot-product engines per tile engine: one per native matrix row."""
        return self.native_dim

    @property
    def total_macs(self) -> int:
        """Total multiply-accumulate units in the MVM.

        ``tile_engines * native_dim rows * lanes`` — 96,000 for BW_S10.
        """
        return self.tile_engines * self.native_dim * self.lanes

    @property
    def flops_per_cycle(self) -> int:
        """Peak FLOPs per cycle: 2 per MAC (Section V-A)."""
        return 2 * self.total_macs

    @property
    def peak_tflops(self) -> float:
        """Peak throughput in teraflops at the configured clock."""
        return self.flops_per_cycle * self.clock_mhz * 1e6 / 1e12

    @property
    def cycles_per_native_row(self) -> int:
        """Cycles for one dot-product engine to consume a native row."""
        return self.native_dim // self.lanes

    @property
    def mrf_capacity_elements(self) -> int:
        """Total matrix elements storable on chip.

        Physical capacity assumes packed storage: a partial native tile
        only occupies SRAM for its real rows/columns (the paper's 306-slot
        BW_S10 MRF holds the largest DeepBench GRU, whose *padded* tile
        count exceeds 306 but whose 47.6M real weights fit).
        """
        return self.mrf_size * self.native_dim * self.native_dim

    @property
    def mrf_address_space(self) -> int:
        """Addressable native-tile slots for ``mv_mul`` indexing.

        Larger than the physical slot count because partially-filled edge
        tiles consume a full address but only fractional storage.
        """
        return 2 * self.mrf_size

    @property
    def effective_block_size(self) -> int:
        """Elements sharing one exponent: ``bfp_block_size`` or native."""
        return self.bfp_block_size or self.native_dim

    @property
    def bfp_format(self):
        """The weight :class:`~repro.numerics.BfpFormat`, or ``None``.

        ``None`` in exact mode (``mantissa_bits == 0``). The single
        authority the reference interpreter, functional simulator, and
        perf harness all construct their format from.
        """
        if self.mantissa_bits == 0:
            return None
        from .numerics.bfp import BfpFormat
        return BfpFormat(
            mantissa_bits=self.mantissa_bits,
            exponent_bits=self.exponent_bits,
            block_size=self.effective_block_size,
            scale_granularity=self.scale_granularity,
            scale_encoding=self.scale_encoding,
        )

    @property
    def weight_bits_per_element(self) -> float:
        """Average storage bits per BFP weight.

        One sign bit and ``mantissa_bits`` per element plus an
        ``exponent_bits`` exponent shared by each scale group (a
        ``bfp_block_size`` block, or the native row under per-tile
        granularity).
        """
        fmt = self.bfp_format
        if fmt is None:
            return 32.0  # exact mode stores float32
        return fmt.storage_bits_per_element(self.native_dim)

    @property
    def precision_name(self) -> str:
        """Format string like ``"BFP (1s.5e.2m)"`` (Table IV notation)."""
        fmt = self.bfp_format
        if fmt is None:
            return "Float32 (exact mode)"
        return f"BFP ({fmt.label(self.native_dim)})"

    @property
    def cycle_time_s(self) -> float:
        """Seconds per clock cycle."""
        return 1.0 / (self.clock_mhz * 1e6)

    # -- helpers -------------------------------------------------------------

    def native_tiles_for(self, rows: int, cols: int) -> int:
        """Native tile slots needed to pin a ``rows x cols`` matrix."""
        return (math.ceil(rows / self.native_dim)
                * math.ceil(cols / self.native_dim))

    def replace(self, **changes) -> "NpuConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


#: Table III, row 1: Stratix V D5 instance (2.4 peak TFLOPS).
BW_S5 = NpuConfig(
    name="BW_S5", tile_engines=6, lanes=10, native_dim=100, mrf_size=306,
    mfus=2, clock_mhz=200.0, device="Stratix V D5", mantissa_bits=2,
)

#: Table III, row 2: Arria 10 1150 instance (9.8 peak TFLOPS).
BW_A10 = NpuConfig(
    name="BW_A10", tile_engines=8, lanes=16, native_dim=128, mrf_size=512,
    mfus=2, clock_mhz=300.0, device="Arria 10 1150", mantissa_bits=2,
)

#: Table III, row 3: Stratix 10 280 instance (48 peak TFLOPS, 96k MACs).
BW_S10 = NpuConfig(
    name="BW_S10", tile_engines=6, lanes=40, native_dim=400, mrf_size=306,
    mfus=2, clock_mhz=250.0, device="Stratix 10 280", mantissa_bits=2,
)

#: Table VI: CNN-specialized Arria 10 variant (BFP 1s.5e.5m).
BW_CNN_A10 = NpuConfig(
    name="BW_CNN_A10", tile_engines=8, lanes=16, native_dim=128,
    mrf_size=512, mfus=2, clock_mhz=300.0, device="Arria 10 1150",
    mantissa_bits=5,
)

#: All published configurations by name.
STANDARD_CONFIGS = {
    cfg.name: cfg for cfg in (BW_S5, BW_A10, BW_S10, BW_CNN_A10)
}
