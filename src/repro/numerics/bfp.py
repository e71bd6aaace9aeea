"""Block floating-point (BFP) numerics (paper Section VI).

The BW NPU uses a narrow-precision block floating-point format that shares
a 5-bit exponent across a group of numbers at the native vector level —
"a single 5-bit exponent per 128 independent signs and mantissas". Only
dot products see BFP quantization noise; secondary point-wise operations
execute as float16.

:class:`BfpFormat` describes one format instance (``1s.5e.2m`` in the
paper's notation); :func:`quantize` rounds an array to the format,
returning exactly-representable float32 values so the rest of the
simulator can use ordinary numpy arithmetic.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigError


@dataclasses.dataclass(frozen=True)
class BfpFormat:
    """A block floating-point format: 1 sign, shared exponent, mantissa.

    One member of the configurable format family. The paper's MSFP
    formats share a raw exponent per native block of 128; Microscaling
    (MX) descendants share an E8M0 power-of-two scale per block of 32.

    Attributes:
        mantissa_bits: Magnitude bits per element (2-5 in the paper).
        exponent_bits: Width of the shared exponent field.
        block_size: Elements sharing one exponent. The paper shares at
            the native dimension (128); MX formats use 32.
        scale_granularity: ``"block"`` shares one exponent per
            ``block_size`` elements; ``"tile"`` widens sharing to the
            whole trailing axis (one exponent per native row), the
            coarsest scaling the MVM datapath supports.
        scale_encoding: ``"shared"`` is the paper's raw exponent field;
            ``"e8m0"`` is the MX-compliant 8-bit power-of-two scale
            (bias 127, the all-ones code reserved for NaN, so the top
            exponent 128 is not encodable).
    """

    mantissa_bits: int
    exponent_bits: int = 5
    block_size: int = 128
    scale_granularity: str = "block"
    scale_encoding: str = "shared"

    def __post_init__(self) -> None:
        if not 1 <= self.mantissa_bits <= 12:
            raise ConfigError("mantissa_bits must be in [1, 12]")
        if not 2 <= self.exponent_bits <= 10:
            # Above 10 exponent bits, 2^max_exponent overflows float64
            # and the simulator's scale arithmetic stops being exact.
            raise ConfigError("exponent_bits must be in [2, 10]")
        if not 1 <= self.block_size <= 4096:
            raise ConfigError("block_size must be in [1, 4096]")
        if self.scale_granularity not in ("block", "tile"):
            raise ConfigError(
                "scale_granularity must be 'block' or 'tile', got "
                f"{self.scale_granularity!r}")
        if self.scale_encoding not in ("shared", "e8m0"):
            raise ConfigError(
                "scale_encoding must be 'shared' or 'e8m0', got "
                f"{self.scale_encoding!r}")
        if self.scale_encoding == "e8m0" and self.exponent_bits != 8:
            raise ConfigError(
                "e8m0 scales are 8-bit by definition; set exponent_bits=8")

    @property
    def is_e8m0(self) -> bool:
        return self.scale_encoding == "e8m0"

    @property
    def exponent_bias(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def min_exponent(self) -> int:
        return -self.exponent_bias

    @property
    def max_exponent(self) -> int:
        # E8M0 reserves the all-ones code (0xFF) for NaN, losing the top
        # exponent the raw field would otherwise reach.
        top = (1 << self.exponent_bits) - 1 - self.exponent_bias
        return top - 1 if self.is_e8m0 else top

    @property
    def max_mantissa(self) -> int:
        return (1 << self.mantissa_bits) - 1

    @functools.cached_property
    def float32_steps(self) -> bool:
        """Whether every quantization step ``2^(E - mantissa_bits + 1)``
        is a float32 number (2^-149, the smallest subnormal, or more):
        float32 input then quantizes in float32.  Formats with 9 or 10
        exponent bits step below it and quantize in float64."""
        return self.min_exponent - self.mantissa_bits + 1 >= -149

    def storage_bits_per_element(
            self, row_length: Optional[int] = None) -> float:
        """Average storage bits per element, amortizing the exponent.

        Per-tile scaling amortizes the exponent over the whole row when
        ``row_length`` is given; per-block scaling (and an unknown row
        length) amortizes over ``block_size``.
        """
        group = self.block_size
        if self.scale_granularity == "tile" and row_length:
            group = row_length
        return 1 + self.mantissa_bits + self.exponent_bits / group

    @property
    def bits_per_element(self) -> float:
        """Average storage cost per element, amortizing the exponent."""
        return self.storage_bits_per_element()

    def label(self, native_block: Optional[int] = None) -> str:
        """Paper-style spec string, e.g. ``1s.e8m0.7m.b32``.

        The block suffix is omitted when the block is the conventional
        native dimension (``native_block``, defaulting to the paper's
        128) — ``1s.5e.2m`` stays ``1s.5e.2m``.
        """
        scale = "e8m0" if self.is_e8m0 else f"{self.exponent_bits}e"
        parts = [f"1s.{scale}.{self.mantissa_bits}m"]
        if self.block_size != (native_block or 128):
            parts.append(f"b{self.block_size}")
        if self.scale_granularity == "tile":
            parts.append("tile")
        return ".".join(parts)

    @property
    def name(self) -> str:
        return self.label()

    def __str__(self) -> str:
        return self.name


def _block_view(x: np.ndarray, block_size: int) -> np.ndarray:
    """Reshape the trailing axis into blocks; the length must divide.

    Preserves float32 inputs (the simulator's word type); everything else
    is promoted to float64.
    """
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64)
    if x.shape[-1] % block_size != 0:
        raise ValueError(
            f"last axis ({x.shape[-1]}) must be a multiple of the block "
            f"size ({block_size}); pad to the native dimension first")
    return x.reshape(x.shape[:-1] + (x.shape[-1] // block_size, block_size))


def _exponents_of(blocks: np.ndarray, fmt: BfpFormat) -> np.ndarray:
    """Clamped shared exponents for pre-blocked data (one per block).

    ``floor(log2(max |block|))`` computed exactly via ``frexp`` — for any
    finite float ``a = m * 2^e`` with ``0.5 <= |m| < 1``, the floor of its
    base-2 log is ``e - 1`` — avoiding a transcendental log per block.

    Per-tile granularity takes the maximum across all blocks of a row
    but keeps the per-block result shape (the shared exponent is
    broadcast into every block slot), so downstream consumers are
    layout-agnostic about granularity.
    """
    amax = np.max(np.abs(blocks), axis=-1)
    if fmt.scale_granularity == "tile":
        amax = np.broadcast_to(
            np.max(amax, axis=-1, keepdims=True), amax.shape)
    exponents = np.frexp(amax)[1] - 1
    exponents = np.where(amax > 0, exponents, fmt.min_exponent)
    # In-place maximum/minimum rather than np.clip, whose Python wrapper
    # costs more than the clamp itself on one vector's few blocks.
    np.maximum(exponents, fmt.min_exponent, out=exponents)
    np.minimum(exponents, fmt.max_exponent, out=exponents)
    return exponents.astype(int)


_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)
_ONE32, _ONE64 = np.float32(1.0), np.float64(1.0)


def _steps(exponents: np.ndarray, fmt: BfpFormat,
           dtype: np.dtype) -> np.ndarray:
    """Per-block steps ``2^(E - mantissa_bits + 1)``, exact: ``ldexp``
    of the integer exponents (float32 ``exp2(127)`` is an ulp high), in
    the working ``dtype`` (a float32 or float64 ``np.dtype``), or in
    float64 where the format's smallest step is not a float32 number."""
    # Builtin dtypes are singletons: ``is`` skips ``==``'s coercion.
    one = _ONE32 if dtype is _F32 and fmt.float32_steps else _ONE64
    return np.ldexp(one, exponents - (fmt.mantissa_bits - 1))


def _round_blocks(blocks: np.ndarray, fmt: BfpFormat
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clamped mantissas, scales (value = mantissa * scale) and shared
    exponents of pre-blocked data. A NaN block takes the minimum
    exponent, an infinite one -1, so where the step is tiny its finite
    values overflow the quotient before the clamp saturates them."""
    exponents = _exponents_of(blocks, fmt)
    scale = _steps(exponents, fmt, blocks.dtype)[..., np.newaxis]
    with np.errstate(over="ignore"):
        mantissas = np.rint(blocks / scale)
    # In place; NaN stays NaN, as np.clip.
    np.maximum(mantissas, -fmt.max_mantissa, out=mantissas)
    np.minimum(mantissas, fmt.max_mantissa, out=mantissas)
    return mantissas, scale, exponents


def decompose(x: np.ndarray, fmt: BfpFormat) -> Tuple[np.ndarray, np.ndarray]:
    """BFP decomposition without materializing the dequantized values.

    Returns ``(mantissas, exponents)`` where ``mantissas`` keeps the
    block view's working dtype (float32 for float32 input — exactly
    integer-valued, ready for the executor's mantissa-GEMV path) and
    ``exponents`` are the per-block shared exponents. The mantissa and
    exponent arithmetic is identical to :func:`quantize`'s; only the
    value reconstruction is skipped.
    """
    original_shape = np.asarray(x).shape
    blocks = _block_view(x, fmt.block_size)
    mantissas, scale, exponents = _round_blocks(blocks, fmt)
    # Integer-valued, so exact in the block view's dtype.
    return (mantissas.astype(blocks.dtype, copy=False)
            .reshape(original_shape), exponents)


def scales_of(exponents: np.ndarray, fmt: BfpFormat) -> np.ndarray:
    """Per-block dequantization scales ``2^(E - mb + 1)`` as float64.

    The companion of :func:`decompose` for dot-product consumers:
    ``value = mantissa * scales_of(exponents, fmt)[..., None]``. Kept in
    one place so the vectorized executor and the compiled replay engine
    (:mod:`repro.functional.replay`) apply the bit-identical formula.
    """
    return _steps(exponents, fmt, _F64)


def code_dtypes(fmt: BfpFormat) -> Tuple[np.dtype, np.dtype]:
    """Words of :func:`encode`'s codes and exponents: a code takes one
    byte up to 6 mantissa bits (every paper format) and two above, an
    exponent one byte up to 8 exponent bits and two above."""
    return (np.dtype(np.uint8 if fmt.mantissa_bits <= 6 else np.uint16),
            np.dtype(np.uint8 if fmt.exponent_bits <= 8 else np.uint16))


def encode(x: np.ndarray, fmt: BfpFormat) -> Tuple[np.ndarray, np.ndarray]:
    """BFP codes of ``x``, the matrix register file's storage form.

    Returns ``(codes, exponents)``. ``codes`` has ``x``'s shape, one
    :func:`code_dtypes` word per element: the top bit is the mantissa's
    sign, the others its magnitude, so a negative zero keeps its sign.
    A NaN takes the all-ones magnitude, which no mantissa reaches, and
    keeps its sign. ``exponents`` are :func:`decompose`'s shared
    exponents less ``min_exponent`` (the hardware's biased exponent
    field), so all-zero storage holds what an all-zero block encodes
    to. :func:`decode` inverts it.
    """
    mant, exponents = decompose(x, fmt)
    dtype, exponent_dtype = code_dtypes(fmt)
    sign_bit = 8 * dtype.itemsize - 1
    sign = np.signbit(mant)
    np.abs(mant, out=mant)
    # fmin takes the number, so a NaN becomes the all-ones magnitude.
    np.fmin(mant, (1 << sign_bit) - 1, out=mant)
    codes = mant.astype(dtype)
    codes |= sign.astype(dtype) << sign_bit
    return codes, (exponents - fmt.min_exponent).astype(exponent_dtype)


@functools.lru_cache(maxsize=None)
def code_values(fmt: BfpFormat) -> np.ndarray:
    """The signed float32 mantissa of every :func:`encode` code word,
    indexed by the word: -0.0 for the negative zero, a signed NaN for
    the all-ones magnitude. Read-only."""
    bits = 8 * code_dtypes(fmt)[0].itemsize
    words = np.arange(1 << bits)
    nan_magnitude = (1 << (bits - 1)) - 1
    magnitude = (words & nan_magnitude).astype(np.float32)
    magnitude[magnitude == nan_magnitude] = np.nan
    # Negation flips the sign bit of zeros and NaNs too.
    values = np.where(words >> (bits - 1), -magnitude, magnitude)
    values.setflags(write=False)
    return values


def decode(codes: np.ndarray, exponents: np.ndarray,
           fmt: BfpFormat) -> np.ndarray:
    """Float32 values of :func:`encode`'s ``(codes, exponents)``.

    Bit for bit what :func:`quantize` returns for the encoded float32
    input, the scale arithmetic being the same; only a NaN's payload is
    not kept (it decodes to the default quiet NaN with its sign).
    """
    values = code_values(fmt).take(codes)
    scale = _steps(exponents.astype(np.int32) + fmt.min_exponent, fmt,
                   values.dtype)[..., np.newaxis]
    blocks = values.reshape(codes.shape[:-1] + (-1, fmt.block_size))
    if scale.dtype is not _F32:
        return (blocks * scale).astype(np.float32).reshape(codes.shape)
    blocks *= scale
    return values


def quantize_reference(x: np.ndarray, fmt: BfpFormat) -> np.ndarray:
    """Pure-python reference quantizer (the conformance oracle).

    Computes the same mapping as :func:`quantize` one block at a time
    with scalar :mod:`math` arithmetic — shared exponent from
    ``math.frexp`` of the block maximum (or the row maximum under
    per-tile granularity), mantissas via round-half-even (python's
    ``round``, matching ``np.rint``), clamp to the mantissa range —
    sharing no code with the vectorized implementation. Used by
    :mod:`repro.verify` to cross-check the production path bit for bit.

    Non-finite input follows :func:`quantize` (docs/NUMERICS.md): a
    NaN anywhere in a block (a row, per tile) makes the block maximum
    NaN, so the block takes the minimum exponent; an infinite maximum
    takes ``frexp(inf)``'s exponent, -1; a NaN element stays NaN and an
    infinite quotient saturates to the signed maximum mantissa. Results
    carry the quotient's sign, so a negative value that rounds to zero
    gives -0.0, as in :func:`quantize`.
    """
    arr = np.asarray(x)
    shaped = arr.reshape(-1, arr.shape[-1]) if arr.ndim else arr.reshape(1, 1)
    if shaped.shape[-1] % fmt.block_size != 0:
        raise ValueError(
            f"last axis ({shaped.shape[-1]}) must be a multiple of the "
            f"block size ({fmt.block_size}); pad to the native dimension "
            "first")
    out = np.zeros(shaped.shape, dtype=np.float32)
    for r in range(shaped.shape[0]):
        row_amax = _amax_reference(float(v) for v in shaped[r])
        for b in range(shaped.shape[1] // fmt.block_size):
            lo, hi = b * fmt.block_size, (b + 1) * fmt.block_size
            block = [float(v) for v in shaped[r, lo:hi]]
            if fmt.scale_granularity == "tile":
                amax = row_amax
            else:
                amax = _amax_reference(block)
            if amax > 0:
                exponent = math.frexp(amax)[1] - 1
            else:
                exponent = fmt.min_exponent
            exponent = min(max(exponent, fmt.min_exponent),
                           fmt.max_exponent)
            step = math.ldexp(1.0, exponent - fmt.mantissa_bits + 1)
            for j, v in enumerate(block):
                quotient = v / step
                if math.isnan(quotient):
                    out[r, lo + j] = quotient
                    continue
                if math.isinf(quotient):
                    mant = fmt.max_mantissa
                else:
                    mant = min(abs(round(quotient)), fmt.max_mantissa)
                # The quotient's sign, zero included, as np.rint keeps it.
                out[r, lo + j] = math.copysign(mant * step, quotient)
    return out.reshape(arr.shape)


def _amax_reference(values) -> float:
    """``max |v|``, NaN if any value is NaN (numpy's ``max`` semantics;
    python's ``max`` would depend on where the NaN sits)."""
    amax = 0.0
    for v in values:
        if math.isnan(v):
            return math.nan
        amax = max(amax, abs(v))
    return amax


def quantize(x: np.ndarray, fmt: BfpFormat) -> np.ndarray:
    """Quantize ``x`` to BFP and return the dequantized float32 array."""
    original_shape = np.asarray(x).shape
    blocks = _block_view(x, fmt.block_size)
    mantissas, scale, exponents = _round_blocks(blocks, fmt)
    return (mantissas * scale).reshape(original_shape).astype(np.float32)


#: Arrays with fewer elements round through numpy's float16 cast, which
#: has the lower fixed cost. Measured on a 2-vCPU Xeon with numpy 2.4
#: (median of 15 interleaved timings): the in-place cast took 18.6 us at
#: 2,000 elements and 22.5 us at 2,400 against 19.2 and 21.4 us for the
#: magic-add kernel of :func:`round_float16`, which then wins from
#: 24.0 against 30.2 us at 3,600 to 244 against 627 us at 76,800.
F16_KERNEL_MIN_SIZE = 2048

#: float32 bit pattern of 65520, half way between float16's largest
#: finite value (65504) and the next step (65536). A magnitude at or
#: above it, an infinity or a NaN compares at or above it as an integer.
_F16_OVERFLOW_BITS = 0x477FF000


def round_float16(x: np.ndarray) -> np.ndarray:
    """Round a float32 array the caller owns to float16 values.

    Returns float32 words holding the float16 rounding of every element:
    round-half-even, subnormals kept, magnitudes of 65520 and above
    saturating to ``inf`` (the narrow pipeline word's defined behaviour;
    numpy's overflow warning is suppressed). Rounds ``x`` in place and
    returns it: by numpy's cast below :data:`F16_KERNEL_MIN_SIZE`
    elements, by the magic-add kernel from there on.

    The kernel adds ``C = 2^(max(e, -14) + 13)`` to ``|x|`` (``e`` its
    binary exponent) and subtracts it again: the float32 sum has float16's
    spacing at ``|x|``, so float32's own round-half-even addition does
    the rounding, and the subtraction is exact (docs/NUMERICS.md). ``C``
    comes from the exponent bits: ``max(bits & 0x7F800000, 113 << 23) +
    (13 << 23)``. One integer max over ``|x|``'s bits sends an array
    holding a magnitude of 65520 or more, an infinity or a NaN to
    numpy's cast, which keeps the saturation and the NaN payloads.
    """
    if x.size >= F16_KERNEL_MIN_SIZE:
        magnitude = np.bitwise_and(x.view(np.uint32), 0x7FFFFFFF)
        if magnitude.max() < _F16_OVERFLOW_BITS:
            return _magic_round(x, magnitude)
    with np.errstate(over="ignore"):
        x[...] = x.astype(np.float16)
    return x


def _magic_round(x: np.ndarray,
                 magnitude: Optional[np.ndarray] = None) -> np.ndarray:
    """The kernel of :func:`round_float16`, in place, for float32 ``x``
    whose every magnitude is below 65520 (``magnitude``: the bits of
    ``|x|``, if the caller has them)."""
    if magnitude is None:
        magnitude = np.bitwise_and(x.view(np.uint32), 0x7FFFFFFF)
    # C's bits: float16's smallest normal exponent (-14) as a floor,
    # then 13 more, the float32-float16 mantissa width difference.
    magic = np.maximum(magnitude, 113 << 23)
    np.bitwise_and(magic, 0x7F800000, out=magic)
    np.add(magic, 13 << 23, out=magic)
    c = magic.view(np.float32)
    a = magnitude.view(np.float32)
    np.add(a, c, out=a)
    np.subtract(a, c, out=a)
    np.copysign(a, x, out=x)
    return x


#: The RNN production format used by BW_S10 (Table IV).
MSFP_RNN = BfpFormat(mantissa_bits=2, exponent_bits=5, block_size=128)

#: The CNN format used by BW_CNN_A10 (Table VI).
MSFP_CNN = BfpFormat(mantissa_bits=5, exponent_bits=5, block_size=128)

#: Per-tile variant of the RNN format: one exponent per native row,
#: the cheapest (and noisiest) scaling the datapath supports.
MSFP_RNN_TILE = BfpFormat(mantissa_bits=2, exponent_bits=5, block_size=128,
                          scale_granularity="tile")

#: MX-compliant integer-element formats (OCP Microscaling shape:
#: 32-element blocks scaled by an E8M0 power of two). ``MX_INT8``
#: models MXINT8's sign + 7 magnitude bits; the narrower members keep
#: the MX block/scale shape with Brainwave-style mantissa narrowing.
MX_INT8 = BfpFormat(mantissa_bits=7, exponent_bits=8, block_size=32,
                    scale_encoding="e8m0")
MX_INT6 = BfpFormat(mantissa_bits=5, exponent_bits=8, block_size=32,
                    scale_encoding="e8m0")
MX_INT4 = BfpFormat(mantissa_bits=3, exponent_bits=8, block_size=32,
                    scale_encoding="e8m0")

#: The named format family, for CLI sweeps, the synthesis specializer,
#: and golden-vector conformance suites.
FORMAT_FAMILY: Dict[str, BfpFormat] = {
    "msfp_rnn": MSFP_RNN,
    "msfp_cnn": MSFP_CNN,
    "msfp_rnn_tile": MSFP_RNN_TILE,
    "mx_int8": MX_INT8,
    "mx_int6": MX_INT6,
    "mx_int4": MX_INT4,
}


def named_format(name: str) -> BfpFormat:
    """Look up a format family member by registry name."""
    try:
        return FORMAT_FAMILY[name]
    except KeyError:
        known = ", ".join(sorted(FORMAT_FAMILY))
        raise ConfigError(
            f"unknown numeric format {name!r}; known: {known}") from None
