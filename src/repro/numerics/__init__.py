"""Narrow-precision numerics: block floating point and float16 helpers."""

from .bfp import (
    FORMAT_FAMILY,
    MSFP_CNN,
    MSFP_RNN,
    MSFP_RNN_TILE,
    MX_INT4,
    MX_INT6,
    MX_INT8,
    BfpFormat,
    bfp_dot,
    block_exponents,
    decompose,
    named_format,
    quantization_step,
    quantize,
    quantize_reference,
    quantize_with_info,
    round_float16,
    scales_of,
)
from .analysis import (
    ErrorStats,
    error_stats,
    expected_snr_db,
    mantissa_sweep,
    matvec_stats,
    quantization_stats,
)
from .pareto import (
    ParetoPoint,
    pareto_front,
    render_pareto_table,
    sweep_formats,
)

__all__ = [
    "BfpFormat", "MSFP_RNN", "MSFP_CNN", "MSFP_RNN_TILE",
    "MX_INT4", "MX_INT6", "MX_INT8", "FORMAT_FAMILY", "named_format",
    "bfp_dot", "block_exponents", "decompose", "quantization_step",
    "quantize", "quantize_reference", "quantize_with_info", "scales_of",
    "round_float16",
    "ErrorStats", "error_stats", "expected_snr_db", "mantissa_sweep",
    "matvec_stats", "quantization_stats",
    "ParetoPoint", "pareto_front", "render_pareto_table", "sweep_formats",
]
