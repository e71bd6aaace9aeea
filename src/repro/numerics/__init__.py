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
    decompose,
    named_format,
    quantize,
    quantize_reference,
    round_float16,
    scales_of,
)
from .analysis import (
    ErrorStats,
    error_stats,
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
    "decompose", "quantize", "quantize_reference", "scales_of",
    "round_float16", "ErrorStats", "error_stats", "quantization_stats",
    "ParetoPoint", "pareto_front", "render_pareto_table", "sweep_formats",
]
