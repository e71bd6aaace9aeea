"""Quantization-error analysis for BFP formats.

Supports the Section VI claim that mantissas can be trimmed to 2-5 bits
with small accuracy impact: quantify signal-to-noise ratio and error
statistics of BFP quantization.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .bfp import BfpFormat, quantize


@dataclasses.dataclass(frozen=True)
class ErrorStats:
    """Error statistics of an approximation ``approx`` of ``exact``."""

    snr_db: float
    max_abs_error: float
    mean_abs_error: float
    rel_rms_error: float

    def __str__(self) -> str:
        return (f"SNR {self.snr_db:.1f} dB, max|e| {self.max_abs_error:.3g}, "
                f"rel RMS {self.rel_rms_error:.3g}")


def error_stats(exact: np.ndarray, approx: np.ndarray) -> ErrorStats:
    """Compute error statistics between two arrays of the same shape."""
    exact = np.asarray(exact, dtype=np.float64)
    approx = np.asarray(approx, dtype=np.float64)
    if exact.shape != approx.shape:
        raise ValueError(
            f"shape mismatch: {exact.shape} vs {approx.shape}")
    err = approx - exact
    signal_power = float(np.mean(exact ** 2))
    noise_power = float(np.mean(err ** 2))
    if noise_power == 0:
        snr = float("inf")
    elif signal_power == 0:
        snr = float("-inf")
    else:
        snr = 10.0 * np.log10(signal_power / noise_power)
    rms_exact = float(np.sqrt(signal_power))
    rel_rms = (float(np.sqrt(noise_power)) / rms_exact
               if rms_exact > 0 else float("inf"))
    return ErrorStats(
        snr_db=snr,
        max_abs_error=float(np.max(np.abs(err))) if err.size else 0.0,
        mean_abs_error=float(np.mean(np.abs(err))) if err.size else 0.0,
        rel_rms_error=rel_rms,
    )


def quantization_stats(x: np.ndarray, fmt: BfpFormat) -> ErrorStats:
    """Error statistics of quantizing ``x`` to ``fmt``."""
    return error_stats(x, quantize(x, fmt))
