"""Exact vector kernels for the point-wise (MFU) operations.

The MFU datapath executes secondary operations as float16 (Section VI);
each kernel computes in float32 and rounds the result to float16 unless
``exact`` is requested (used when verifying program structure independent
of numerics).
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..isa.opcodes import Opcode
from ..numerics.bfp import round_float16


def _finish(x: np.ndarray, exact: bool) -> np.ndarray:
    """Round a kernel's own fresh float32 output to float16, in place
    where :func:`~repro.numerics.bfp.round_float16` can."""
    if not isinstance(x, np.ndarray):  # 0-d operands give numpy scalars
        x = np.asarray(x)
    return x if exact else round_float16(x)


def vv_add(a: np.ndarray, b: np.ndarray, exact: bool = False) -> np.ndarray:
    """Point-wise addition (``vv_add``)."""
    return _finish(np.asarray(a, np.float32) + np.asarray(b, np.float32),
                   exact)


def vv_a_sub_b(a: np.ndarray, b: np.ndarray,
               exact: bool = False) -> np.ndarray:
    """Point-wise subtraction, chain value is the minuend."""
    return _finish(np.asarray(a, np.float32) - np.asarray(b, np.float32),
                   exact)


def vv_b_sub_a(a: np.ndarray, b: np.ndarray,
               exact: bool = False) -> np.ndarray:
    """Point-wise subtraction, chain value is the subtrahend."""
    return _finish(np.asarray(b, np.float32) - np.asarray(a, np.float32),
                   exact)


def vv_max(a: np.ndarray, b: np.ndarray, exact: bool = False) -> np.ndarray:
    """Point-wise maximum."""
    return _finish(np.maximum(np.asarray(a, np.float32),
                              np.asarray(b, np.float32)), exact)


def vv_mul(a: np.ndarray, b: np.ndarray, exact: bool = False) -> np.ndarray:
    """Hadamard (element-wise) product."""
    return _finish(np.asarray(a, np.float32) * np.asarray(b, np.float32),
                   exact)


def v_relu(a: np.ndarray, exact: bool = False) -> np.ndarray:
    """Point-wise rectified linear unit."""
    return _finish(np.maximum(np.asarray(a, np.float32), np.float32(0.0)),
                   exact)


def v_sigm(a: np.ndarray, exact: bool = False) -> np.ndarray:
    """Point-wise logistic sigmoid (saturates cleanly at the rails)."""
    a64 = np.asarray(a, dtype=np.float64)
    with np.errstate(over="ignore"):
        return _finish((1.0 / (1.0 + np.exp(-a64))).astype(np.float32),
                       exact)


def v_tanh(a: np.ndarray, exact: bool = False) -> np.ndarray:
    """Point-wise hyperbolic tangent."""
    return _finish(np.tanh(np.asarray(a, dtype=np.float64))
                   .astype(np.float32), exact)


#: Two-operand point-wise kernels indexed by opcode.
BINARY_KERNELS: Dict[Opcode, Callable] = {
    Opcode.VV_ADD: vv_add,
    Opcode.VV_A_SUB_B: vv_a_sub_b,
    Opcode.VV_B_SUB_A: vv_b_sub_a,
    Opcode.VV_MAX: vv_max,
    Opcode.VV_MUL: vv_mul,
}

#: One-operand point-wise kernels indexed by opcode.
UNARY_KERNELS: Dict[Opcode, Callable] = {
    Opcode.V_RELU: v_relu,
    Opcode.V_SIGM: v_sigm,
    Opcode.V_TANH: v_tanh,
}
