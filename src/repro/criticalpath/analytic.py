"""Closed-form critical-path expressions (paper Fig. 2).

Fig. 2 annotates the LSTM dataflow with operation count and latency as
functions of the LSTM dimension N and the functional-unit count #FU.
These closed forms mirror the graph-based analyses in
:mod:`repro.criticalpath.udm` / :mod:`repro.criticalpath.sdm` and are
cross-checked against them in the test suite.
"""

from __future__ import annotations

import math
from typing import Optional


def lstm_ops_per_step(n: int, input_dim: Optional[int] = None) -> int:
    """Operations per LSTM timestep: 8 GEMVs plus point-wise tail.

    ``8 N^2`` multiplies and adds dominate (Fig. 2's ``O(N^2)``).
    """
    x = input_dim if input_dim is not None else n
    return 2 * 4 * (n * x + n * n) + 17 * n


def lstm_udm_cycles_per_step(n: int) -> int:
    """UDM latency of one steady-state LSTM timestep.

    The recurrent path: dot product (``1 + ceil(log2 N)``), recurrent
    add, gate activation, Hadamard with the cell state, cell add, tanh,
    output Hadamard — ``ceil(log2 N) + 8`` cycles. For N=2000 this gives
    19, Table I's UDM entry.
    """
    if n < 2:
        raise ValueError("LSTM dimension must be >= 2")
    return math.ceil(math.log2(n)) + 8


def lstm_sdm_cycles_per_step(n: int, num_fus: int,
                             input_dim: Optional[int] = None) -> float:
    """SDM latency of one LSTM timestep with ``num_fus`` MAC units:
    serialized MAC work plus the unavoidable dataflow depth."""
    x = input_dim if input_dim is not None else n
    macs = 4 * (n * x + n * n)
    return math.ceil(macs / num_fus) + lstm_udm_cycles_per_step(n)


def gru_ops_per_step(n: int, input_dim: Optional[int] = None) -> int:
    """Operations per GRU timestep (6 GEMVs plus point-wise tail)."""
    x = input_dim if input_dim is not None else n
    return 2 * 3 * (n * x + n * n) + 14 * n


def conv_udm_cycles(patch_length: int) -> int:
    """UDM latency of a conv layer: one dot product depth plus bias."""
    return 1 + math.ceil(math.log2(patch_length)) + 1
