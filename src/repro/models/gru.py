"""Reference GRU in numpy (cuDNN / DeepBench variant).

The DeepBench GRU (the paper's RNN benchmark suite) applies the reset
gate *after* the recurrent matrix product::

    r = sigmoid(W_r x + U_r h + b_r)
    z = sigmoid(W_z x + U_z h + b_z)
    h~ = tanh(W_h x + r * (U_h h) + b_h)
    h' = (1 - z) * h~ + z * h

This ordering matters for the NPU lowering: ``U_h h`` can be computed
by an mv_mul chain whose MFU section applies the Hadamard with ``r``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

GATES = ("r", "z", "h")


@dataclasses.dataclass(frozen=True)
class GruShape:
    """Static shape metadata for a GRU layer."""

    hidden_dim: int
    input_dim: int
    time_steps: int = 1

    @property
    def matmul_ops_per_step(self) -> int:
        h, x = self.hidden_dim, self.input_dim
        return 2 * 3 * (h * x + h * h)

    @property
    def pointwise_ops_per_step(self) -> int:
        """3 bias adds, 3 recurrent adds, 2 sigmoids, 1 tanh,
        3 Hadamards, 1 subtraction, 1 final add."""
        return 14 * self.hidden_dim

    @property
    def ops_per_step(self) -> int:
        return self.matmul_ops_per_step + self.pointwise_ops_per_step

    @property
    def total_ops(self) -> int:
        return self.ops_per_step * self.time_steps

    @property
    def parameter_count(self) -> int:
        h, x = self.hidden_dim, self.input_dim
        return 3 * (h * x + h * h + h)


class GruReference:
    """A concrete GRU with materialized weights."""

    def __init__(self, hidden_dim: int, input_dim: Optional[int] = None,
                 seed: int = 0, scale: float = 0.2):
        self.hidden_dim = hidden_dim
        self.input_dim = input_dim if input_dim is not None else hidden_dim
        rng = np.random.default_rng(seed)
        self.W: Dict[str, np.ndarray] = {}
        self.U: Dict[str, np.ndarray] = {}
        self.b: Dict[str, np.ndarray] = {}
        for gate in GATES:
            self.W[gate] = rng.uniform(
                -scale, scale, (hidden_dim, self.input_dim)
            ).astype(np.float32)
            self.U[gate] = rng.uniform(
                -scale, scale, (hidden_dim, hidden_dim)).astype(np.float32)
            self.b[gate] = rng.uniform(
                -scale, scale, hidden_dim).astype(np.float32)

    def shape(self, time_steps: int = 1) -> GruShape:
        return GruShape(self.hidden_dim, self.input_dim, time_steps)

    def step(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """One timestep; returns ``h_t``."""
        r = _sigmoid(self.W["r"] @ x + self.U["r"] @ h + self.b["r"])
        z = _sigmoid(self.W["z"] @ x + self.U["z"] @ h + self.b["z"])
        h_tilde = np.tanh(self.W["h"] @ x + r * (self.U["h"] @ h)
                          + self.b["h"])
        h_t = (1.0 - z) * h_tilde + z * h
        return h_t.astype(np.float32)

    def run(self, xs: List[np.ndarray],
            h0: Optional[np.ndarray] = None) -> List[np.ndarray]:
        """Run a sequence; returns the per-step hidden states."""
        h = (np.zeros(self.hidden_dim, dtype=np.float32)
             if h0 is None else np.asarray(h0, dtype=np.float32))
        outputs: List[np.ndarray] = []
        for x in xs:
            h = self.step(np.asarray(x, dtype=np.float32), h)
            outputs.append(h)
        return outputs


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return (1.0 / (1.0 + np.exp(-x.astype(np.float64)))).astype(np.float32)
