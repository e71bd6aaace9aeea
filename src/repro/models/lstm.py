"""Reference LSTM (Hochreiter & Schmidhuber) in numpy.

Matches the structure of the paper's Section IV-C LSTM listing: per gate
g in {f, i, o, c}, ``pre_g = x W_g + b_g + h U_g``; then

    f, i, o = sigmoid(pre_f), sigmoid(pre_i), sigmoid(pre_o)
    c_t = f * c_{t-1} + i * tanh(pre_c)
    h_t = o * tanh(c_t)

Used as ground truth for the functional simulator and as the op-count /
data-size oracle for the critical-path analysis (Table I).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

GATES = ("f", "i", "o", "c")


@dataclasses.dataclass(frozen=True)
class LstmShape:
    """Static shape metadata for an LSTM layer."""

    hidden_dim: int
    input_dim: int
    time_steps: int = 1

    @property
    def matmul_ops_per_step(self) -> int:
        """Multiply and add ops in the eight GEMVs of one timestep."""
        h, x = self.hidden_dim, self.input_dim
        return 2 * 4 * (h * x + h * h)

    @property
    def pointwise_ops_per_step(self) -> int:
        """Point-wise ops per step: 4 bias adds, 4 recurrent adds,
        3 sigmoids, 2 tanhs, 3 Hadamards, 1 add."""
        return 17 * self.hidden_dim

    @property
    def ops_per_step(self) -> int:
        return self.matmul_ops_per_step + self.pointwise_ops_per_step

    @property
    def total_ops(self) -> int:
        return self.ops_per_step * self.time_steps

    @property
    def parameter_count(self) -> int:
        h, x = self.hidden_dim, self.input_dim
        return 4 * (h * x + h * h + h)


class LstmReference:
    """A concrete LSTM with materialized weights."""

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

    def shape(self, time_steps: int = 1) -> LstmShape:
        return LstmShape(self.hidden_dim, self.input_dim, time_steps)

    def step(self, x: np.ndarray, h: np.ndarray, c: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
        """One timestep; returns ``(h_t, c_t)``."""

        def pre(gate: str) -> np.ndarray:
            return (self.W[gate] @ x + self.b[gate] + self.U[gate] @ h)

        f = _sigmoid(pre("f"))
        i = _sigmoid(pre("i"))
        o = _sigmoid(pre("o"))
        c_tilde = np.tanh(pre("c"))
        c_t = f * c + i * c_tilde
        h_t = o * np.tanh(c_t)
        return h_t.astype(np.float32), c_t.astype(np.float32)

    def run(self, xs: List[np.ndarray],
            h0: Optional[np.ndarray] = None,
            c0: Optional[np.ndarray] = None) -> List[np.ndarray]:
        """Run a sequence; returns the per-step hidden states."""
        h = (np.zeros(self.hidden_dim, dtype=np.float32)
             if h0 is None else np.asarray(h0, dtype=np.float32))
        c = (np.zeros(self.hidden_dim, dtype=np.float32)
             if c0 is None else np.asarray(c0, dtype=np.float32))
        outputs: List[np.ndarray] = []
        for x in xs:
            h, c = self.step(np.asarray(x, dtype=np.float32), h, c)
            outputs.append(h)
        return outputs


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return (1.0 / (1.0 + np.exp(-x.astype(np.float64)))).astype(np.float32)
