"""Timing reports: cycles, latency, effective TFLOPS, utilization."""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..config import NpuConfig


@dataclasses.dataclass(frozen=True)
class ChainRecord:
    """Timing of one dynamic chain execution."""

    index: int
    start: float
    issue: float
    depth_first: float
    completion: float
    has_mv_mul: bool
    rows: int
    cols: int


@dataclasses.dataclass
class TimingReport:
    """Result of a timing simulation run."""

    config: NpuConfig
    total_cycles: float
    #: Useful (unpadded, model-level) operations executed.
    nominal_ops: float
    #: Cycles the MVM issue pipeline was occupied.
    mvm_busy_cycles: float
    chains_executed: int
    instructions_dispatched: int
    records: Optional[List[ChainRecord]] = None

    @property
    def latency_s(self) -> float:
        return self.total_cycles * self.config.cycle_time_s

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    @property
    def effective_tflops(self) -> float:
        """Model operations per second of wall-clock latency / 1e12."""
        if self.latency_s == 0:
            return 0.0
        return self.nominal_ops / self.latency_s / 1e12

    @property
    def utilization(self) -> float:
        """Fraction of peak FLOPS achieved (the paper's "% Utilization")."""
        peak = self.config.peak_tflops
        return self.effective_tflops / peak if peak > 0 else 0.0

    @property
    def mvm_occupancy(self) -> float:
        """Fraction of cycles the MVM issue pipeline was busy."""
        if self.total_cycles == 0:
            return 0.0
        return self.mvm_busy_cycles / self.total_cycles
