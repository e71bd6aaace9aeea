"""Functional (architectural) simulation of the BW NPU."""

from .executor import ExecutionStats, FunctionalSimulator
from .replay import BatchedReplay, ReplayPlan, compile_plan
from . import ops

__all__ = [
    "ExecutionStats", "FunctionalSimulator", "ops",
    "BatchedReplay", "ReplayPlan", "compile_plan",
]
