"""Unconstrained Dataflow Machine (UDM) analysis (Section III).

The UDM has infinite functional units; serving latency is the dataflow
graph's critical path, counting only unit FU latencies (plus adder-tree
depth inside dot products). It is the lower bound on single-request
latency, "capturing all available parallelism of a single DNN request".
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from .dfg import Dfg, recurrent_cycle_depth


@dataclasses.dataclass(frozen=True)
class UdmResult:
    """UDM analysis of one workload."""

    name: str
    cycles: int
    total_ops: int
    total_macs: int


def udm_cycles(dfg: Dfg) -> int:
    """Critical-path cycles of one graph evaluation."""
    return dfg.critical_path()


def analyze_recurrent(step_dfg: Dfg, steps: int, output: str = "h_t",
                      state_inputs: Sequence[str] = ("h_prev",),
                      ) -> UdmResult:
    """UDM analysis of a ``steps``-long recurrent evaluation.

    The first step pays the full input-to-output critical path; each
    further step adds only the recurrent-cycle depth (state output to
    state output), since the non-recurrent work of later steps overlaps.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    first = step_dfg.critical_path(sinks=[output])
    per_step = recurrent_cycle_depth(step_dfg, output=output,
                                     state_inputs=state_inputs)
    cycles = first + (steps - 1) * per_step
    return UdmResult(name=f"{step_dfg.name} x{steps}", cycles=cycles,
                     total_ops=step_dfg.total_ops * steps,
                     total_macs=step_dfg.total_macs * steps)
