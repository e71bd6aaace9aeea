"""Structurally-constrained Dataflow Machine (SDM) analysis (Section III).

The SDM shares the functional-unit count of a target implementation
(96,000 MACs for BW_S10) but is otherwise ideal: no decode, memory, or
scheduling overheads. Its latency is "the lowest possible latency under
realistic resource constraints".

Two evaluators are provided:

* :func:`sdm_cycles_bound` — the Graham list-scheduling bound
  ``ceil(work / units) + critical_path``, exact enough to reproduce every
  SDM row of Table V within a few cycles (see DESIGN.md §5);
* :func:`sdm_cycles_scheduled` — an explicit resource-constrained list
  scheduler over the dataflow graph, used on small graphs to validate the
  bound (property-tested: bound >= schedule >= max(work/units, depth)).
"""

from __future__ import annotations

import dataclasses

import math
from typing import Dict, Sequence

from .dfg import Dfg, recurrent_cycle_depth
from .udm import udm_cycles


@dataclasses.dataclass(frozen=True)
class SdmResult:
    """SDM analysis of one workload on a given MAC budget."""

    name: str
    num_macs: int
    cycles: float
    total_ops: int

    def latency_s(self, clock_mhz: float) -> float:
        return self.cycles / (clock_mhz * 1e6)

    def latency_ms(self, clock_mhz: float) -> float:
        return self.latency_s(clock_mhz) * 1e3


def sdm_cycles_bound(dfg: Dfg, num_macs: int) -> float:
    """Graham bound: MAC work serialized over the units plus the
    dataflow critical path."""
    if num_macs <= 0:
        raise ValueError("num_macs must be positive")
    work = math.ceil(dfg.total_macs / num_macs)
    return work + udm_cycles(dfg)


def sdm_cycles_scheduled(dfg: Dfg, num_macs: int) -> float:
    """Explicit list scheduling at vector-operator granularity.

    Each node runs for ``node.depth`` cycles on ``node.macs`` MAC units
    (point-wise work uses the balanced non-MAC units, which the paper
    assumes are never the bottleneck); a node whose MAC demand exceeds
    the free units is split into sequential waves. Greedy
    earliest-ready-first order.
    """
    if num_macs <= 0:
        raise ValueError("num_macs must be positive")
    finish: Dict[str, float] = {}
    # The MAC array is modeled as a full-throughput pipeline: a node's
    # MAC work occupies the array for work/num_macs cycles; its result
    # emerges node.depth cycles after its last wave enters.
    machine_free = 0.0
    for node in dfg.nodes():
        start = max((finish[d] for d in node.deps), default=0.0)
        if node.macs == 0:
            finish[node.name] = start + node.depth
            continue
        start = max(start, machine_free)
        work_cycles = node.macs / num_macs
        machine_free = start + work_cycles
        finish[node.name] = start + work_cycles + node.depth
    return max(finish.values(), default=0.0)


def analyze_recurrent(step_dfg: Dfg, steps: int, num_macs: int,
                      output: str = "h_t",
                      state_inputs: Sequence[str] = ("h_prev",)
                      ) -> SdmResult:
    """SDM analysis of a recurrent evaluation: per-step MAC work plus the
    recurrent-cycle depth, times the step count (the serial dependence
    between steps prevents cross-step MAC overlap on the critical path).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    per_step_work = math.ceil(step_dfg.total_macs / num_macs)
    per_step_depth = recurrent_cycle_depth(step_dfg, output=output,
                                           state_inputs=state_inputs)
    cycles = steps * (per_step_work + per_step_depth)
    return SdmResult(name=f"{step_dfg.name} x{steps}", num_macs=num_macs,
                     cycles=cycles, total_ops=step_dfg.total_ops * steps)
