"""Unconstrained Dataflow Machine (UDM) analysis (Section III).

The UDM has infinite functional units; serving latency is the dataflow
graph's critical path, counting only unit FU latencies (plus adder-tree
depth inside dot products). It is the lower bound on single-request
latency, "capturing all available parallelism of a single DNN request".
"""

from __future__ import annotations

from .dfg import Dfg


def udm_cycles(dfg: Dfg) -> int:
    """Critical-path cycles of one graph evaluation."""
    return dfg.critical_path()
