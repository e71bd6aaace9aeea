"""Cycle-level timing model of the BW NPU microarchitecture."""

from .bounds import serial_lower_bound
from .latency import ChainLatency, LatencyConstants, LatencyModel
from .report import ChainRecord, TimingReport
from .scheduler import TimingSimulator, steady_state_cycles_per_step
from .hdd import DecoderNode, HddTree, build_hdd_tree
from .timeline import (
    OccupancySummary,
    occupancy,
    occupancy_from_trace,
    records_from_trace,
    render_trace_timeline,
)

__all__ = [
    "ChainLatency", "LatencyConstants", "LatencyModel", "ChainRecord",
    "TimingReport", "TimingSimulator", "steady_state_cycles_per_step",
    "DecoderNode", "HddTree", "build_hdd_tree",
    "OccupancySummary", "occupancy", "occupancy_from_trace",
    "records_from_trace", "render_trace_timeline",
    "serial_lower_bound",
]
