"""Critical-path methodology for latency-aware design (paper Section III)."""

from .dfg import (
    Dfg,
    DfgNode,
    conv_layer_dfg,
    dot_depth,
    gru_step_dfg,
    lstm_step_dfg,
    recurrent_cycle_depth,
)
from .udm import udm_cycles
from .sdm import SdmResult, analyze_recurrent as sdm_analyze_recurrent, \
    sdm_cycles_bound, sdm_cycles_scheduled
from . import analytic

__all__ = [
    "Dfg", "DfgNode", "dot_depth", "lstm_step_dfg", "gru_step_dfg",
    "conv_layer_dfg", "recurrent_cycle_depth",
    "udm_cycles",
    "SdmResult", "sdm_analyze_recurrent",
    "sdm_cycles_bound", "sdm_cycles_scheduled", "analytic",
]
