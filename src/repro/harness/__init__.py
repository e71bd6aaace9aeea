"""Experiment harness: table rendering and per-table/figure drivers."""

from .tables import ExperimentTable, fmt
from .experiments import (
    ALL_EXPERIMENTS,
    bw_rnn_report,
    fig2,
    fig7,
    fig8,
    power_efficiency,
    rnn_compiled,
    sdm_gap,
    sdm_latency_ms,
    table1,
    table3,
    table4,
    table5,
    table6,
)

__all__ = [
    "ExperimentTable", "fmt", "ALL_EXPERIMENTS",
    "table1", "fig2", "table3", "table4", "table5", "fig7", "fig8",
    "table6", "sdm_gap", "power_efficiency", "bw_rnn_report",
    "rnn_compiled", "sdm_latency_ms",
]
