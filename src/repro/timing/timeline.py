"""Schedule visualization: text Gantt charts of chain execution.

Renders chain schedules as an ASCII timeline, one row per chain, so the
two performance regimes are visible at a glance: back-to-back MVM
occupancy for large models, and the chain-setup spacing floor for small
ones. The renderer reads the chain spans a :class:`~repro.obs.Tracer`
captured from a :class:`~repro.timing.scheduler.TimingSimulator` run
(:func:`records_from_trace`); :func:`occupancy` and
:func:`occupancy_from_trace` summarize the same schedule from the
:class:`~repro.timing.report.TimingReport` and from the trace.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..errors import ExecutionError
from ..obs import Tracer
from .report import ChainRecord, TimingReport


@dataclasses.dataclass(frozen=True)
class OccupancySummary:
    """Aggregate resource occupancy over a run."""

    total_cycles: float
    mvm_busy_cycles: float
    chains: int
    mvm_chains: int

    @property
    def mvm_occupancy(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.mvm_busy_cycles / self.total_cycles

    def render(self) -> str:
        return (f"{self.chains} chains ({self.mvm_chains} with mv_mul), "
                f"{self.total_cycles:.0f} cycles, MVM busy "
                f"{100 * self.mvm_occupancy:.1f}%")


def occupancy(report: TimingReport) -> OccupancySummary:
    """Summarize resource occupancy of a run."""
    mvm_chains = 0
    if report.records is not None:
        mvm_chains = sum(1 for r in report.records if r.has_mv_mul)
    return OccupancySummary(
        total_cycles=report.total_cycles,
        mvm_busy_cycles=report.mvm_busy_cycles,
        chains=report.chains_executed,
        mvm_chains=mvm_chains)


def records_from_trace(tracer: Tracer) -> List[ChainRecord]:
    """Rebuild :class:`ChainRecord` rows from a scheduler trace.

    The :class:`~repro.timing.scheduler.TimingSimulator` emits one
    ``chain`` span per scheduled vector chain with the record's fields
    as attributes; this inverts that mapping so the Gantt renderer (and
    anything else built on records) runs off shared span data.
    """
    records = []
    for span in tracer.spans:
        if span.name != "chain" or "issue" not in span.attrs:
            continue
        a = span.attrs
        records.append(ChainRecord(
            index=a["index"], start=span.start, issue=a["issue"],
            depth_first=a["depth_first"], completion=span.end,
            has_mv_mul=a["mv_mul"], rows=a["rows"], cols=a["cols"]))
    return records


def occupancy_from_trace(tracer: Tracer) -> OccupancySummary:
    """Occupancy summary computed purely from a scheduler trace.

    Matches :func:`occupancy` of the same run exactly: total cycles
    come from the root ``run`` span, MVM-busy cycles from summing the
    chain spans' ``issue`` attributes in recording order (the same
    accumulation the scheduler performs).
    """
    runs = [s for s in tracer.spans if s.name == "run"]
    if not runs:
        raise ExecutionError(
            "trace has no 'run' span; pass the tracer to "
            "TimingSimulator and run a program first")
    run = runs[-1]
    mvm_busy = 0.0
    chains = 0
    mvm_chains = 0
    for span in tracer.spans:
        if span.name == "chain" and "issue" in span.attrs \
                and span.parent == run.id:
            chains += 1
            if span.attrs["mv_mul"]:
                mvm_chains += 1
                mvm_busy += span.attrs["issue"]
        elif span.name == "transfer" and span.parent == run.id:
            chains += 1
    return OccupancySummary(
        total_cycles=run.end - run.start, mvm_busy_cycles=mvm_busy,
        chains=chains, mvm_chains=mvm_chains)


def render_trace_timeline(tracer: Tracer, width: int = 72,
                          max_chains: int = 48,
                          labels: Optional[List[str]] = None) -> str:
    """Render a scheduler trace's chain schedule as an ASCII Gantt chart.

    ``M`` marks an ``mv_mul`` chain's issue window, ``=`` a point-wise
    chain's, and ``-`` the pipeline drain to completion. At most
    ``max_chains`` rows are drawn; ``labels`` names rows by chain index.
    """
    all_records = records_from_trace(tracer)
    records = all_records[:max_chains]
    summary = occupancy_from_trace(tracer)
    if not records:
        return "(no chains executed)"
    t0 = min(r.start for r in records)
    t1 = max(r.completion for r in records)
    span = max(t1 - t0, 1.0)
    scale = (width - 1) / span

    def col(t: float) -> int:
        return int((t - t0) * scale)

    lines = [f"timeline: {len(records)} chains over "
             f"{span:.0f} cycles (1 col ~ {span / width:.0f} cyc)"]
    for rec in records:
        row = [" "] * width
        a = col(rec.start)
        b = max(col(rec.start + rec.issue), a + 1)
        c = max(col(rec.completion), b)
        mark = "M" if rec.has_mv_mul else "="
        for x in range(a, min(b, width)):
            row[x] = mark
        for x in range(b, min(c, width)):
            row[x] = "-"
        # Labels are addressed by the record's chain index, not its row
        # position: a timeline truncated to max_chains (or with matrix
        # chains interleaved) must still pair each row with its own
        # label.
        label = labels[rec.index] if labels and rec.index < len(labels) \
            else f"#{rec.index}"
        lines.append(f"{label:>10} |{''.join(row)}|")
    if len(all_records) > len(records):
        lines.append(f"... {len(all_records) - len(records)} more "
                     "chains not shown")
    lines.append(summary.render())
    return "\n".join(lines)
