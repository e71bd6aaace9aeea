"""Chaos detection scorecard: alerts vs. ground-truth fault intervals.

The chaos injector knows exactly when each fault started and ended, so
the monitoring plane can be *scored* instead of trusted: join the
incidents :func:`~repro.obs.slo.merge_alerts` produced against the
injected fault intervals and report

* **MTTD** — mean time from fault start to the first overlapping
  incident's start (only over detected faults),
* **precision** — fraction of incidents that overlap some fault
  (within a grace period for trailing-window lag),
* **recall** — fraction of faults some incident overlaps,
* **false-alarm rate** — spurious incidents per simulated minute.

Matching is interval overlap on ``[fault.start, fault.end + grace)``.
Scope is *reported*, not required for a match: a rack-scoped alert
detecting a fleet-wide overload still counts, but the scorecard tracks
how many detections came from the matching failure domain.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from .slo import Alert


@dataclasses.dataclass(frozen=True)
class FaultInterval:
    """One ground-truth injected fault: what, where, and when."""

    kind: str
    scope: str
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def render(self) -> str:
        return (f"{self.kind:<14} {self.scope:<6} "
                f"{self.start_s:8.3f}s .. {self.end_s:8.3f}s")


@dataclasses.dataclass(frozen=True)
class FaultMatch:
    """Join row: one fault and the first incident that detected it."""

    fault: FaultInterval
    incident: Optional[Alert]

    @property
    def detected(self) -> bool:
        return self.incident is not None

    @property
    def ttd_s(self) -> float:
        """Time to detect: first alert start minus fault start,
        clamped at zero (an alert already firing when the fault lands
        detects it instantly).  ``nan`` if undetected."""
        if self.incident is None:
            return float("nan")
        return max(0.0, self.incident.start_s - self.fault.start_s)

    @property
    def domain_match(self) -> bool:
        """Did the detecting incident come from the fault's own
        failure domain (same scope, or a fleet-level fault)?"""
        if self.incident is None:
            return False
        return (self.fault.scope == "fleet"
                or self.incident.scope in (self.fault.scope, "fleet"))


@dataclasses.dataclass
class DetectionScorecard:
    """Detection quality for one (scenario, stack) run."""

    scenario: str
    stack: str
    span_s: float
    grace_s: float
    matches: List[FaultMatch]
    incidents: List[Alert]
    true_positive_incidents: int

    @property
    def faults(self) -> int:
        return len(self.matches)

    @property
    def detected(self) -> int:
        return sum(1 for m in self.matches if m.detected)

    @property
    def recall(self) -> float:
        """1.0 when there was nothing to detect."""
        if not self.matches:
            return 1.0
        return self.detected / len(self.matches)

    @property
    def precision(self) -> float:
        """1.0 when nothing fired (no alerts, no false ones)."""
        if not self.incidents:
            return 1.0
        return self.true_positive_incidents / len(self.incidents)

    @property
    def false_alarms(self) -> int:
        return len(self.incidents) - self.true_positive_incidents

    @property
    def false_alarm_rate_per_min(self) -> float:
        if self.span_s <= 0:
            return 0.0
        return self.false_alarms / (self.span_s / 60.0)

    @property
    def mttd_s(self) -> float:
        """Mean time-to-detect over detected faults (``nan`` if none
        were detected — undetected faults are recall's problem)."""
        ttds = [m.ttd_s for m in self.matches if m.detected]
        if not ttds:
            return float("nan")
        return sum(ttds) / len(ttds)

    def render(self) -> str:
        lines = [f"detection scorecard: {self.scenario} "
                 f"[{self.stack}]  span={self.span_s:.3f}s "
                 f"grace={self.grace_s:.3f}s",
                 f"  faults={self.faults} detected={self.detected} "
                 f"recall={self.recall:.2f} "
                 f"precision={self.precision:.2f} "
                 f"mttd={self.mttd_s:.3f}s "
                 f"false_alarms={self.false_alarms} "
                 f"({self.false_alarm_rate_per_min:.2f}/min)"]
        for m in self.matches:
            if m.detected:
                where = ("domain" if m.domain_match else "other-scope")
                lines.append(f"  + {m.fault.render()}  detected in "
                             f"{m.ttd_s:.3f}s by {m.incident.scope} "
                             f"{m.incident.rule} ({where})")
            else:
                lines.append(f"  - {m.fault.render()}  MISSED")
        for inc in self.incidents:
            if not any(m.incident is inc for m in self.matches
                       if m.detected):
                mark = ("false alarm" if not _matches_any(
                    inc, [m.fault for m in self.matches],
                    self.grace_s) else "extra detection")
                lines.append(f"  ! {inc.render()}  [{mark}]")
        return "\n".join(lines)


def _matches_any(incident: Alert, faults: Sequence[FaultInterval],
                 grace_s: float) -> bool:
    return any(incident.overlaps(f.start_s, f.end_s + grace_s)
               for f in faults)


def score_detection(incidents: Sequence[Alert],
                    faults: Sequence[FaultInterval],
                    span_s: float, grace_s: float = 0.0,
                    scenario: str = "", stack: str = ""
                    ) -> DetectionScorecard:
    """Join incidents against ground truth into a scorecard."""
    incidents = sorted(incidents, key=lambda a: (a.start_s, a.scope))
    matches: List[FaultMatch] = []
    for fault in sorted(faults, key=lambda f: (f.start_s, f.scope)):
        hit = None
        for inc in incidents:
            if inc.overlaps(fault.start_s, fault.end_s + grace_s):
                hit = inc
                break
        matches.append(FaultMatch(fault, hit))
    tp = sum(1 for inc in incidents
             if _matches_any(inc, faults, grace_s))
    return DetectionScorecard(
        scenario=scenario, stack=stack, span_s=float(span_s),
        grace_s=float(grace_s), matches=matches,
        incidents=list(incidents), true_positive_incidents=tp)


def scorecard_table(cards: Sequence[DetectionScorecard],
                    title: str = "Chaos detection scorecard"):
    """Suite-level summary table (one row per scenario x stack)."""
    # Imported lazily: harness -> experiments -> system -> obs would
    # otherwise form a cycle at package-init time.
    from ..harness.tables import ExperimentTable
    rows = []
    for c in cards:
        mttd = "-" if c.mttd_s != c.mttd_s else f"{c.mttd_s:.3f}"
        rows.append([c.scenario, c.stack, str(c.faults),
                     str(c.detected), f"{c.recall:.2f}",
                     f"{c.precision:.2f}", mttd,
                     f"{c.false_alarm_rate_per_min:.2f}"])
    return ExperimentTable(
        title=title,
        headers=["scenario", "stack", "faults", "detected", "recall",
                 "precision", "mttd_s", "false/min"],
        rows=rows,
        notes=["MTTD is mean time-to-detect over detected faults; "
               "precision counts incidents overlapping any ground-"
               "truth fault interval (plus grace)."])
