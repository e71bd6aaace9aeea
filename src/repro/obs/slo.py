"""SLO monitoring: error budgets, burn rates, multi-window alerts.

The serving layers define the objective — a fraction of requests must
complete within the deadline (availability) and tail latency must stay
under a bound — and this module turns a
:class:`~repro.obs.timeseries.TimeSeriesStore` of request counters and
latency quantile windows into *alerts*:

* **Error budget**: with availability target ``T``, the budget is
  ``1 - T``; the *burn rate* over a window is
  ``error_fraction / (1 - T)`` — burn 1.0 spends the budget exactly at
  the sustainable pace, burn 10 exhausts it 10x too fast.
* **Multi-window, multi-burn-rate rules** (the SRE-workbook shape): a
  rule fires only while *both* a long window and a short window exceed
  the rule's burn-rate factor.  The long window rejects blips, the
  short window makes the alert *clear* quickly once the incident ends;
  a fast-burn rule pages at a high factor, a slow-burn rule tickets at
  a low one.
* **Latency rules**: the rolling p99 estimate from a merged
  :class:`~repro.obs.timeseries.QuantileWindow` crossing a threshold.

Evaluation is fully vectorized over the window grid (rolling sums via
``cumsum``) and purely deterministic — no RNG, no wall clock — so the
chaos detection scorecard can treat time-to-detect as an exact number.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .timeseries import QuantileWindow, TimeSeriesStore

#: Request-outcome label values that count toward availability.
GOOD_STATUSES = ("served", "brownout")

#: Metric names the cluster monitor publishes (shared with exporters).
REQUESTS_METRIC = "cluster.requests"
LATENCY_METRIC = "cluster.latency_ms"
BACKLOG_METRIC = "cluster.backlog_s"

_SEVERITIES = ("page", "ticket")


@dataclasses.dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alert rule.

    Fires while the error-budget burn rate over the trailing
    ``long_s`` *and* the trailing ``short_s`` both meet ``factor``.
    """

    name: str
    long_s: float
    short_s: float
    factor: float
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.short_s <= 0 or self.long_s < self.short_s:
            raise ValueError(
                f"rule {self.name}: need 0 < short_s <= long_s")
        if self.factor <= 0:
            raise ValueError(f"rule {self.name}: factor must be > 0")
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"rule {self.name}: severity must be one of "
                f"{_SEVERITIES}")


@dataclasses.dataclass(frozen=True)
class LatencyRule:
    """Rolling tail-latency threshold rule (p``q`` over ``window_s``)."""

    name: str
    window_s: float
    threshold_ms: float
    q: float = 99.0
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError(f"rule {self.name}: window_s must be > 0")
        if self.threshold_ms <= 0:
            raise ValueError(
                f"rule {self.name}: threshold_ms must be > 0")
        if not 0 < self.q < 100:
            raise ValueError(f"rule {self.name}: q must be in (0, 100)")
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"rule {self.name}: severity must be one of "
                f"{_SEVERITIES}")


@dataclasses.dataclass(frozen=True)
class BacklogRule:
    """Per-node backlog outlier rule over the scraped node gauges.

    Availability and p99 can stay clean while a mitigation (p2c
    routing, shedding) *masks* a degraded node — the user never sees
    it, but the fleet is running on reduced margin.  This rule looks
    underneath: it fires while the worst per-node backlog exceeds an
    absolute floor *and* a multiple of the fleet median for at least
    ``min_windows`` consecutive windows (saturation everywhere, as in
    pure overload, keeps the ratio near 1 and does not fire).
    """

    name: str = "node_backlog"
    abs_floor_s: float = 5e-3
    rel_factor: float = 6.0
    min_windows: int = 2
    severity: str = "ticket"

    def __post_init__(self) -> None:
        if self.abs_floor_s <= 0 or self.rel_factor < 1:
            raise ValueError(
                f"rule {self.name}: need abs_floor_s > 0 and "
                f"rel_factor >= 1")
        if self.min_windows < 1:
            raise ValueError(
                f"rule {self.name}: min_windows must be >= 1")
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"rule {self.name}: severity must be one of "
                f"{_SEVERITIES}")


@dataclasses.dataclass(frozen=True)
class CapacityRule:
    """Fleet-capacity rule over a scraped node-count gauge.

    The most direct fault signal there is: the failure detector's view
    of live nodes dropping below ``min_fraction`` of the best count
    ever observed.  Fires even when failover and brownout absorb the
    loss so completely that no user-facing metric moves — a fleet
    running a rack short is an incident whether or not users notice.
    """

    name: str = "fleet_capacity"
    metric: str = "cluster.nodes_live"
    min_fraction: float = 0.95
    min_windows: int = 1
    severity: str = "page"

    def __post_init__(self) -> None:
        if not 0 < self.min_fraction <= 1:
            raise ValueError(
                f"rule {self.name}: min_fraction must be in (0, 1]")
        if self.min_windows < 1:
            raise ValueError(
                f"rule {self.name}: min_windows must be >= 1")
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"rule {self.name}: severity must be one of "
                f"{_SEVERITIES}")


@dataclasses.dataclass(frozen=True)
class Alert:
    """One fired alert interval on one scope (fleet or a rack)."""

    rule: str
    severity: str
    scope: str
    start_s: float
    end_s: float
    #: Peak burn rate (burn rules) or peak p-q ms (latency rules).
    peak: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def overlaps(self, start_s: float, end_s: float) -> bool:
        return self.start_s < end_s and start_s < self.end_s

    def render(self) -> str:
        return (f"[{self.severity}] {self.scope:<6} "
                f"{self.start_s:8.3f}s .. {self.end_s:8.3f}s  "
                f"{self.rule} (peak {self.peak:.1f})")


def default_burn_rules(span_s: float) -> List[BurnRateRule]:
    """Fast-page + slow-ticket rule pair scaled to a run's duration.

    Production rules quote wall-clock windows (1 h/5 m, 6 h/30 m); a
    simulated scenario lasts seconds, so the windows scale with the
    run: the fast rule looks at 4%/1% of the span at burn 8, the slow
    rule at 12%/3% at burn 2.5.
    """
    if span_s <= 0:
        raise ValueError("span_s must be positive")
    return [
        BurnRateRule("fast_burn", long_s=0.04 * span_s,
                     short_s=0.01 * span_s, factor=8.0,
                     severity="page"),
        BurnRateRule("slow_burn", long_s=0.12 * span_s,
                     short_s=0.03 * span_s, factor=2.5,
                     severity="ticket"),
    ]


def rolling_sum(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing-window sums (expanding until ``window`` is filled)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    cum = np.cumsum(values, dtype=np.float64)
    out = cum.copy()
    if window < out.size:
        out[window:] = cum[window:] - cum[:-window]
    return out


def _erode(fire: np.ndarray, min_windows: int) -> np.ndarray:
    """Keep only windows where ``fire`` has held for ``min_windows``
    consecutive windows (debounce against single-window blips)."""
    if min_windows <= 1:
        return fire
    held = fire.copy()
    for k in range(1, min_windows):
        held[k:] &= fire[:-k]
        held[:k] = False
    return held


def _fire_intervals(fire: np.ndarray, peaks: np.ndarray,
                    start_s: float, interval_s: float
                    ) -> List[Tuple[float, float, float]]:
    """Contiguous ``True`` runs of ``fire`` as (start, end, peak)."""
    out: List[Tuple[float, float, float]] = []
    idx = np.nonzero(fire)[0]
    if idx.size == 0:
        return out
    breaks = np.nonzero(np.diff(idx) > 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    for a, b in zip(starts, ends):
        lo, hi = int(idx[a]), int(idx[b])
        out.append((start_s + lo * interval_s,
                    start_s + (hi + 1) * interval_s,
                    float(peaks[lo:hi + 1].max())))
    return out


def request_series(store: TimeSeriesStore, scope: str
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """(good, total) request counts per window for one scope."""
    windows = store.windows
    good = np.zeros(windows, dtype=np.float64)
    total = np.zeros(windows, dtype=np.float64)
    for series in store.find(REQUESTS_METRIC, scope=scope):
        inc = series.aligned(windows)
        total += inc
        if series.labels.get("status") in GOOD_STATUSES:
            good += inc
    return good, total


def availability_series(store: TimeSeriesStore, scope: str = "fleet"
                        ) -> np.ndarray:
    """Per-window availability for a scope (``nan`` where no traffic)."""
    good, total = request_series(store, scope)
    out = np.full(store.windows, np.nan, dtype=np.float64)
    has = total > 0
    out[has] = good[has] / total[has]
    return out


class SloMonitor:
    """Evaluates burn-rate and latency alert rules over a store.

    ``availability_target`` is the SLO (e.g. ``0.999``); burn rules
    default to :func:`default_burn_rules` over the store's span, and a
    latency rule is built from ``latency_threshold_ms`` when given.
    Scopes are discovered from the request counters' ``scope`` label
    (the fleet plus each rack), giving the per-failure-domain
    breakdown for free.
    """

    def __init__(self, availability_target: float = 0.999,
                 burn_rules: Optional[Sequence[BurnRateRule]] = None,
                 latency_rules: Optional[Sequence[LatencyRule]] = None,
                 latency_threshold_ms: Optional[float] = None,
                 backlog_rules: Optional[Sequence[BacklogRule]] = None,
                 capacity_rules: Optional[Sequence[CapacityRule]]
                 = None):
        if not 0 < availability_target < 1:
            raise ValueError(
                "availability_target must be in (0, 1)")
        self.availability_target = availability_target
        self.burn_rules = (None if burn_rules is None
                           else list(burn_rules))
        self.latency_rules = (list(latency_rules)
                              if latency_rules is not None else [])
        self.latency_threshold_ms = latency_threshold_ms
        self.backlog_rules = (list(backlog_rules)
                              if backlog_rules is not None else [])
        self.capacity_rules = (list(capacity_rules)
                               if capacity_rules is not None else [])

    @property
    def budget(self) -> float:
        return 1.0 - self.availability_target

    def resolved_rules(self, span_s: float) -> List[BurnRateRule]:
        if self.burn_rules is not None:
            return list(self.burn_rules)
        return default_burn_rules(span_s)

    def resolved_latency_rules(self, span_s: float) -> List[LatencyRule]:
        rules = list(self.latency_rules)
        if self.latency_threshold_ms is not None:
            rules.append(LatencyRule(
                "p99_latency", window_s=0.04 * span_s,
                threshold_ms=self.latency_threshold_ms, q=99.0,
                severity="page"))
        return rules

    def grace_s(self, span_s: float) -> float:
        """How long after a fault ends an alert may legitimately keep
        firing (trailing windows lag by their own length)."""
        longs = [r.long_s for r in self.resolved_rules(span_s)]
        longs += [r.window_s for r in self.resolved_latency_rules(span_s)]
        return max(longs) if longs else 0.0

    # -- evaluation ---------------------------------------------------------

    def _windows_of(self, store: TimeSeriesStore, seconds: float) -> int:
        return max(1, int(round(seconds / store.interval_s)))

    def evaluate(self, store: TimeSeriesStore) -> List[Alert]:
        """All fired alert intervals, deterministic order."""
        alerts: List[Alert] = []
        span = store.span_s
        scopes = store.label_values(REQUESTS_METRIC, "scope")
        for scope in scopes:
            good, total = request_series(store, scope)
            bad = total - good
            for rule in self.resolved_rules(span):
                alerts.extend(self._eval_burn(
                    store, rule, scope, bad, total))
        for rule in self.resolved_latency_rules(span):
            for qw in store.find(LATENCY_METRIC, scope="fleet"):
                alerts.extend(self._eval_latency(store, rule, qw))
        for rule in self.backlog_rules:
            alerts.extend(self._eval_backlog(store, rule))
        for rule in self.capacity_rules:
            alerts.extend(self._eval_capacity(store, rule))
        alerts.sort(key=lambda a: (a.start_s, a.scope, a.rule))
        return alerts

    def _eval_burn(self, store: TimeSeriesStore, rule: BurnRateRule,
                   scope: str, bad: np.ndarray, total: np.ndarray
                   ) -> List[Alert]:
        wl = self._windows_of(store, rule.long_s)
        ws = self._windows_of(store, rule.short_s)
        tl = rolling_sum(total, wl)
        ts = rolling_sum(total, ws)
        burn_l = rolling_sum(bad, wl) / np.maximum(tl, 1.0) / self.budget
        burn_s = rolling_sum(bad, ws) / np.maximum(ts, 1.0) / self.budget
        fire = ((burn_l >= rule.factor) & (burn_s >= rule.factor)
                & (tl > 0))
        return [Alert(rule.name, rule.severity, scope, a, b, peak)
                for a, b, peak in _fire_intervals(
                    fire, burn_l, store.start_s, store.interval_s)]

    def _eval_latency(self, store: TimeSeriesStore, rule: LatencyRule,
                      qw: QuantileWindow) -> List[Alert]:
        w = self._windows_of(store, rule.window_s)
        series = qw.series(rule.q, window_len=w)
        with np.errstate(invalid="ignore"):
            fire = np.nan_to_num(series, nan=0.0) > rule.threshold_ms
        return [Alert(rule.name, rule.severity, "fleet", a, b, peak)
                for a, b, peak in _fire_intervals(
                    fire, np.nan_to_num(series, nan=0.0),
                    store.start_s, store.interval_s)]

    def _eval_backlog(self, store: TimeSeriesStore,
                      rule: BacklogRule) -> List[Alert]:
        gauges = [g for g in store.find(BACKLOG_METRIC)
                  if "node" in g.labels]
        if not gauges:
            return []
        grid = np.vstack([g.aligned(store.windows) for g in gauges])
        worst = grid.max(axis=0)
        median = np.median(grid, axis=0)
        fire = ((worst > rule.abs_floor_s)
                & (worst > rule.rel_factor * np.maximum(median, 1e-12)))
        fire = _erode(fire, rule.min_windows)
        return [Alert(rule.name, rule.severity, "fleet", a, b, peak)
                for a, b, peak in _fire_intervals(
                    fire, worst, store.start_s, store.interval_s)]

    def _eval_capacity(self, store: TimeSeriesStore,
                       rule: CapacityRule) -> List[Alert]:
        alerts: List[Alert] = []
        for gauge in store.find(rule.metric, scope="fleet"):
            vals = gauge.aligned(store.windows)
            ref = float(vals.max())
            if ref <= 0:
                continue
            fire = (vals > 0) & (vals < rule.min_fraction * ref)
            fire = _erode(fire, rule.min_windows)
            missing = ref - vals
            alerts.extend(
                Alert(rule.name, rule.severity, "fleet", a, b, peak)
                for a, b, peak in _fire_intervals(
                    fire, missing, store.start_s, store.interval_s))
        return alerts


def merge_alerts(alerts: Sequence[Alert],
                 join_gap_s: float = 0.0) -> List[Alert]:
    """Coalesce per-rule alerts into per-scope *incidents*.

    Overlapping (or within ``join_gap_s`` of each other) alerts on the
    same scope merge into one incident carrying the union interval,
    the highest severity, the max peak, and the joined rule names —
    the unit the detection scorecard counts, so one fault detected by
    three rules is one true positive, not three.
    """
    by_scope: Dict[str, List[Alert]] = {}
    for alert in alerts:
        by_scope.setdefault(alert.scope, []).append(alert)
    out: List[Alert] = []
    for scope in sorted(by_scope):
        group = sorted(by_scope[scope], key=lambda a: a.start_s)
        cur: Optional[Alert] = None
        rules: List[str] = []
        for alert in group:
            if cur is None or alert.start_s > cur.end_s + join_gap_s:
                if cur is not None:
                    out.append(dataclasses.replace(
                        cur, rule="+".join(sorted(set(rules)))))
                cur = alert
                rules = [alert.rule]
            else:
                rules.append(alert.rule)
                cur = dataclasses.replace(
                    cur,
                    end_s=max(cur.end_s, alert.end_s),
                    severity=("page" if "page" in (cur.severity,
                                                   alert.severity)
                              else cur.severity),
                    peak=max(cur.peak, alert.peak))
        if cur is not None:
            out.append(dataclasses.replace(
                cur, rule="+".join(sorted(set(rules)))))
    out.sort(key=lambda a: (a.start_s, a.scope))
    return out
