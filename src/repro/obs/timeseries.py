"""Fixed-interval time series over simulated time.

:mod:`repro.obs.metrics` holds *point-in-time* instruments: a counter
is one number at the end of a run.  Operating a fleet needs the time
dimension back — when did the error rate spike, how fast is the budget
burning, what was p99 *during* the partition — so this module adds the
storage layer a monitoring plane sits on:

* :class:`CounterSeries` / :class:`GaugeSeries` — fixed-interval
  ring-buffer series.  Counters store per-window increments
  (:meth:`CounterSeries.add_increments` takes the output of one
  ``bincount`` over a whole run); gauges are last-write-wins samples
  taken at scrape instants (:meth:`GaugeSeries.record_values`).
* :class:`QuantileWindow` — a streaming latency-quantile estimator:
  per-window bucket counts over shared log-spaced bounds
  (:meth:`QuantileWindow.add_counts`).  Count grids over the same
  windows and bounds add exactly, so rack grids sum into the fleet
  view without retaining samples (bounded memory by construction).

Ingestion is in bulk only: the monitor bins a whole run per window
with ``bincount`` and hands each series its pre-binned arrays.
* :class:`TimeSeriesStore` — a labeled get-or-create registry of the
  above, sharing one window grid so every series in a run is aligned.

All timestamps are *simulated* seconds (or cycles — the unit is the
caller's), never wall clock: a fixed seed reproduces a byte-identical
store, which is what lets the chaos scorecard treat alert timing as a
deterministic quantity.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .metrics import bucket_quantile, default_bounds

__all__ = [
    "CounterSeries", "GaugeSeries", "QuantileWindow", "RingSeries",
    "TimeSeriesStore", "bucket_quantile", "label_key",
]

#: Canonical label-set key: sorted ``(key, value)`` string pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def label_key(labels: Dict[str, object]) -> LabelKey:
    """Order-independent hashable key for a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class RingSeries:
    """Base fixed-interval ring buffer keyed to a start time.

    Window ``k`` covers ``[start_s + k*interval_s, start_s +
    (k+1)*interval_s)``.  The ring retains the newest ``capacity``
    windows; older windows are evicted (counted in
    :attr:`evicted_windows`) and writes into evicted windows are
    counted in :attr:`dropped_writes` instead of raising — monitoring
    must never take the data plane down with it.
    """

    kind = "series"

    def __init__(self, name: str, interval_s: float,
                 start_s: float = 0.0, capacity: int = 1024,
                 labels: Optional[Dict[str, object]] = None):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.interval_s = float(interval_s)
        self.start_s = float(start_s)
        self.capacity = int(capacity)
        self.labels: Dict[str, str] = {
            str(k): str(v) for k, v in (labels or {}).items()}
        self._values = np.full(self.capacity, np.nan, dtype=np.float64)
        self._first = 0       # oldest retained window index
        self._last = -1       # newest window index ever written
        self.evicted_windows = 0
        self.dropped_writes = 0

    # -- window arithmetic --------------------------------------------------

    def _advance(self, k: int) -> None:
        """Extend the ring through window ``k``, clearing reused slots
        and evicting windows that fall off the back."""
        if k <= self._last:
            return
        lo = max(self._last + 1, k - self.capacity + 1)
        self._values[np.arange(lo, k + 1) % self.capacity] = np.nan
        self._last = k
        first = max(0, k - self.capacity + 1)
        if first > self._first:
            self.evicted_windows += first - self._first
            self._first = first

    # -- reads --------------------------------------------------------------

    @property
    def empty(self) -> bool:
        return self._last < 0

    def values(self) -> np.ndarray:
        """Retained window values, oldest first (``nan`` = no write)."""
        if self.empty:
            return np.empty(0, dtype=np.float64)
        idx = np.arange(self._first, self._last + 1) % self.capacity
        return self._values[idx].copy()

    def aligned(self, windows: int) -> np.ndarray:
        """Values on the grid ``[0, windows)``: retained windows in
        place, zeros elsewhere (``nan`` writes become 0) — the shape
        every vectorized evaluator wants."""
        out = np.zeros(windows, dtype=np.float64)
        if self.empty:
            return out
        vals = np.nan_to_num(self.values(), nan=0.0)
        lo = min(self._first, windows)
        hi = min(self._last + 1, windows)
        out[lo:hi] = vals[:hi - lo]
        return out

    def label_str(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(f"{k}={v}"
                         for k, v in sorted(self.labels.items()))
        return "{" + inner + "}"


class GaugeSeries(RingSeries):
    """Point-in-time samples: last write inside a window wins."""

    kind = "gauge"

    def record_values(self, values: Sequence[float],
                      first_window: int = 0) -> None:
        """Set one sample per window starting at ``first_window`` (last
        write wins) — the flush path for a buffered scrape loop."""
        values = np.asarray(values, dtype=np.float64)
        if first_window < 0:
            raise ValueError("first_window must be >= 0")
        if values.size == 0:
            return
        last = first_window + values.size - 1
        self._advance(last)
        ks = np.arange(first_window, last + 1)
        live = ks >= self._first
        self.dropped_writes += int(np.count_nonzero(~live))
        self._values[ks[live] % self.capacity] = values[live]

    def latest(self) -> float:
        """Newest recorded sample (``nan`` if none)."""
        vals = self.values()
        finite = np.isfinite(vals)
        if not finite.any():
            return float("nan")
        return float(vals[np.nonzero(finite)[0][-1]])


class CounterSeries(RingSeries):
    """Monotonic event counts bucketed per window: slots hold
    per-window *increments*."""

    kind = "counter"

    def add_increments(self, counts: Sequence[float],
                       first_window: int = 0) -> None:
        """Bulk-add pre-binned per-window increments starting at
        ``first_window`` — the output of a shared multi-key
        ``bincount`` pass (one array op instead of re-binning events
        per label set)."""
        counts = np.asarray(counts, dtype=np.float64)
        if first_window < 0:
            raise ValueError("first_window must be >= 0")
        if counts.size == 0 or not counts.any():
            return
        last = first_window + counts.size - 1
        self._advance(last)
        ks = np.arange(first_window, last + 1)
        live = ks >= self._first
        self.dropped_writes += int(counts[~live].sum())
        idx = ks[live] % self.capacity
        self._values[idx] = (np.nan_to_num(self._values[idx], nan=0.0)
                             + counts[live])

    def increments(self) -> np.ndarray:
        """Per-window increments, oldest first (no-write windows = 0)."""
        return np.nan_to_num(self.values(), nan=0.0)

    def total(self) -> float:
        return float(self.increments().sum())


class QuantileWindow:
    """Streaming quantiles: per-window bucket counts.

    Unlike :class:`~repro.obs.metrics.LatencyHistogram` this never
    retains samples — memory is ``windows x (len(bounds)+1)`` counts
    regardless of traffic — and count grids over the same windows and
    bounds add exactly, which is what lets per-rack latency sum into
    the fleet view.
    """

    kind = "quantile"

    def __init__(self, name: str, interval_s: float,
                 start_s: float, windows: int,
                 bounds: Optional[Sequence[float]] = None,
                 labels: Optional[Dict[str, object]] = None):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if windows < 1:
            raise ValueError("windows must be >= 1")
        self.name = name
        self.interval_s = float(interval_s)
        self.start_s = float(start_s)
        self.windows = int(windows)
        self.bounds: Tuple[float, ...] = tuple(
            sorted(bounds if bounds is not None else default_bounds()))
        self.labels: Dict[str, str] = {
            str(k): str(v) for k, v in (labels or {}).items()}
        self.counts = np.zeros((self.windows, len(self.bounds) + 1),
                               dtype=np.int64)
        self.sums = np.zeros(self.windows, dtype=np.float64)

    def add_counts(self, counts: np.ndarray, sums: np.ndarray) -> None:
        """Ingest pre-binned ``(windows, buckets)`` counts (the output
        of a shared multi-key ``bincount`` pass)."""
        self.counts += counts
        self.sums += sums

    @property
    def count(self) -> int:
        return int(self.counts.sum())

    @property
    def total(self) -> float:
        return float(self.sums.sum())

    def quantile(self, q: float, lo: int = 0,
                 hi: Optional[int] = None) -> float:
        """Quantile estimate over windows ``[lo, hi)`` (default all)."""
        hi = self.windows if hi is None else hi
        return bucket_quantile(self.bounds,
                               self.counts[lo:hi].sum(axis=0), q)

    def series(self, q: float, window_len: int = 1) -> np.ndarray:
        """Per-window rolling quantile estimates: entry ``w`` covers
        the ``window_len`` windows ending at ``w`` (expanding at the
        start).  ``nan`` where the rolling window saw no data."""
        if window_len < 1:
            raise ValueError("window_len must be >= 1")
        cum = np.cumsum(self.counts, axis=0)
        out = np.empty(self.windows, dtype=np.float64)
        for w in range(self.windows):
            lo = w - window_len + 1
            rolled = cum[w] if lo <= 0 else cum[w] - cum[lo - 1]
            out[w] = bucket_quantile(self.bounds, rolled, q)
        return out

    def label_str(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(f"{k}={v}"
                         for k, v in sorted(self.labels.items()))
        return "{" + inner + "}"


class TimeSeriesStore:
    """Get-or-create registry of labeled series on one window grid.

    Every series shares ``interval_s``/``start_s``/``windows``, so
    evaluators can align any pair of series by index with no
    resampling; ring capacity defaults to the full grid (nothing
    evicts on bounded simulation runs, but the ring semantics are
    real — see the wrap tests).
    """

    def __init__(self, interval_s: float, start_s: float = 0.0,
                 windows: int = 256,
                 capacity: Optional[int] = None):
        if windows < 1:
            raise ValueError("windows must be >= 1")
        self.interval_s = float(interval_s)
        self.start_s = float(start_s)
        self.windows = int(windows)
        self.capacity = int(capacity if capacity is not None
                            else windows)
        self._series: Dict[Tuple[str, LabelKey], object] = {}

    @property
    def span_s(self) -> float:
        return self.windows * self.interval_s

    def _get(self, name: str, labels: Dict[str, object], factory):
        key = (name, label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = factory()
            self._series[key] = series
        return series

    def counter(self, name: str, **labels) -> CounterSeries:
        series = self._get(name, labels, lambda: CounterSeries(
            name, self.interval_s, self.start_s,
            capacity=self.capacity, labels=labels))
        if not isinstance(series, CounterSeries):
            raise ValueError(f"{name} already registered as "
                             f"{series.kind}")
        return series

    def gauge(self, name: str, **labels) -> GaugeSeries:
        series = self._get(name, labels, lambda: GaugeSeries(
            name, self.interval_s, self.start_s,
            capacity=self.capacity, labels=labels))
        if not isinstance(series, GaugeSeries):
            raise ValueError(f"{name} already registered as "
                             f"{series.kind}")
        return series

    def quantile(self, name: str,
                 bounds: Optional[Sequence[float]] = None,
                 **labels) -> QuantileWindow:
        series = self._get(name, labels, lambda: QuantileWindow(
            name, self.interval_s, self.start_s, self.windows,
            bounds=bounds, labels=labels))
        if not isinstance(series, QuantileWindow):
            raise ValueError(f"{name} already registered as "
                             f"{series.kind}")
        return series

    def all_series(self) -> Iterator[object]:
        """Every registered series, sorted by (name, labels)."""
        for key in sorted(self._series):
            yield self._series[key]

    def find(self, name: str, **labels) -> List[object]:
        """Series matching ``name`` and a label subset."""
        want = {str(k): str(v) for k, v in labels.items()}
        out = []
        for (n, _), series in sorted(self._series.items()):
            if n != name:
                continue
            have = series.labels
            if all(have.get(k) == v for k, v in want.items()):
                out.append(series)
        return out

    def label_values(self, name: str, label: str) -> List[str]:
        """Distinct values of ``label`` across series named ``name``."""
        vals = {s.labels[label] for s in self.find(name)
                if label in s.labels}
        return sorted(vals)

    def render(self) -> str:
        """One line per series: name{labels} kind + scalar summary."""
        lines = [f"time series: {len(self._series)} series, "
                 f"{self.windows} x {self.interval_s:.6g}s windows "
                 f"from t={self.start_s:.6g}"]
        for series in self.all_series():
            label = f"{series.name}{series.label_str()}"
            if series.kind == "counter":
                lines.append(f"  {label}  counter total="
                             f"{series.total():g}")
            elif series.kind == "gauge":
                lines.append(f"  {label}  gauge last="
                             f"{series.latest():g}")
            else:
                lines.append(
                    f"  {label}  quantile n={series.count} "
                    f"p99~{series.quantile(99):.4g}")
        return "\n".join(lines)
