"""Metrics registry: counters, gauges, and latency histograms.

One :class:`Metrics` instance aggregates a run's counters (monotonic
totals: ops executed, faults injected, breaker transitions), gauges
(point-in-time values: HDD fanout, replica counts), and latency
histograms (fixed log-spaced buckets for summaries, plus the exact
sample set so percentiles match ``numpy.percentile`` bit-for-bit — the
benchmark tables must not move when they switch to this helper).

:data:`NULL_METRICS` mirrors :data:`~repro.obs.trace.NULL_TRACER`:
instrumented call sites always hold a registry, and the null one makes
every ``inc``/``set``/``observe`` a no-op.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact linear-interpolated percentile (``numpy.percentile``).

    The single shared implementation behind every ``p50``/``p99``
    property in the repo (serving results, histograms, load results).
    """
    if len(samples) == 0:
        raise ValueError("percentile of an empty sample set")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def percentile_or_nan(samples: Sequence[float], q: float) -> float:
    """Like :func:`percentile`, but ``nan`` for an empty sample set.

    Degenerate result sets (nothing served, everything shed) are
    expected in chaos scenarios; callers pair this with an explicit
    flag (e.g. ``has_latencies``) instead of raising mid-report or
    returning a misleading ``0.0``.
    """
    if len(samples) == 0:
        return float("nan")
    return percentile(samples, q)


@dataclasses.dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclasses.dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


def default_bounds() -> Tuple[float, ...]:
    """Shared log-spaced histogram bounds, 1e-3 .. 1e3.

    Unit-agnostic: ms for serving, kilocycles for the core — callers
    pick the unit when they observe.  The time-series layer reuses the
    same bounds so per-run histograms and per-window quantile streams
    are mergeable views of the same buckets.
    """
    return tuple(float(f"{m:g}") for e in range(-3, 4)
                 for m in (10.0 ** e, 2.5 * 10 ** e, 5 * 10.0 ** e))


# Backwards-compatible alias (pre-timeseries name).
_default_bounds = default_bounds


def bucket_quantile(bounds: Sequence[float], counts: Sequence[float],
                    q: float) -> float:
    """Quantile estimate from bucket counts (linear within buckets).

    ``counts`` has ``len(bounds) + 1`` entries (the last is overflow).
    Returns ``nan`` for an empty histogram; overflow-bucket ranks clamp
    to the largest finite bound (the estimator never invents a value
    beyond what the buckets can support).
    """
    counts = np.asarray(counts, dtype=np.float64)
    total = float(counts.sum())
    if total <= 0:
        return float("nan")
    rank = (q / 100.0) * total
    cum = np.cumsum(counts)
    idx = int(np.searchsorted(cum, rank, side="left"))
    if idx >= len(bounds):
        return float(bounds[-1])
    lo = 0.0 if idx == 0 else float(bounds[idx - 1])
    hi = float(bounds[idx])
    prev = 0.0 if idx == 0 else float(cum[idx - 1])
    in_bucket = float(counts[idx])
    if in_bucket <= 0:
        return hi
    frac = (rank - prev) / in_bucket
    return lo + (hi - lo) * min(max(frac, 0.0), 1.0)


class LatencyHistogram:
    """Fixed-bucket histogram that also retains exact samples.

    Buckets give the cheap at-a-glance shape in text summaries; the
    retained samples give exact percentiles (simulation runs are
    bounded, so keeping them is affordable and keeps benchmark numbers
    identical to the pre-histogram code paths).

    ``max_samples`` bounds the retained-sample list for long-running
    rollups: past the cap, observations still land in the buckets (and
    in ``count``/``total``/``mean``) but the sample is not retained and
    :meth:`percentile` degrades to the bucket estimator.  The default
    (``None``) keeps the historical keep-everything behavior.
    """

    def __init__(self, name: str,
                 bounds: Optional[Sequence[float]] = None,
                 max_samples: Optional[int] = None):
        if max_samples is not None and max_samples < 0:
            raise ValueError("max_samples must be >= 0")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(
            sorted(bounds if bounds is not None else default_bounds()))
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.samples: List[float] = []
        self.max_samples = max_samples
        self.dropped_samples = 0
        self._n = 0
        self._sum = 0.0
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        self._n += 1
        self._sum += value
        if value > self._max:
            self._max = value
        if (self.max_samples is None
                or len(self.samples) < self.max_samples):
            self.samples.append(value)
        else:
            self.dropped_samples += 1
        self.counts[int(np.searchsorted(self.bounds, value))] += 1

    def observe_many(self, values: np.ndarray) -> None:
        """:meth:`observe` each of ``values`` in order, in bulk: the
        same counts, samples, max and sum.  The sum is accumulated in
        order (``np.add.accumulate``), so it rounds as the sequential
        ``+=`` does."""
        values = np.asarray(values, dtype=np.float64)
        if not values.size:
            return
        self._n += int(values.size)
        acc = np.empty(values.size + 1)
        acc[0] = self._sum
        acc[1:] = values
        self._sum = float(np.add.accumulate(acc, out=acc)[-1])
        # fmax skips NaNs, as ``value > self._max`` does.
        top = float(np.fmax.reduce(values))
        if top > self._max:
            self._max = top
        take = values.size if self.max_samples is None else max(
            0, min(values.size, self.max_samples - len(self.samples)))
        self.samples.extend(values[:take].tolist())
        self.dropped_samples += values.size - take
        hits = np.bincount(np.searchsorted(self.bounds, values),
                           minlength=len(self.counts))
        for i in np.flatnonzero(hits):
            self.counts[i] += int(hits[i])

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram (same bounds required).

        Bucket counts and scalar aggregates always merge exactly;
        retained samples carry over only up to ``max_samples``, so a
        rack/fleet rollup histogram stays bounded no matter how many
        per-node histograms fold in.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge {other.name} into {self.name}: "
                f"bucket bounds differ")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self._n += other._n
        self._sum += other._sum
        if other._max > self._max:
            self._max = other._max
        self.dropped_samples += other.dropped_samples
        room = (None if self.max_samples is None
                else self.max_samples - len(self.samples))
        if room is None:
            self.samples.extend(other.samples)
        else:
            take = max(0, min(room, len(other.samples)))
            self.samples.extend(other.samples[:take])
            self.dropped_samples += len(other.samples) - take
        return self

    @property
    def count(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def exact(self) -> bool:
        """True while every observation is retained as a sample."""
        return self.dropped_samples == 0

    def percentile(self, q: float) -> float:
        """Exact sample percentile while :attr:`exact`; bucket
        interpolation once samples have been dropped."""
        if self.exact:
            return percentile(self.samples, q)
        return bucket_quantile(self.bounds, self.counts, q)

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Non-empty ``(upper_bound, count)`` pairs; the final bound is
        ``inf`` (overflow)."""
        edges = list(self.bounds) + [float("inf")]
        return [(edge, n) for edge, n in zip(edges, self.counts) if n]

    def render(self) -> str:
        if not self.count:
            return f"{self.name}: (empty)"
        return (f"{self.name}: n={self.count} mean={self.mean:.4g} "
                f"p50={self.percentile(50):.4g} "
                f"p99={self.percentile(99):.4g} "
                f"max={self._max:.4g}")


class Metrics:
    """Get-or-create registry of named instruments."""

    enabled: bool = True

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None
                  ) -> LatencyHistogram:
        if name not in self.histograms:
            self.histograms[name] = LatencyHistogram(name, bounds)
        return self.histograms[name]

    def render(self) -> str:
        """Text summary table of every instrument, sorted by name."""
        lines: List[str] = []
        if self.counters:
            lines.append("counters:")
            width = max(len(n) for n in self.counters)
            for name in sorted(self.counters):
                value = self.counters[name].value
                text = f"{value:g}" if value != int(value) \
                    else f"{int(value)}"
                lines.append(f"  {name:<{width}}  {text}")
        if self.gauges:
            lines.append("gauges:")
            width = max(len(n) for n in self.gauges)
            for name in sorted(self.gauges):
                lines.append(
                    f"  {name:<{width}}  {self.gauges[name].value:g}")
        if self.histograms:
            lines.append("histograms:")
            for name in sorted(self.histograms):
                lines.append(f"  {self.histograms[name].render()}")
        return "\n".join(lines) if lines else "(no metrics recorded)"


class _NullCounter(Counter):
    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    def set(self, value: float) -> None:
        pass


class _NullHistogram(LatencyHistogram):
    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass


class NullMetrics(Metrics):
    """No-op registry: every instrument lookup returns a shared
    write-ignoring instance."""

    enabled = False

    def __init__(self):
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._histogram = _NullHistogram("null", bounds=(1.0,))

    def counter(self, name: str) -> Counter:
        return self._counter

    def gauge(self, name: str) -> Gauge:
        return self._gauge

    def histogram(self, name, bounds=None) -> LatencyHistogram:
        return self._histogram


#: Shared no-op registry instance.
NULL_METRICS = NullMetrics()


def or_null_metrics(metrics: Optional[Metrics]) -> Metrics:
    """``metrics`` if given, else the shared :data:`NULL_METRICS`."""
    return metrics if metrics is not None else NULL_METRICS
