"""Observability: simulated-time tracing, metrics, trace export.

The paper evaluates the NPU through time-resolved internals — per-chain
issue/drain windows, MVM occupancy (Fig. 7), tail latency under load —
and this package is the uniform layer that surfaces them: a
:class:`Tracer` of nested spans keyed to *simulated* time (cycles,
instruction ticks, or seconds — never wall clock, so traces are
deterministic under fixed seeds), a :class:`Metrics` registry of
counters/gauges/latency histograms, and exporters to Chrome/Perfetto
``trace_event`` JSON, JSONL, and text summaries.

Every hook in the executor, timing model, and serving stack defaults to
:data:`NULL_TRACER` / :data:`NULL_METRICS`, so uninstrumented runs pay
only a no-op call and produce bit-identical results.
"""

from .trace import (
    InstantEvent,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    or_null,
)
from .metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    Metrics,
    NULL_METRICS,
    NullMetrics,
    bucket_quantile,
    default_bounds,
    or_null_metrics,
    percentile,
    percentile_or_nan,
)
from .export import (
    chrome_trace_events,
    from_jsonl,
    summarize,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
)
from .timeseries import (
    CounterSeries,
    GaugeSeries,
    QuantileWindow,
    TimeSeriesStore,
)
from .slo import (
    Alert,
    BacklogRule,
    BurnRateRule,
    CapacityRule,
    LatencyRule,
    SloMonitor,
    availability_series,
    default_burn_rules,
    merge_alerts,
)
from .scorecard import (
    DetectionScorecard,
    FaultInterval,
    score_detection,
    scorecard_table,
)
from .prom import render_prometheus, write_prometheus
from .dashboard import (
    render_html_dashboard,
    render_text_dashboard,
    sparkline,
)

__all__ = [
    "InstantEvent", "NULL_TRACER", "NullTracer", "Span", "Tracer",
    "or_null",
    "Counter", "Gauge", "LatencyHistogram", "Metrics", "NULL_METRICS",
    "NullMetrics", "bucket_quantile", "default_bounds",
    "or_null_metrics", "percentile", "percentile_or_nan",
    "chrome_trace_events", "from_jsonl", "summarize", "to_chrome_trace",
    "to_jsonl", "write_chrome_trace",
    "CounterSeries", "GaugeSeries", "QuantileWindow", "TimeSeriesStore",
    "Alert", "BacklogRule", "BurnRateRule", "CapacityRule",
    "LatencyRule", "SloMonitor",
    "availability_series", "default_burn_rules",
    "merge_alerts",
    "DetectionScorecard", "FaultInterval", "score_detection",
    "scorecard_table",
    "render_prometheus", "write_prometheus",
    "render_html_dashboard", "render_text_dashboard", "sparkline",
]
