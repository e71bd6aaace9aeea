"""Fleet dashboard renderer: text sparklines and standalone HTML.

Turns one monitored run — a :class:`~repro.obs.timeseries
.TimeSeriesStore`, the merged incidents, the ground-truth fault
intervals, and the detection scorecard — into something a human scans
in five seconds:

* :func:`render_text_dashboard` — ANSI-free terminal view with
  sparkline strips for availability, p99 latency, live nodes, and
  per-rack error rates, followed by the alert/fault timelines and the
  scorecard.
* :func:`render_html_dashboard` — a single self-contained HTML file
  (inline SVG polylines, zero external assets) with fault intervals
  and fired incidents drawn as shaded bands behind each chart.

Both renderers are pure functions of their inputs, so dashboards are
byte-deterministic for a fixed seed and safe to golden-test.
"""

from __future__ import annotations

import html
from typing import List, Optional, Sequence

import numpy as np

from .scorecard import DetectionScorecard, FaultInterval
from .slo import (Alert, LATENCY_METRIC, availability_series,
                  request_series)
from .timeseries import TimeSeriesStore

_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 60,
              lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """Fixed-width ASCII strip: one glyph per downsampled bin.

    ``nan`` renders as a space.  ``lo``/``hi`` pin the scale (so
    availability always plots 0..1); unpinned strips auto-scale.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return " " * width
    # Downsample by taking the mean of each bin (nan-safe).
    edges = np.linspace(0, vals.size, width + 1).astype(int)
    binned = np.full(width, np.nan)
    for i in range(width):
        chunk = vals[edges[i]:max(edges[i + 1], edges[i] + 1)]
        finite = chunk[np.isfinite(chunk)]
        if finite.size:
            binned[i] = finite.mean()
    finite = binned[np.isfinite(binned)]
    if finite.size == 0:
        return " " * width
    vlo = float(finite.min()) if lo is None else lo
    vhi = float(finite.max()) if hi is None else hi
    if vhi <= vlo:
        vhi = vlo + 1.0
    out = []
    for v in binned:
        if not np.isfinite(v):
            out.append(" ")
            continue
        frac = min(max((v - vlo) / (vhi - vlo), 0.0), 1.0)
        out.append(_SPARK_LEVELS[int(round(frac
                                           * (len(_SPARK_LEVELS) - 1)))])
    return "".join(out)


def _p99_series(store: TimeSeriesStore) -> np.ndarray:
    for qw in store.find(LATENCY_METRIC, scope="fleet"):
        return qw.series(99.0, window_len=max(
            1, store.windows // 32))
    return np.full(store.windows, np.nan)


def _live_nodes_series(store: TimeSeriesStore) -> np.ndarray:
    for g in store.find("cluster.nodes_live", scope="fleet"):
        return g.aligned(store.windows)
    return np.full(store.windows, np.nan)


def _error_rate(store: TimeSeriesStore, scope: str) -> np.ndarray:
    good, total = request_series(store, scope)
    out = np.full(store.windows, np.nan)
    has = total > 0
    out[has] = (total[has] - good[has]) / total[has]
    return out


def render_text_dashboard(store: TimeSeriesStore,
                          incidents: Sequence[Alert] = (),
                          faults: Sequence[FaultInterval] = (),
                          scorecard: Optional[DetectionScorecard] = None,
                          title: str = "fleet dashboard",
                          width: int = 60) -> str:
    """The terminal view; every strip spans the full run."""
    span = store.span_s
    avail = availability_series(store)
    p99 = _p99_series(store)
    live = _live_nodes_series(store)
    lines = [f"=== {title} ===",
             f"span: {span:.3f}s in {store.windows} x "
             f"{store.interval_s * 1e3:.3g}ms windows",
             "",
             f"availability  |{sparkline(avail, width, 0.0, 1.0)}|"
             f"  min={np.nanmin(avail) if np.isfinite(avail).any() else float('nan'):.4f}",
             f"p99 latency   |{sparkline(p99, width)}|"
             f"  peak={np.nanmax(p99) if np.isfinite(p99).any() else float('nan'):.3g}ms",
             f"live nodes    |{sparkline(live, width)}|"
             f"  last={live[np.isfinite(live)][-1] if np.isfinite(live).any() else float('nan'):.0f}"]
    racks = [s for s in store.label_values("cluster.requests", "scope")
             if s.startswith("rack")]
    if racks:
        lines.append("")
        lines.append("error rate by failure domain (0..1):")
        for rack in racks:
            err = _error_rate(store, rack)
            peak = (np.nanmax(err)
                    if np.isfinite(err).any() else float("nan"))
            lines.append(f"  {rack:<10}  "
                         f"|{sparkline(err, width, 0.0, 1.0)}|"
                         f"  peak={peak:.3f}")
    if faults:
        lines.append("")
        lines.append("injected faults (ground truth):")
        for f in faults:
            lines.append(f"  {f.render()}")
    lines.append("")
    if incidents:
        lines.append("fired incidents:")
        for inc in incidents:
            lines.append(f"  {inc.render()}")
    else:
        lines.append("fired incidents: none")
    if scorecard is not None:
        lines.append("")
        lines.append(scorecard.render())
    return "\n".join(lines)


# -- HTML ---------------------------------------------------------------------

_HTML_HEAD = """<!doctype html>
<html><head><meta charset="utf-8"><title>{title}</title>
<style>
 body {{ font: 13px/1.5 system-ui, sans-serif; margin: 2em;
        background: #111; color: #ddd; }}
 h1 {{ font-size: 18px; }} h2 {{ font-size: 14px; margin: 1.2em 0 .3em; }}
 svg {{ background: #1a1a1a; border: 1px solid #333; display: block; }}
 .fault {{ fill: #a33; opacity: .25; }}
 .alert {{ fill: #ca4; opacity: .25; }}
 .line {{ fill: none; stroke: #6cf; stroke-width: 1.5; }}
 pre {{ background: #1a1a1a; border: 1px solid #333; padding: .8em;
       overflow-x: auto; }}
 .legend span {{ margin-right: 1.5em; }}
 .chip {{ display: inline-block; width: .8em; height: .8em;
         margin-right: .3em; vertical-align: -1px; }}
</style></head><body>
<h1>{title}</h1>
<div class="legend">
 <span><i class="chip" style="background:#a33;opacity:.5"></i>injected
 fault</span>
 <span><i class="chip" style="background:#ca4;opacity:.5"></i>fired
 incident</span>
 <span><i class="chip" style="background:#6cf"></i>series</span>
</div>
"""


def _svg_chart(title: str, times: np.ndarray, values: np.ndarray,
               span_s: float, incidents: Sequence[Alert],
               faults: Sequence[FaultInterval],
               lo: Optional[float] = None, hi: Optional[float] = None,
               w: int = 900, h: int = 120) -> str:
    vals = np.asarray(values, dtype=np.float64)
    finite = vals[np.isfinite(vals)]
    vlo = (float(finite.min()) if finite.size else 0.0) \
        if lo is None else lo
    vhi = (float(finite.max()) if finite.size else 1.0) \
        if hi is None else hi
    if vhi <= vlo:
        vhi = vlo + 1.0

    def x(t: float) -> float:
        return 0.0 if span_s <= 0 else (t / span_s) * w

    def y(v: float) -> float:
        return h - ((v - vlo) / (vhi - vlo)) * (h - 8) - 4

    parts = [f"<h2>{html.escape(title)} "
             f"<small>[{vlo:.4g} .. {vhi:.4g}]</small></h2>",
             f'<svg width="{w}" height="{h}" viewBox="0 0 {w} {h}">']
    for f in faults:
        parts.append(
            f'<rect class="fault" x="{x(f.start_s):.1f}" y="0" '
            f'width="{max(x(f.end_s) - x(f.start_s), 1.0):.1f}" '
            f'height="{h}"><title>{html.escape(f.kind)} '
            f'{html.escape(f.scope)}</title></rect>')
    for a in incidents:
        parts.append(
            f'<rect class="alert" x="{x(a.start_s):.1f}" '
            f'y="{h * 0.5:.1f}" '
            f'width="{max(x(a.end_s) - x(a.start_s), 1.0):.1f}" '
            f'height="{h * 0.5:.1f}"><title>{html.escape(a.rule)} '
            f'{html.escape(a.scope)}</title></rect>')
    pts = [f"{x(t):.1f},{y(v):.1f}"
           for t, v in zip(times, vals) if np.isfinite(v)]
    if pts:
        parts.append(f'<polyline class="line" '
                     f'points="{" ".join(pts)}"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def render_html_dashboard(store: TimeSeriesStore,
                          incidents: Sequence[Alert] = (),
                          faults: Sequence[FaultInterval] = (),
                          scorecard: Optional[DetectionScorecard] = None,
                          title: str = "fleet dashboard") -> str:
    """One self-contained HTML document (no external assets)."""
    span = store.span_s
    times = store.start_s + (np.arange(store.windows) + 0.5) \
        * store.interval_s
    parts: List[str] = [_HTML_HEAD.format(title=html.escape(title))]
    parts.append(_svg_chart("availability", times,
                            availability_series(store), span,
                            incidents, faults, lo=0.0, hi=1.0))
    parts.append(_svg_chart("p99 latency (ms)", times,
                            _p99_series(store), span, incidents,
                            faults, lo=0.0))
    parts.append(_svg_chart("live nodes", times,
                            _live_nodes_series(store), span,
                            incidents, faults, lo=0.0))
    racks = [s for s in store.label_values("cluster.requests", "scope")
             if s.startswith("rack")]
    for rack in racks:
        rack_faults = [f for f in faults if f.scope in (rack, "fleet")]
        rack_incs = [a for a in incidents if a.scope == rack]
        parts.append(_svg_chart(f"error rate — {rack}", times,
                                _error_rate(store, rack), span,
                                rack_incs, rack_faults,
                                lo=0.0, hi=1.0))
    if scorecard is not None:
        parts.append("<h2>detection scorecard</h2>")
        parts.append(f"<pre>{html.escape(scorecard.render())}</pre>")
    parts.append("<h2>series</h2>")
    parts.append(f"<pre>{html.escape(store.render())}</pre>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
