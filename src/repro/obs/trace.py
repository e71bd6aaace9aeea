"""Simulated-time tracing: nested spans and instant events.

The repo's clocks are *simulated* — cycles inside the NPU timing model,
instruction ticks inside the functional executor, seconds inside the
serving layer — so a tracer here is not a wall-clock profiler: call
sites pass explicit simulated timestamps, and the exported data is
fully deterministic for a fixed seed (no ``time.time()`` anywhere).

Spans nest via an explicit begin/end stack (the instrumented code is
well-bracketed), carry free-form attributes, and land in a bounded
in-memory buffer; :class:`NullTracer` is the opt-out default so
untraced call sites pay only a no-op method call.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Dict, List, Optional


@dataclasses.dataclass
class Span:
    """One named interval of simulated time."""

    id: int
    name: str
    start: float
    #: Display/grouping row (Chrome-trace thread): "MVM", "client",
    #: a replica node name, ...
    track: str
    parent: Optional[int] = None
    end: Optional[float] = None
    attrs: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


@dataclasses.dataclass(frozen=True)
class InstantEvent:
    """A zero-duration marker (fault injected, breaker transition...)."""

    name: str
    time: float
    track: str
    attrs: Dict[str, object] = dataclasses.field(default_factory=dict)


class Tracer:
    """Collects spans and instant events against a simulated clock.

    Args:
        unit: Label for the timebase — ``"cycles"`` (NPU core),
            ``"instructions"`` (functional executor), or ``"s"``
            (serving layer). Exporters scale timestamps by unit.
        max_events: Buffer bound; spans/events beyond it are counted in
            :attr:`dropped` instead of stored. The first drop emits a
            one-time ``RuntimeWarning`` (silent data loss is how
            truncated traces get mistaken for short runs), and every
            drop increments ``obs.trace.dropped`` on ``metrics``.
        metrics: Optional :class:`~repro.obs.metrics.Metrics` registry
            that receives the ``obs.trace.dropped`` counter.
    """

    enabled: bool = True

    def __init__(self, unit: str = "cycles", max_events: int = 200_000,
                 metrics=None):
        from .metrics import or_null_metrics
        self.unit = unit
        self.max_events = max_events
        self.metrics = or_null_metrics(metrics)
        self.spans: List[Span] = []
        self.events: List[InstantEvent] = []
        self.dropped = 0
        self._drop_warned = False
        self._stack: List[Span] = []
        self._next_id = 0

    def _drop(self, what: str) -> None:
        """Account one dropped span/event — never silently."""
        self.dropped += 1
        self.metrics.counter("obs.trace.dropped").inc()
        if not self._drop_warned:
            self._drop_warned = True
            warnings.warn(
                f"Tracer buffer full ({self.max_events} events): "
                f"dropping {what}s from here on (total drops tracked "
                f"in Tracer.dropped / obs.trace.dropped)",
                RuntimeWarning, stacklevel=3)

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, start: float, track: Optional[str] = None,
              **attrs) -> Span:
        """Open a span at simulated time ``start`` and make it the
        parent of spans recorded until the matching :meth:`end`."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=self._next_id, name=name, start=start,
            track=track if track is not None
            else (parent.track if parent else "main"),
            parent=parent.id if parent else None, attrs=dict(attrs))
        self._next_id += 1
        if len(self.spans) + len(self.events) < self.max_events:
            self.spans.append(span)
        else:
            self._drop("span")
        self._stack.append(span)
        return span

    def end(self, span: Span, end: float, **attrs) -> None:
        """Close ``span`` at simulated time ``end``."""
        span.end = end
        if attrs:
            span.attrs.update(attrs)
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    def span(self, name: str, start: float, end: float,
             track: Optional[str] = None, **attrs) -> Span:
        """Record a complete span (child of the currently open span)."""
        sp = self.begin(name, start, track=track, **attrs)
        self.end(sp, end)
        return sp

    def instant(self, name: str, time: float,
                track: Optional[str] = None, **attrs) -> None:
        """Record a zero-duration event."""
        if len(self.spans) + len(self.events) >= self.max_events:
            self._drop("event")
            return
        default_track = self._stack[-1].track if self._stack else "main"
        self.events.append(InstantEvent(
            name=name, time=time,
            track=track if track is not None else default_track,
            attrs=dict(attrs)))

    # -- queries -----------------------------------------------------------

    def find_events(self, name: Optional[str] = None,
                    track: Optional[str] = None) -> List[InstantEvent]:
        """Instant events filtered by name and/or track."""
        return [e for e in self.events
                if (name is None or e.name == name)
                and (track is None or e.track == track)]


class NullTracer(Tracer):
    """No-op tracer: the default for every instrumented call site, so
    untraced runs pay one virtual call and no allocation per hook."""

    enabled = False
    _NULL_SPAN = Span(id=-1, name="null", start=0.0, track="null")

    def __init__(self):
        super().__init__(unit="null", max_events=0)

    def begin(self, name, start, track=None, **attrs) -> Span:
        return self._NULL_SPAN

    def end(self, span, end, **attrs) -> None:
        pass

    def span(self, name, start, end, track=None, **attrs) -> Span:
        return self._NULL_SPAN

    def instant(self, name, time, track=None, **attrs) -> None:
        pass


#: Shared no-op tracer instance.
NULL_TRACER = NullTracer()


def or_null(tracer: Optional[Tracer]) -> Tracer:
    """``tracer`` if given, else the shared :data:`NULL_TRACER`."""
    return tracer if tracer is not None else NULL_TRACER
