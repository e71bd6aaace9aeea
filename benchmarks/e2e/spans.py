"""Traced run: attribute host time to repro's modules, from outside.

:func:`installed` wraps each public entry point listed in
:data:`ENTRY_POINTS` — by patching class attributes and module-level
import sites at run time, never by editing the program — with a span
recorder.  A span has a name, start, end, a parent taken from the call
stack, and the id of the request being served; a layer's self time is
its span's duration minus the time its child spans cover.

:func:`layer_metrics` turns the recorded spans into the per-layer
metrics, normalised per request, step or dispatch; ``BENCHMARK.json``
names the ones the benchmark reports.  Entry points that
no longer exist are reported absent and never crash the run.  The
recorder also checks that the self times summed over all spans plus the
unattributed time reconcile with the traced wall total.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _steps(bindings) -> int:
    steps = 1
    for value in dict(bindings or {}).values():
        steps *= int(value)
    return steps


def _size(args, kwargs, result) -> Dict[str, float]:
    return {"elements": float(getattr(args[0], "size", 0))}


def _tiles(args, kwargs, result) -> Dict[str, float]:
    return {"tiles": float(result or 0)}


def _run_units(args, kwargs, result) -> Dict[str, float]:
    compiled = bool(_arg(args, kwargs, 3, "compiled", False))
    return {"steps": float(_steps(_arg(args, kwargs, 2, "bindings"))),
            "compiled": float(compiled), "interpreted": float(not compiled)}


def _batched_run_units(args, kwargs, result) -> Dict[str, float]:
    replay = args[0]
    return {"request_steps": float(
        replay.batch * _steps(replay.plan.bindings_key))}


@dataclasses.dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``module[.owner].attr``."""

    span: str
    layer: str
    module: str
    owner: Optional[str]
    attr: str
    units: Optional[Callable] = None


#: The wrapped public entry points, by layer (module).  The BFP
#: functions are wrapped at their import sites in the functional engine,
#: which is where the serving path calls them.
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("lowering.new_simulator", "compiler.lowering",
               "repro.compiler.lowering", "CompiledModel", "new_simulator"),
    EntryPoint("lowering.run_sequence", "compiler.lowering",
               "repro.compiler.lowering", "CompiledModel", "run_sequence"),
    EntryPoint("lowering.run_sequence_batched", "compiler.lowering",
               "repro.compiler.lowering", "CompiledModel",
               "run_sequence_batched"),
    EntryPoint("executor.sim_init", "functional.executor",
               "repro.functional.executor", "FunctionalSimulator",
               "__init__"),
    EntryPoint("executor.load_matrix", "functional.executor",
               "repro.functional.executor", "FunctionalSimulator",
               "load_matrix", _tiles),
    EntryPoint("executor.run", "functional.executor",
               "repro.functional.executor", "FunctionalSimulator", "run",
               _run_units),
    EntryPoint("executor.plan_for", "functional.executor",
               "repro.functional.executor", "FunctionalSimulator",
               "plan_for"),
    EntryPoint("replay.compile_plan", "functional.replay",
               "repro.functional.replay", None, "compile_plan"),
    EntryPoint("replay.batched_init", "functional.replay",
               "repro.functional.replay", "BatchedReplay", "__init__"),
    EntryPoint("replay.batched_run", "functional.replay",
               "repro.functional.replay", "BatchedReplay", "run",
               _batched_run_units),
    EntryPoint("bfp.quantize", "numerics.bfp",
               "repro.functional.executor", None, "quantize", _size),
    EntryPoint("bfp.quantize", "numerics.bfp",
               "repro.functional.replay", None, "quantize", _size),
    EntryPoint("bfp.decompose", "numerics.bfp",
               "repro.functional.executor", None, "decompose", _size),
    EntryPoint("bfp.decompose", "numerics.bfp",
               "repro.functional.replay", None, "decompose", _size),
    EntryPoint("timing.run", "timing.scheduler",
               "repro.timing.scheduler", "TimingSimulator", "run"),
    EntryPoint("microservice.invoke", "system.microservice",
               "repro.system.microservice", "HardwareMicroservice",
               "invoke"),
    EntryPoint("microservice.invoke_batched", "system.microservice",
               "repro.system.microservice", "HardwareMicroservice",
               "invoke_batched"),
    EntryPoint("microservice.compute_latency", "system.microservice",
               "repro.system.microservice", "FpgaNode",
               "compute_latency_s"),
    EntryPoint("microservice.run_functional", "system.microservice",
               "repro.system.microservice", "FpgaNode", "run_functional"),
    EntryPoint("microservice.run_functional_batched",
               "system.microservice", "repro.system.microservice",
               "FpgaNode", "run_functional_batched"),
    EntryPoint("batching.run", "system.batching",
               "repro.system.batching", "DynamicBatcher", "run"),
    EntryPoint("cluster.run", "system.cluster",
               "repro.system.cluster", "ClusterSimulator", "run"),
    EntryPoint("monitor.scrape", "system.monitor",
               "repro.system.monitor", "FleetMonitor", "scrape"),
)


#: Raw spans kept for the Chrome trace; later spans still count in the
#: per-span totals.
KEEP_SPANS = 50_000


@dataclasses.dataclass
class _Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: Dict[str, float] = dataclasses.field(default_factory=dict)


class SpanRecorder:
    """Collects spans from the wrapped entry points.

    ``region`` separates the traced set-up from the traced timed phase;
    per-span totals are kept per region for every call, the raw spans
    (for the Chrome trace) only up to :data:`KEEP_SPANS`.  Workloads add
    each timed call's wall time to :attr:`window_s`; root spans inside
    the timed region add to the covered time, and whatever the windows
    hold beyond it is unattributed.
    """

    def __init__(self):
        self.region = "setup"
        self.request: Optional[int] = None
        self.window_s = 0.0
        self.covered_s = 0.0
        self.spans: List[dict] = []
        self.dropped = 0
        self.stats: Dict[Tuple[str, str], _Stat] = {}
        self.layer_of: Dict[str, str] = {}
        #: Entry points that no longer exist, and the spans left with no
        #: wrapped call site at all.
        self.absent: List[str] = []
        self.absent_spans: set = set()
        self._stack: List[list] = []
        self._next_id = 0
        self._t0 = time.perf_counter()

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` of benchmark work done inside the current
        span (host-speed calibration) out of its self time and out of
        the covered time."""
        if self._stack:
            self._stack[-1][0] += seconds
            if self.region == "timed":
                self.covered_s -= seconds

    def stat(self, region: str, span: str) -> _Stat:
        return self.stats.get((region, span)) or _Stat()

    def wrap(self, ep: EntryPoint, fn: Callable) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                elif self.region == "timed":
                    self.covered_s += duration
                units = (ep.units(args, kwargs, result)
                         if ep.units is not None else None)
                self._record(ep.span, span_id, parent, start, duration,
                             duration - frame[0], units)
        return wrapper

    def _record(self, span: str, span_id: int, parent: Optional[int],
                start: float, duration: float, self_s: float,
                units: Optional[Dict[str, float]]) -> None:
        key = (self.region, span)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = _Stat()
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += self_s
        if units:
            for name, value in units.items():
                stat.units[name] = stat.units.get(name, 0.0) + value
        if len(self.spans) >= KEEP_SPANS:
            self.dropped += 1
            return
        self.spans.append({
            "name": span, "cat": self.layer_of.get(span, ""), "ph": "X",
            "ts": (start - self._t0) * 1e6, "dur": duration * 1e6,
            "pid": 1, "tid": 1,
            "args": {"id": span_id, "parent": parent,
                     "request": self.request, "region": self.region,
                     "self_us": self_s * 1e6}})

    def reconciliation(self) -> Dict[str, float]:
        """Self time summed over every timed-region span, plus the
        unattributed time, against the traced wall total."""
        self_s = sum(s.self_s for (region, _), s in self.stats.items()
                     if region == "timed")
        unattributed = max(self.window_s - self.covered_s, 0.0)
        wall = self.window_s
        error = (abs(self_s + unattributed - wall) / wall if wall > 0
                 else 0.0)
        return {"wall_s": wall, "self_sum_s": self_s,
                "unattributed_s": unattributed, "reconcile_error": error}

    def write_chrome(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"traceEvents": self.spans, "displayTimeUnit": "ms",
                       "otherData": {"dropped_spans": self.dropped,
                                     "absent": self.absent}}, fh)


@contextlib.contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every entry point that exists; restore them all on exit."""
    patches = []
    wrapped = set()
    for ep in ENTRY_POINTS:
        recorder.layer_of[ep.span] = ep.layer
        try:
            owner = importlib.import_module(ep.module)
            if ep.owner is not None:
                owner = getattr(owner, ep.owner)
        except (ImportError, AttributeError):
            owner = None
        original = vars(owner).get(ep.attr) if owner is not None else None
        if not callable(original):
            recorder.absent.append(".".join(
                p for p in (ep.module, ep.owner, ep.attr) if p))
            continue
        setattr(owner, ep.attr, recorder.wrap(ep, original))
        patches.append((owner, ep.attr, original))
        wrapped.add(ep.span)
    recorder.absent_spans = {ep.span for ep in ENTRY_POINTS} - wrapped
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def layer_metrics(rec: SpanRecorder, measured, overhead_frac: float
                  ) -> Tuple[Dict[str, float], Dict[str, tuple]]:
    """Per-layer metrics of one traced phase.

    ``overhead_frac`` is ``1 - traced / untraced`` host throughput,
    measured by the caller from the untraced phase.  Returns
    ``(metrics, detail)``: ``metrics`` holds the span-derived counts,
    ratios and shares of the traced host time (0.0 where the workload
    never reaches the code) and the workload's simulated-clock figures;
    ``detail`` maps the finer host-time figures — self milliseconds per
    request, step or dispatch — to ``(value, unit)``, with ``value``
    ``None`` where the workload never reaches the code and ``"absent"``
    where the entry point no longer exists.
    """
    timed = functools.partial(rec.stat, "timed")
    wall = rec.window_s
    reqs = measured.requests
    steps = reqs * measured.steps_per_request
    runs = measured.cluster_runs

    def share(span):
        return _ratio(timed(span).self_s, wall)

    def per_req(span):
        return _ratio(timed(span).calls, reqs)

    def ms(span, den):
        return _ratio(timed(span).self_s * 1e3, den)

    plan_for = timed("executor.plan_for").calls
    run_units = timed("executor.run").units
    batched_calls = timed("lowering.run_sequence_batched").calls
    timing_calls = (rec.stat("setup", "timing.run").calls
                    + timed("timing.run").calls)
    timing_self = (rec.stat("setup", "timing.run").self_s
                   + timed("timing.run").self_s)
    recon = rec.reconciliation()
    metrics = {
        "lowering.new_simulator.calls_per_req":
            per_req("lowering.new_simulator"),
        "lowering.new_simulator.self_share":
            share("lowering.new_simulator"),
        "lowering.run_sequence.self_share": share("lowering.run_sequence"),
        "lowering.run_sequence_batched.self_share":
            share("lowering.run_sequence_batched"),
        "executor.sim_init.calls_per_req": per_req("executor.sim_init"),
        "executor.sim_init.self_share": share("executor.sim_init"),
        "executor.load_matrix.tiles_per_req":
            _ratio(timed("executor.load_matrix").units.get("tiles", 0.0),
                   reqs),
        "executor.load_matrix.self_share": share("executor.load_matrix"),
        "executor.run.interpreted_per_req":
            _ratio(run_units.get("interpreted", 0.0), reqs),
        "executor.run.compiled_per_req":
            _ratio(run_units.get("compiled", 0.0), reqs),
        "executor.run.self_share": share("executor.run"),
        "executor.plan_for.calls_per_req": per_req("executor.plan_for"),
        "replay.compile_plan.calls_per_req": per_req("replay.compile_plan"),
        "replay.plan_hit_ratio":
            (1.0 - timed("replay.compile_plan").calls / plan_for
             if plan_for else None),
        "replay.batched_init.self_share": share("replay.batched_init"),
        "replay.batched_run.self_share": share("replay.batched_run"),
        "bfp.quantize.calls_per_step":
            _ratio(timed("bfp.quantize").calls, steps),
        "bfp.quantize.elements_per_step":
            _ratio(timed("bfp.quantize").units.get("elements", 0.0), steps),
        "bfp.quantize.self_share": share("bfp.quantize"),
        "bfp.decompose.calls_per_req": per_req("bfp.decompose"),
        "bfp.decompose.self_share": share("bfp.decompose"),
        "timing.run.calls": float(timing_calls),
        "microservice.invoke.self_share": share("microservice.invoke"),
        "microservice.invoke_batched.self_share":
            share("microservice.invoke_batched"),
        "microservice.compute_latency.calls_per_req":
            per_req("microservice.compute_latency"),
        "batching.run.self_share": share("batching.run"),
        "cluster.run.self_share": share("cluster.run"),
        "monitor.scrape.calls": _ratio(timed("monitor.scrape").calls, runs),
        "monitor.scrape.self_share": share("monitor.scrape"),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_frac": _ratio(recon["unattributed_s"], wall),
    }
    metrics = {name: float(value or 0.0)
               for name, value in {**measured.sim, **metrics}.items()}

    detail = {
        "lowering.new_simulator.self_ms_per_req":
            (ms("lowering.new_simulator", reqs), "ms/req"),
        "lowering.run_sequence.self_ms_per_req":
            (ms("lowering.run_sequence", reqs), "ms/req"),
        "lowering.run_sequence_batched.self_ms_per_dispatch":
            (ms("lowering.run_sequence_batched", batched_calls),
             "ms/dispatch"),
        "executor.load_matrix.self_ms_per_req":
            (ms("executor.load_matrix", reqs), "ms/req"),
        "executor.run.interpreted_calls":
            (run_units.get("interpreted"), "count"),
        "executor.run.compiled_calls": (run_units.get("compiled"), "count"),
        "executor.run.self_ms_per_step":
            (ms("executor.run", run_units.get("steps")), "ms/step"),
        "executor.plan_for.calls": (float(plan_for), "count"),
        "replay.compile_plan.calls":
            (float(timed("replay.compile_plan").calls), "count"),
        "replay.batched_init.self_ms_per_dispatch":
            (ms("replay.batched_init", timed("replay.batched_init").calls),
             "ms/dispatch"),
        "replay.batched_run.ms_per_request_step":
            (ms("replay.batched_run",
                timed("replay.batched_run").units.get("request_steps")),
             "ms/req-step"),
        "bfp.quantize.self_ms_per_req": (ms("bfp.quantize", reqs), "ms/req"),
        "bfp.decompose.self_ms_per_req":
            (ms("bfp.decompose", reqs), "ms/req"),
        "timing.run.self_ms": (timing_self * 1e3, "ms"),
        "microservice.invoke.self_ms_per_req":
            (ms("microservice.invoke", reqs), "ms/req"),
        "microservice.invoke_batched.self_ms_per_dispatch":
            (ms("microservice.invoke_batched",
                timed("microservice.invoke_batched").calls), "ms/dispatch"),
        "microservice.compute_latency.calls":
            (float(timed("microservice.compute_latency").calls), "count"),
        "batching.run.self_ms_per_dispatch":
            (ms("batching.run", measured.dispatches), "ms/dispatch"),
        "batching.queue_wait_ms_p50":
            (measured.sim.get("batching.queue_wait_ms_p50"), "sim_ms"),
        "batching.queue_wait_ms_p90":
            (measured.sim.get("batching.queue_wait_ms_p90"), "sim_ms"),
        "cluster.run.host_s_per_1m":
            (_ratio(timed("cluster.run").total_s * 1e6, reqs)
             if runs else None, "s/1M-req"),
        "monitor.scrape.self_ms":
            (ms("monitor.scrape", runs), "ms/run"),
        "trace.reconcile_error": (recon["reconcile_error"], "fraction"),
    }
    spans_of: Dict[str, set] = {}
    for ep in ENTRY_POINTS:
        spans_of.setdefault(ep.layer, set()).add(ep.span)
    for layer, spans in spans_of.items():
        self_s = sum(timed(span).self_s for span in spans)
        detail[f"layer.{layer}.self_share"] = (_ratio(self_s, wall),
                                               "fraction")
    detail = {name: ("absent", unit)
              if name.rsplit(".", 1)[0] in rec.absent_spans
              else (value, unit)
              for name, (value, unit) in detail.items()}
    return metrics, detail
