"""Dynamic batching: SLO-aware request coalescing onto batched replay.

The paper's Section I frames the serving dilemma: "a throughput
architecture must either process these requests individually, leading
to reduced throughput while still sustaining batch-equivalent latency,
or incur increased latency by waiting for multiple request arrivals to
form a batch."  This module implements the second regime end to end
and makes its cost/benefit measurable against the BW batch-1 design:

* :class:`ServiceTimeCurve` — a piecewise-linear batch-size ->
  aggregate-service-time curve, **measured** from batched replay
  wall-clock by :func:`calibrate_batch_curve` rather than hand-written,
  so every queueing simulation downstream is backed by the same
  executable fast path the perf gates check for bit-equality.
* :class:`BatchPolicy` / :class:`AdaptiveBatchPolicy` — static and
  SLO-aware batch formation.  The adaptive policy is a deterministic
  AIMD controller on the *target* batch size: it grows the target while
  observed p99 latency has headroom against the SLO and the queue is
  deep enough to fill bigger batches, and halves it when p99 encroaches
  on the SLO.  No randomness — identical inputs reproduce identical
  target trajectories.
* :class:`DynamicBatcher` — the serving loop: a discrete-event
  simulation of one batching queue in front of one node.  In
  *real-execution* mode it drives
  :meth:`~repro.system.microservice.HardwareMicroservice.invoke_batched`
  so every dispatched batch is one
  :class:`~repro.functional.replay.BatchedReplay` execution with
  per-request outputs bit-identical to sequential invocation; in
  *curve-only* mode service times come from any ``batch -> seconds``
  callable (a measured :class:`ServiceTimeCurve`, or a baseline's
  latency model) and million-request sweeps run in seconds.  It is the
  one offline batch-formation loop: batch-1 serving is
  ``BatchPolicy(max_batch=1, timeout_s=0.0)``.
* :func:`slo_sweep` — the headline benchmark: goodput (requests
  completed within a fixed p99-style SLO per second) of dynamic
  batching vs. the batch-1 server, swept over arrival rates.  Its
  payload feeds ``BENCH_perf.json`` and the CI goodput gate.
* :func:`compare_under_load` — Section I's latency argument: a batch-1
  BW server against a GPU-style batching queue on the same traces.

Simulated time is seconds.  Everything except the wall-clock
calibration itself is deterministic for fixed seeds.
"""

from __future__ import annotations

import bisect
import dataclasses
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..obs import Metrics, Tracer, or_null, or_null_metrics, \
    percentile_or_nan
from .loadgen import ServedRequest, checked_trace, poisson_arrivals
from .microservice import HardwareMicroservice

#: Histogram bucket bounds for batch occupancy (requests per dispatch).
OCCUPANCY_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Histogram bucket bounds for queue wait (seconds).
QUEUE_WAIT_BOUNDS = (1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)


class BatchingError(ReproError):
    """Invalid batching policy, curve, or serving parameters."""


# ---------------------------------------------------------------------------
# Measured batch service-time curves
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ServiceTimeCurve:
    """Aggregate service time of a batch-``b`` dispatch, piecewise
    linear between measured points.

    ``batches`` must start at 1 and increase strictly; ``times_s`` must
    be positive and non-decreasing (a bigger batch never finishes
    sooner in aggregate).  Beyond the last measured point the curve
    extrapolates at the last marginal per-request cost.
    """

    batches: Tuple[int, ...]
    times_s: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.batches) != len(self.times_s) or not self.batches:
            raise BatchingError(
                f"{len(self.batches)} batch sizes vs "
                f"{len(self.times_s)} times; need equal, >= 1")
        if self.batches[0] != 1:
            raise BatchingError(
                f"curve must anchor at batch=1, starts at "
                f"{self.batches[0]}")
        if any(b2 <= b1 for b1, b2 in zip(self.batches,
                                          self.batches[1:])):
            raise BatchingError(
                f"batch sizes must increase strictly: {self.batches}")
        if any(t <= 0 for t in self.times_s):
            raise BatchingError(
                f"service times must be positive: {self.times_s}")
        if any(t2 < t1 for t1, t2 in zip(self.times_s,
                                         self.times_s[1:])):
            raise BatchingError(
                f"aggregate service time must be non-decreasing in "
                f"batch size: {self.times_s}")

    def __call__(self, batch: int) -> float:
        """Aggregate service time (seconds) of one batch-``batch``
        dispatch."""
        if batch < 1:
            raise BatchingError(f"batch must be >= 1, got {batch}")
        bs, ts = self.batches, self.times_s
        if batch <= bs[-1]:
            return float(np.interp(batch, bs, ts))
        if len(bs) == 1:
            return ts[0] * batch
        slope = (ts[-1] - ts[-2]) / (bs[-1] - bs[-2])
        return ts[-1] + slope * (batch - bs[-1])

    def throughput_rps(self, batch: int) -> float:
        """Steady-state throughput at a fixed dispatch size."""
        return batch / self(batch)

    def best_batch(self, max_batch: Optional[int] = None) -> int:
        """The measured dispatch size with the highest throughput."""
        candidates = [b for b in self.batches
                      if max_batch is None or b <= max_batch]
        if not candidates:
            candidates = [1]
        return max(candidates, key=self.throughput_rps)

    def to_json(self) -> Dict:
        return {"batches": list(self.batches),
                "times_s": list(self.times_s)}

    @classmethod
    def from_json(cls, payload: Dict) -> "ServiceTimeCurve":
        return cls(tuple(int(b) for b in payload["batches"]),
                   tuple(float(t) for t in payload["times_s"]))


def calibrate_batch_curve(compiled, batches: Sequence[int] = (1, 2, 4,
                                                             8, 16),
                          steps: int = 8, repeats: int = 3,
                          seed: int = 11) -> ServiceTimeCurve:
    """Measure a :class:`ServiceTimeCurve` from batched replay.

    Runs ``compiled.run_sequence_batched`` at each batch size on
    long-lived warmed simulators (the plan compiles once and the MRF
    pins once, as on the hardware), interleaving timed repetitions
    round-robin across batch sizes so host-speed drift hits every
    point alike, and keeping the best of ``repeats`` per point.  The
    result is wall-clock — a *measurement*, not deterministic — but
    the curve it produces drives only latency models; functional
    outputs always come from the bit-exact replay path itself.

    Aggregate times are clamped monotone non-decreasing before the
    curve is built (timer jitter can otherwise make a larger batch
    appear marginally cheaper in aggregate, which no queueing model
    should believe).
    """
    batches = tuple(sorted(set(int(b) for b in batches)))
    if not batches or batches[0] != 1:
        raise BatchingError(
            f"calibration must include batch=1, got {batches}")
    if steps < 1 or repeats < 1:
        raise BatchingError("steps and repeats must be >= 1")
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(compiled.input_length).astype(np.float32)
          for _ in range(steps)]
    sims = {}
    inputs = {}
    for batch in batches:
        # Distinct lossless power-of-two scalings per request keep the
        # batch from being degenerate identical work.
        inputs[batch] = [[(x * 2.0 ** (-(b % 5))).astype(np.float32)
                          for x in xs] for b in range(batch)]
        sims[batch] = compiled.new_simulator()
        compiled.run_sequence_batched(inputs[batch], sim=sims[batch])
    best = {batch: float("inf") for batch in batches}
    for _ in range(repeats):
        for batch in batches:
            t0 = time.perf_counter()
            compiled.run_sequence_batched(inputs[batch],
                                          sim=sims[batch])
            elapsed = time.perf_counter() - t0
            if elapsed < best[batch]:
                best[batch] = elapsed
    times = np.maximum.accumulate(
        np.asarray([best[b] for b in batches], dtype=np.float64))
    return ServiceTimeCurve(batches, tuple(float(t) for t in times))


# ---------------------------------------------------------------------------
# Batch formation policies
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class BatchPolicy:
    """Static batch formation: dispatch when ``max_batch`` requests
    have queued or the oldest has waited ``timeout_s``."""

    max_batch: int = 16
    timeout_s: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise BatchingError(
                f"max_batch must be >= 1, got {self.max_batch}")
        if self.timeout_s < 0:
            raise BatchingError(
                f"timeout_s must be >= 0, got {self.timeout_s}")


class AdaptiveBatchPolicy:
    """Deterministic SLO-aware controller for the target batch size.

    After every dispatch the controller observes the batch's request
    latencies and the queue depth left behind, then adjusts the target
    dispatch size:

    * **grow** when the queue is at least one full target deep — under
      backlog only a bigger dispatch raises throughput, so growth is
      goodput-optimal no matter what the (queue-dominated) latency
      window says.  With real headroom (windowed p99 below
      ``grow_headroom * slo_s``) the target doubles; with the window
      already queue-poisoned it creeps ``+1``, still climbing out of
      the backlog instead of stalling.
    * **shrink** (multiplicative, halve) when there is *no* backlog
      but the windowed p99 still exceeds ``shrink_headroom * slo_s``
      — latency is batch/timeout-induced, so smaller dispatches are
      the lever.

    Shrinking on queue-dominated latency is the classic adaptive-batch
    death spiral (halving the target cuts throughput, deepening the
    very queue that blew the latency budget); conditioning shrink on a
    shallow queue avoids it. All state is a bounded latency window and
    an integer target; no randomness, so a fixed arrival trace
    reproduces the exact target trajectory (the seed-determinism suite
    asserts this).
    """

    def __init__(self, slo_s: float, min_batch: int = 1,
                 max_batch: int = 16, window: int = 64,
                 grow_headroom: float = 0.5,
                 shrink_headroom: float = 0.85):
        if slo_s <= 0:
            raise BatchingError(f"slo_s must be positive, got {slo_s}")
        if not 1 <= min_batch <= max_batch:
            raise BatchingError(
                f"need 1 <= min_batch ({min_batch}) <= max_batch "
                f"({max_batch})")
        if window < 1:
            raise BatchingError(f"window must be >= 1, got {window}")
        if not 0.0 < grow_headroom < shrink_headroom:
            raise BatchingError(
                f"need 0 < grow_headroom ({grow_headroom}) < "
                f"shrink_headroom ({shrink_headroom})")
        self.slo_s = slo_s
        self.min_batch = min_batch
        self.max_batch = max_batch
        self.grow_headroom = grow_headroom
        self.shrink_headroom = shrink_headroom
        self._latencies: deque = deque(maxlen=window)
        self.target = min_batch
        #: ``(dispatch_finish_s, target_after)`` per observation.
        self.trace: List[Tuple[float, int]] = []

    def observe(self, now: float, batch_size: int, queue_depth: int,
                latencies_s: Sequence[float]) -> int:
        """Fold one dispatch's outcome in; returns the new target."""
        self._latencies.extend(latencies_s)
        p99 = percentile_or_nan(list(self._latencies), 99)
        if queue_depth >= self.target:
            # Backlog: growth is the only throughput lever.  Double on
            # real headroom, creep when the window is queue-poisoned.
            step = (self.target if p99 < self.grow_headroom * self.slo_s
                    else 1)
            self.target = min(self.max_batch, self.target + step)
        elif p99 > self.shrink_headroom * self.slo_s:
            self.target = max(self.min_batch, self.target // 2)
        self.trace.append((now, self.target))
        return self.target


# ---------------------------------------------------------------------------
# The serving loop
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class BatchServeResult:
    """Per-request lifecycles and per-dispatch shapes of one run.

    ``requests[i]`` corresponds to ``arrivals[i]``; every request in a
    dispatch shares its ``start``/``finish``.  Percentiles follow
    NaN-with-flag semantics (``empty``).
    """

    requests: List[ServedRequest]
    #: Requests per dispatch, in dispatch order.
    batch_sizes: List[int]
    #: Adaptive-target trajectory (empty without an adaptive policy).
    target_trace: List[Tuple[float, int]]
    #: Per-request outputs (real-execution mode only), aligned with
    #: ``requests``.
    outputs: Optional[List[List[np.ndarray]]] = None

    @property
    def empty(self) -> bool:
        return not self.requests

    @property
    def mean_batch(self) -> float:
        if not self.batch_sizes:
            return float("nan")
        return float(np.mean(self.batch_sizes))

    def percentile_latency(self, q: float) -> float:
        return percentile_or_nan(
            [r.latency for r in self.requests], q)

    @property
    def p50_ms(self) -> float:
        return self.percentile_latency(50) * 1e3

    @property
    def p99_ms(self) -> float:
        return self.percentile_latency(99) * 1e3

    @property
    def span_s(self) -> float:
        if self.empty:
            return float("nan")
        return (max(r.finish for r in self.requests)
                - self.requests[0].arrival)

    @property
    def throughput_rps(self) -> float:
        span = self.span_s
        if np.isnan(span):
            return float("nan")
        return len(self.requests) / span if span > 0 else float("inf")

    def slo_attainment(self, slo_s: float) -> float:
        """Fraction of requests finishing within ``slo_s``."""
        if self.empty:
            return float("nan")
        met = sum(1 for r in self.requests if r.latency <= slo_s)
        return met / len(self.requests)

    def goodput_rps(self, slo_s: float) -> float:
        """SLO-met completions per second of run time — the headline
        serving metric."""
        span = self.span_s
        if np.isnan(span):
            return float("nan")
        met = sum(1 for r in self.requests if r.latency <= slo_s)
        return met / span if span > 0 else float("inf")


class DynamicBatcher:
    """One SLO-aware batching queue in front of one serving node.

    Exactly one of ``service`` / ``curve`` backs the service-time
    model:

    * ``service`` (a :class:`~repro.system.microservice
      .HardwareMicroservice`): dispatches call
      :meth:`~repro.system.microservice.HardwareMicroservice
      .invoke_batched`; with per-request ``inputs`` the node runs one
      real :class:`~repro.functional.replay.BatchedReplay` per
      dispatch and the result carries per-request outputs bit-identical
      to sequential invocation.
    * ``curve`` (any ``batch -> seconds`` callable, such as a
      measured :class:`ServiceTimeCurve`): pure discrete-event mode
      for large sweeps.

    ``metrics`` receives the observability contract of the serving
    stack: a ``serving.batch_occupancy`` histogram (requests per
    dispatch), a ``serving.queue_wait_s`` histogram (arrival ->
    dispatch wait per request), and ``serving.dispatches`` /
    ``serving.requests`` counters — all exported verbatim by
    :func:`repro.obs.render_prometheus`.  ``tracer`` (simulated
    seconds) gets one span per dispatch on the ``batching`` track.
    """

    def __init__(self, policy: BatchPolicy,
                 service: Optional[HardwareMicroservice] = None,
                 curve: Optional[Callable[[int], float]] = None,
                 adaptive: Optional[AdaptiveBatchPolicy] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[Metrics] = None):
        if (service is None) == (curve is None):
            raise BatchingError(
                "exactly one of service/curve must back the batcher")
        if curve is not None and not callable(curve):
            raise BatchingError(
                f"curve must be callable (batch -> seconds), got "
                f"{type(curve).__name__}")
        if adaptive is not None and adaptive.max_batch > policy.max_batch:
            raise BatchingError(
                f"adaptive max_batch ({adaptive.max_batch}) exceeds "
                f"policy max_batch ({policy.max_batch})")
        self.policy = policy
        self.service = service
        self.curve = curve
        self.adaptive = adaptive
        self.tracer = or_null(tracer)
        self.metrics = or_null_metrics(metrics)

    def _dispatch(self, steps: Optional[int], batch: int,
                  batch_inputs) -> Tuple[float, Optional[List]]:
        """Service time and (optionally) per-request outputs of one
        batch-``batch`` dispatch."""
        if self.curve is not None:
            return self.curve(batch), None
        res = self.service.invoke_batched(
            steps, batch=batch, functional_inputs=batch_inputs)
        return res.total_s, res.outputs

    def run(self, arrivals: Sequence[float],
            steps: Optional[int] = None,
            inputs: Optional[List[List[np.ndarray]]] = None
            ) -> BatchServeResult:
        """Serve a sorted arrival trace; returns per-request
        lifecycles (aligned with ``arrivals``) and dispatch shapes.

        ``steps`` (timesteps per request) is required in service mode;
        ``inputs`` (one input-vector list per request) additionally
        runs every dispatch through batched replay for real outputs.
        """
        arrivals = checked_trace(arrivals, BatchingError).tolist()
        if self.service is not None and steps is None:
            raise BatchingError("service-backed runs need steps")
        if inputs is not None:
            if self.service is None:
                raise BatchingError(
                    "real execution (inputs) needs a service backend")
            if len(inputs) != len(arrivals):
                raise BatchingError(
                    f"{len(inputs)} input lists for "
                    f"{len(arrivals)} arrivals")
        n = len(arrivals)
        served: List[Optional[ServedRequest]] = [None] * n
        outputs: Optional[List] = [None] * n if inputs is not None \
            else None
        batch_sizes: List[int] = []
        occupancy = self.metrics.histogram("serving.batch_occupancy",
                                           bounds=OCCUPANCY_BOUNDS)
        queue_wait = self.metrics.histogram("serving.queue_wait_s",
                                            bounds=QUEUE_WAIT_BOUNDS)
        dispatches = self.metrics.counter("serving.dispatches")
        requests_ctr = self.metrics.counter("serving.requests")
        policy = self.policy
        adaptive = self.adaptive
        free_at = 0.0
        i = 0
        while i < n:
            target = (adaptive.target if adaptive is not None
                      else policy.max_batch)
            target = min(max(target, 1), policy.max_batch)
            # The server considers dispatch once it is free and at
            # least one request is waiting; stragglers may join until
            # the head's timeout, a full *target* dispatches at once.
            head = max(arrivals[i], free_at)
            deadline = max(arrivals[i] + policy.timeout_s, head)
            j = i
            dispatch_at = deadline
            while j < n and j - i < target and arrivals[j] <= deadline:
                j += 1
            if j - i == target:
                dispatch_at = max(arrivals[j - 1], head)
            batch = j - i
            start = max(dispatch_at, free_at)
            batch_inputs = inputs[i:j] if inputs is not None else None
            service_s, batch_outputs = self._dispatch(
                steps, batch, batch_inputs)
            finish = start + service_s
            free_at = finish
            latencies = []
            for k in range(i, j):
                served[k] = ServedRequest(arrivals[k], start, finish)
                latencies.append(finish - arrivals[k])
                queue_wait.observe(start - arrivals[k])
                if batch_outputs is not None:
                    outputs[k] = batch_outputs[k - i]
            batch_sizes.append(batch)
            occupancy.observe(float(batch))
            dispatches.inc()
            requests_ctr.inc(batch)
            self.tracer.span(f"dispatch b={batch}", start, finish,
                             track="batching", batch=batch,
                             queued=j - i)
            if adaptive is not None:
                # Queue depth the controller sees: arrivals that are
                # already waiting when this dispatch finishes.
                depth = bisect.bisect_right(arrivals, finish, lo=j) - j
                adaptive.observe(finish, batch, depth, latencies)
            i = j
        return BatchServeResult(
            requests=served, batch_sizes=batch_sizes,
            target_trace=list(adaptive.trace) if adaptive is not None
            else [], outputs=outputs)


# ---------------------------------------------------------------------------
# The headline sweep: goodput at a fixed SLO, batch-1 vs dynamic
# ---------------------------------------------------------------------------

def slo_sweep(curve: ServiceTimeCurve, slo_s: float,
              rates_rps: Sequence[float], requests: int = 2000,
              max_batch: int = 16, timeout_s: Optional[float] = None,
              seed: int = 0,
              metrics: Optional[Metrics] = None) -> Dict:
    """Goodput at a fixed SLO: batch-1 vs SLO-aware dynamic batching.

    Both servers see identical Poisson arrival traces per rate.  The
    batch-1 server runs at the measured batch-1 service time (the BW
    regime); the dynamic batcher runs the same measured curve under an
    :class:`AdaptiveBatchPolicy` targeting ``slo_s``.  The payload's
    ``goodput_ratio`` is the peak dynamic goodput over the peak
    batch-1 goodput across the sweep — the number the perf gate floors.
    """
    if slo_s <= 0:
        raise BatchingError(f"slo_s must be positive, got {slo_s}")
    if not rates_rps:
        raise BatchingError("rates_rps must be non-empty")
    if timeout_s is None:
        timeout_s = slo_s / 4.0
    batch1 = DynamicBatcher(BatchPolicy(max_batch=1, timeout_s=0.0),
                            curve=lambda b: curve(1))
    rows = []
    for rate in rates_rps:
        arrivals = poisson_arrivals(float(rate), requests, seed=seed)
        base = batch1.run(arrivals)
        batcher = DynamicBatcher(
            BatchPolicy(max_batch=max_batch, timeout_s=timeout_s),
            curve=curve,
            adaptive=AdaptiveBatchPolicy(slo_s, max_batch=max_batch),
            metrics=metrics)
        dyn = batcher.run(arrivals)
        rows.append({
            "rate_rps": float(rate),
            "batch1_goodput_rps": base.goodput_rps(slo_s),
            "batch1_p99_ms": base.p99_ms,
            "dynamic_goodput_rps": dyn.goodput_rps(slo_s),
            "dynamic_p99_ms": dyn.p99_ms,
            "dynamic_mean_batch": dyn.mean_batch,
            "dynamic_slo_attainment": dyn.slo_attainment(slo_s),
        })
    peak_batch1 = max(r["batch1_goodput_rps"] for r in rows)
    peak_dynamic = max(r["dynamic_goodput_rps"] for r in rows)
    ratio = (peak_dynamic / peak_batch1 if peak_batch1 > 0
             else float("nan"))
    return {
        "slo_ms": slo_s * 1e3,
        "timeout_ms": timeout_s * 1e3,
        "max_batch": max_batch,
        "requests_per_rate": requests,
        "curve": curve.to_json(),
        "rates": rows,
        "peak_goodput_batch1_rps": peak_batch1,
        "peak_goodput_dynamic_rps": peak_dynamic,
        "goodput_ratio": ratio,
    }


@dataclasses.dataclass(frozen=True)
class SloComparison:
    """One arrival-rate point of the BW-vs-GPU serving comparison."""

    rate_rps: float
    bw: BatchServeResult
    gpu: BatchServeResult


def compare_under_load(bw_service_s: float,
                       gpu_batch_service: Callable[[int], float],
                       max_batch: int, timeout_s: float,
                       rates_rps: Sequence[float],
                       requests: int = 2000,
                       seed: int = 0) -> List[SloComparison]:
    """Batch-1 BW serving vs a GPU batching queue across arrival rates.

    Both arms are :class:`DynamicBatcher` queues on identical Poisson
    traces: the BW server dispatches each request alone at
    ``bw_service_s``; the GPU stack waits up to ``timeout_s`` to fill
    ``max_batch`` and pays ``gpu_batch_service(batch)`` per dispatch.
    """
    if bw_service_s <= 0:
        raise BatchingError(
            f"bw_service_s must be positive, got {bw_service_s}")
    bw = DynamicBatcher(BatchPolicy(max_batch=1, timeout_s=0.0),
                        curve=lambda b: bw_service_s)
    gpu = DynamicBatcher(BatchPolicy(max_batch, timeout_s),
                         curve=gpu_batch_service)
    out = []
    for rate in rates_rps:
        arrivals = poisson_arrivals(rate, requests, seed=seed)
        out.append(SloComparison(rate_rps=rate, bw=bw.run(arrivals),
                                 gpu=gpu.run(arrivals)))
    return out


def record_batch_series(batch_log: Sequence[Tuple[float, int]],
                        store) -> None:
    """Fold a batched run's dispatch log into a
    :class:`~repro.obs.timeseries.TimeSeriesStore`.

    Records the fleet-scoped ``cluster.batch_occupancy`` gauge (mean
    dispatch size per store window) that the dashboard renderers plot
    as the batch-size strip; pass
    :attr:`~repro.system.cluster.ClusterResult.batch_log`.
    """
    if not batch_log:
        return
    gauge = store.gauge("cluster.batch_occupancy", scope="fleet")
    times = np.asarray([t for t, _ in batch_log], dtype=np.float64)
    sizes = np.asarray([b for _, b in batch_log], dtype=np.float64)
    idx = np.clip(((times - store.start_s)
                   // store.interval_s).astype(int),
                  0, store.windows - 1)
    sums = np.bincount(idx, weights=sizes, minlength=store.windows)
    counts = np.bincount(idx, minlength=store.windows)
    for w in np.nonzero(counts)[0]:
        gauge.record(store.start_s + (w + 0.5) * store.interval_s,
                     sums[w] / counts[w])


def render_slo_sweep(payload: Dict) -> str:
    """Fixed-width table of one :func:`slo_sweep` payload."""
    header = (f"{'rate r/s':>10} {'b1 goodput':>11} {'b1 p99ms':>9} "
              f"{'dyn goodput':>12} {'dyn p99ms':>10} {'mean b':>7}")
    lines = [f"SLO {payload['slo_ms']:.3f} ms, max_batch "
             f"{payload['max_batch']}, timeout "
             f"{payload['timeout_ms']:.3f} ms",
             header, "-" * len(header)]
    for r in payload["rates"]:
        lines.append(
            f"{r['rate_rps']:>10.0f} {r['batch1_goodput_rps']:>11.0f} "
            f"{r['batch1_p99_ms']:>9.3f} "
            f"{r['dynamic_goodput_rps']:>12.0f} "
            f"{r['dynamic_p99_ms']:>10.3f} "
            f"{r['dynamic_mean_batch']:>7.2f}")
    lines.append(
        f"peak goodput: batch-1 "
        f"{payload['peak_goodput_batch1_rps']:.0f}/s, dynamic "
        f"{payload['peak_goodput_dynamic_rps']:.0f}/s -> "
        f"{payload['goodput_ratio']:.2f}x")
    return "\n".join(lines)
