"""The five end-to-end workloads: set-up, timed loop, and their results.

Each workload drives one public serving entry point of ``repro`` with
inputs generated from the run's seed:

* ``HardwareMicroservice.invoke`` (closed loop, one client) —
  ``lstm1024_t25_b1`` and ``gru512_t1_b1``;
* service-mode ``DynamicBatcher.run`` with real inputs (open loop in
  simulated time) — ``lstm1024_t25_batched``;
* ``ClusterSimulator.run`` (open loop in simulated time) —
  ``cluster_b1_rack_loss`` and ``cluster_batched_diurnal``.

A workload's :meth:`setup` builds everything a request needs (model,
compile, node, service, cluster, inputs) and issues untimed warm-up
work; :meth:`run` then measures host time for at least ``seconds``
(and at least ``min_ops`` timed operations; ``traced_ops`` in each
half of a traced run) and returns a :class:`Measured` record: host
samples, simulated-clock results, failures, and the outputs kept for
verification.  Every timed
operation is scaled by the host slowdown measured right before it (see
``calibrate.py``).  Model weights are part of the deployed model and
stay at ``WEIGHT_SEED``.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from typing import Dict, List, Optional

import numpy as np

import verify

#: Model weights belong to the deployed model, not to the run's seed
#: (the perf harness builds its models with the same seed).
WEIGHT_SEED = 7

#: The batched workload's arrival trace is part of its definition, like
#: the weights: dispatch sizes set the host cost of every request, so a
#: per-seed trace would move the host metrics by the trace, not by the
#: code.  The run's seed still generates every input vector.
BATCHED_TRACE_SEED = 7

#: Input-stream tags, so warm-up and timed requests never share inputs.
WARMUP_STREAM, TIMED_STREAM = 1, 2

#: Untimed warm-up requests per serving set-up.
WARMUP_REQUESTS = 3

#: Requests whose outputs are checked bit for bit against a fresh
#: simulator, on top of every warm-up request.
VERIFY_SAMPLES = 10

#: Reference kernels (``calibrate.py``) whose slowdown each kind of
#: workload is scaled by: serving host time follows numpy work alone,
#: cluster host time Python loops and numpy alike.
SERVING_KERNELS = ("np_matvec",)
CLUSTER_KERNELS = ("py_gather", "np_matvec")


@dataclasses.dataclass
class Measured:
    """What one timed phase of a workload produced."""

    #: Host milliseconds per request as measured (``raw_ms``) and scaled
    #: to the reference host speed (``host_ms``): one sample per request
    #: (serving) or per trace run, divided by its requests (cluster).
    raw_ms: List[float] = dataclasses.field(default_factory=list)
    host_ms: List[float] = dataclasses.field(default_factory=list)
    #: Host seconds inside the timed calls, as measured and scaled.
    raw_s: float = 0.0
    host_s: float = 0.0
    #: Requests served in the timed phase (simulated ones for clusters).
    requests: int = 0
    #: Operations attempted — requests (serving) or trace runs
    #: (cluster), untimed first cluster runs included — and failed.
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    #: Simulated-clock results (deterministic for a fixed seed).
    sim: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Inputs and outputs kept for bit-exact verification.
    kept: List[tuple] = dataclasses.field(default_factory=list)
    #: Per-phase accounting the traced run normalises by.
    steps_per_request: int = 0
    dispatches: int = 0
    cluster_runs: int = 0
    #: Open-loop workloads: the first pass's simulated timeline (batched)
    #: or result fingerprint (cluster), which every later pass or run —
    #: traced ones included — must reproduce exactly.
    reference: Optional[tuple] = None

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def timed(self, seconds: float, slowdown: float, recorder) -> None:
        """Account one timed call of ``seconds`` at ``slowdown``."""
        self.raw_s += seconds
        self.host_s += seconds / slowdown
        if recorder is not None:
            recorder.window_s += seconds

    def samples(self, ms: float, slowdown: float, copies: int = 1) -> None:
        """Add ``copies`` per-request host samples of ``ms``."""
        self.raw_ms.extend([ms] * copies)
        self.host_ms.extend([ms / slowdown] * copies)


def request_inputs(seed: int, stream: int, index: int, steps: int,
                   length: int) -> List[np.ndarray]:
    """One request's input vectors, a pure function of its identity."""
    rng = np.random.default_rng((seed, stream, index))
    return list(rng.standard_normal((steps, length), dtype=np.float32))


def _sample(seed: int, population: int, count: int) -> set:
    rng = np.random.default_rng((seed, 0x5A3))
    count = min(count, population)
    return set(int(i) for i in rng.choice(population, count, replace=False))


def _compile(kind: str, hidden: int):
    from repro.compiler.lowering import compile_gru, compile_lstm
    from repro.config import BW_S10
    from repro.models.gru import GruReference
    from repro.models.lstm import LstmReference
    if kind == "lstm":
        model = LstmReference(hidden_dim=hidden, seed=WEIGHT_SEED)
        return compile_lstm(model, BW_S10, name=f"lstm{hidden}")
    model = GruReference(hidden_dim=hidden, seed=WEIGHT_SEED)
    return compile_gru(model, BW_S10, name=f"gru{hidden}")


def _service(compiled):
    from repro.system import FpgaNode, HardwareMicroservice
    node = FpgaNode(f"{compiled.name}-node", compiled)
    return HardwareMicroservice(compiled.name, node)


def _percentile_ms(values_s, q: float) -> float:
    return float(np.percentile(np.asarray(values_s), q)) * 1e3


# ---------------------------------------------------------------------------
# Serving workloads
# ---------------------------------------------------------------------------

class ServingB1:
    """Closed loop of one client: ``invoke(steps, functional_inputs=…)``.

    The next request is sent only after the previous one returns; each
    request's host time is the wall time of its ``invoke`` call.
    """

    kind = "serving"
    kernels = SERVING_KERNELS
    traced_ops = 10

    def __init__(self, name: str, model: str, hidden: int, steps: int,
                 min_ops: int):
        self.name = name
        self.model = model
        self.hidden = hidden
        self.steps = steps
        self.min_ops = min_ops

    def setup(self, seed: int) -> dict:
        compiled = _compile(self.model, self.hidden)
        service = _service(compiled)
        sim_latency_s = service.invoke(self.steps).total_s
        warmups = []
        for k in range(WARMUP_REQUESTS):
            xs = request_inputs(seed, WARMUP_STREAM, k, self.steps,
                                compiled.input_length)
            res = service.invoke(self.steps, functional_inputs=xs)
            warmups.append((xs, res.outputs))
        return {"compiled": compiled, "service": service,
                "slo_s": 8.0 * sim_latency_s, "warmups": warmups}

    def run(self, state: dict, seed: int, seconds: float, min_ops: int,
            calibrator, recorder=None) -> Measured:
        compiled, service = state["compiled"], state["service"]
        steps = self.steps
        out = Measured(steps_per_request=steps,
                       kept=list(state["warmups"]))
        sampled = _sample(seed, min_ops, VERIFY_SAMPLES)
        sim_latency: List[float] = []
        start = time.perf_counter()
        i = 0
        while i < min_ops or time.perf_counter() - start < seconds:
            calibrator.maybe()
            xs = request_inputs(seed, TIMED_STREAM, i, steps,
                                compiled.input_length)
            if recorder is not None:
                recorder.request = i
            out.attempted += 1
            slowdown = calibrator.slowdown
            t0 = time.perf_counter()
            try:
                res = service.invoke(steps, functional_inputs=xs)
            except Exception as exc:  # a failed request is counted, not fatal
                out.fail(1, f"request {i}: {type(exc).__name__}: {exc}")
                res = None
            dt = time.perf_counter() - t0
            out.timed(dt, slowdown, recorder)
            out.samples(dt * 1e3, slowdown)
            if res is not None:
                problem = verify.check_outputs(
                    res.outputs, steps, compiled.output_length)
                if problem:
                    out.fail(1, f"request {i}: {problem}")
                else:
                    out.requests += 1
                    sim_latency.append(res.total_s)
                    if i in sampled:
                        out.kept.append((xs, res.outputs))
            i += 1
        # Simulated results cover the first ``min_ops`` requests, which
        # every run serves, so they do not depend on host speed.
        sim_latency = sim_latency[:min_ops]
        if sim_latency:
            slo_s = state["slo_s"]
            out.sim = {
                "sim.latency_ms_p50": _percentile_ms(sim_latency, 50),
                "sim.latency_ms_p90": _percentile_ms(sim_latency, 90),
                "sim.goodput_rps": 1.0 / float(np.mean(sim_latency)),
                "sim.slo_attainment": float(np.mean(
                    np.asarray(sim_latency) <= slo_s)),
            }
        return out


class _TimedService:
    """Forwards ``invoke_batched`` to a service, timing every dispatch.

    Stands in for the service inside :class:`DynamicBatcher` so each
    request's host cost is its dispatch's wall time shared over the
    dispatch's requests, scaled by the mean host slowdown of the
    calibration points right before and right after the dispatch.  It
    takes the point after each dispatch, and keeps that time out of
    the pass (and out of any traced span around it).  A dispatch costs
    a few tenths of a second and a pass holds only ~20 of them, so
    each one is worth bracketing.
    """

    def __init__(self, service, calibrator, recorder):
        self.service = service
        self.calibrator = calibrator
        self.recorder = recorder
        self.dispatches: List[tuple] = []
        self.calibration_s = 0.0

    def invoke_batched(self, steps, batch=None, functional_inputs=None):
        before = self.calibrator.slowdown
        t0 = time.perf_counter()
        res = self.service.invoke_batched(
            steps, batch=batch, functional_inputs=functional_inputs)
        elapsed = time.perf_counter() - t0
        spent = self.calibrator.point()
        self.dispatches.append(
            (elapsed, res.batch, (before + self.calibrator.slowdown) / 2))
        self.calibration_s += spent
        if self.recorder is not None:
            self.recorder.exclude(spent)
        return res


class ServingBatched:
    """Open loop in simulated time through service-mode
    ``DynamicBatcher.run`` with real inputs.

    Heavy-tailed arrivals at 0.8x the simulated batch-1 capacity, an
    SLO of 8x the simulated batch-1 latency, an adaptive batch policy
    with ``max_batch=16``.  One pass serves the whole trace; timed
    passes follow one another while another fits in the phase's
    seconds, each with a fresh (stateful) adaptive policy.  The first
    pass fixes the simulated timeline the later ones must reproduce
    exactly, and its sampled outputs are the ones verified.
    """

    kind = "serving"
    kernels = SERVING_KERNELS
    min_ops = 2
    traced_ops = 1

    def __init__(self, name: str, model: str, hidden: int, steps: int,
                 requests: int):
        self.name = name
        self.model = model
        self.hidden = hidden
        self.steps = steps
        self.requests = requests

    def setup(self, seed: int) -> dict:
        from repro.system.loadgen import heavy_tailed_arrivals
        compiled = _compile(self.model, self.hidden)
        service = _service(compiled)
        b1_s = service.invoke_batched(self.steps, batch=1).total_s
        arrivals = heavy_tailed_arrivals(0.8 / b1_s, self.requests,
                                         alpha=1.6,
                                         seed=BATCHED_TRACE_SEED)
        inputs = [request_inputs(seed, TIMED_STREAM, i, self.steps,
                                 compiled.input_length)
                  for i in range(self.requests)]
        state = {"compiled": compiled, "service": service,
                 "slo_s": 8.0 * b1_s, "arrivals": arrivals,
                 "inputs": inputs}
        warm_inputs = [request_inputs(seed, WARMUP_STREAM, k, self.steps,
                                      compiled.input_length)
                       for k in range(WARMUP_REQUESTS)]
        res = self._batcher(state, service).run(
            arrivals[:WARMUP_REQUESTS], steps=self.steps,
            inputs=warm_inputs)
        state["warmups"] = list(zip(warm_inputs, res.outputs))
        return state

    def _batcher(self, state: dict, service):
        from repro.system.batching import (AdaptiveBatchPolicy,
                                           BatchPolicy, DynamicBatcher)
        slo_s = state["slo_s"]
        return DynamicBatcher(
            BatchPolicy(max_batch=16, timeout_s=slo_s / 4.0),
            service=service,
            adaptive=AdaptiveBatchPolicy(slo_s, max_batch=16))

    def run(self, state: dict, seed: int, seconds: float,
            min_passes: int, calibrator, recorder=None,
            reference=None) -> Measured:
        out = Measured(steps_per_request=self.steps,
                       kept=list(state["warmups"]), reference=reference)
        sampled = _sample(seed, self.requests, VERIFY_SAMPLES)
        start = time.perf_counter()
        passes = 0
        while passes < min_passes or (
                time.perf_counter() - start + out.raw_s / passes
                <= seconds):
            self._pass(state, calibrator, out,
                       sampled if passes == 0 else set(), recorder)
            passes += 1
        return out

    def _pass(self, state: dict, calibrator, out: Measured, sampled: set,
              recorder) -> None:
        """Serve the whole trace once, keeping the ``sampled`` requests'
        outputs for verification."""
        compiled = state["compiled"]
        arrivals, inputs = state["arrivals"], state["inputs"]
        n = len(arrivals)
        gc.collect()
        calibrator.point()
        service = _TimedService(state["service"], calibrator, recorder)
        batcher = self._batcher(state, service)
        out.attempted += n
        t0 = time.perf_counter()
        try:
            res = batcher.run(arrivals, steps=self.steps, inputs=inputs)
        except Exception as exc:  # a failed pass fails its requests
            out.fail(n, f"pass: {type(exc).__name__}: {exc}")
            res = None
        dt = time.perf_counter() - t0 - service.calibration_s
        if service.dispatches:
            busy = sum(d for d, _, _ in service.dispatches)
            slowdown = busy / sum(d / s for d, _, s in service.dispatches)
            out.timed(dt, slowdown, recorder)
            out.dispatches += len(service.dispatches)
            for d_s, batch, s in service.dispatches:
                out.samples(d_s / batch * 1e3, s, copies=batch)
        if res is None:
            return
        for i, outputs in enumerate(res.outputs):
            problem = verify.check_outputs(outputs, self.steps,
                                           compiled.output_length)
            if problem:
                out.fail(1, f"request {i}: {problem}")
                continue
            out.requests += 1
            if i in sampled:
                out.kept.append((inputs[i], outputs))
        timeline = ([(r.arrival, r.start, r.finish) for r in res.requests],
                    list(res.batch_sizes))
        if not out.sim:
            out.sim = self._simulated(res, state["slo_s"])
        if out.reference is None:
            out.reference = timeline
        elif timeline != out.reference:
            out.fail(n, "simulated timeline differs from the first pass")

    @staticmethod
    def _simulated(res, slo_s: float) -> Dict[str, float]:
        latency = [r.latency for r in res.requests]
        waits = [r.queue_wait for r in res.requests]
        return {
            "sim.latency_ms_p50": _percentile_ms(latency, 50),
            "sim.latency_ms_p90": _percentile_ms(latency, 90),
            "sim.goodput_rps": res.goodput_rps(slo_s),
            "sim.slo_attainment": res.slo_attainment(slo_s),
            "batching.dispatches": float(len(res.batch_sizes)),
            "batching.mean_batch": res.mean_batch,
            "batching.max_batch": float(max(res.batch_sizes)),
            "batching.queue_wait_ms_p50": _percentile_ms(waits, 50),
            "batching.queue_wait_ms_p90": _percentile_ms(waits, 90),
        }


# ---------------------------------------------------------------------------
# Cluster workloads
# ---------------------------------------------------------------------------

class ClusterWorkload:
    """One seeded open-loop trace through ``ClusterSimulator.run``.

    The whole trace is one operation: an untimed run first, then timed
    runs (each on a fresh simulator, built outside the timer) while
    another fits in the phase's seconds.  A run's host time is scaled
    by the mean of the host slowdowns measured right before and right
    after it.  Every run must be bit-identical to the first in
    ``status``, ``latency_s``, the event log and detector transitions.
    """

    kind = "cluster"
    kernels = CLUSTER_KERNELS
    min_ops = 3
    traced_ops = 2

    def __init__(self, name: str, requests: int):
        self.name = name
        self.requests = requests

    def setup(self, seed: int) -> dict:
        state = self._build(seed)
        warm = min(self.requests, 20_000)
        self._simulator(state).run(state["arrivals"][:warm],
                                   state["events"])
        return state

    def run(self, state: dict, seed: int, seconds: float, min_runs: int,
            calibrator, recorder=None, reference=None) -> Measured:
        out = Measured(steps_per_request=1, reference=reference)
        start = time.perf_counter()
        self._trace_run(state, calibrator, out, recorder, timed=False)
        runs = 0
        while runs < min_runs or (
                time.perf_counter() - start + out.raw_s / runs
                <= seconds):
            self._trace_run(state, calibrator, out, recorder, timed=True)
            runs += 1
        return out

    def _trace_run(self, state: dict, calibrator, out: Measured, recorder,
                   timed: bool) -> None:
        """Run the whole trace once on a fresh simulator.  The untimed
        first run warms the allocator for full-size arrays (the first
        run is markedly slower) and is checked like the others."""
        arrivals, events = state["arrivals"], state["events"]
        n = int(arrivals.size)
        sim = self._simulator(state)
        gc.collect()
        calibrator.point()
        before = calibrator.slowdown
        if recorder is not None:
            recorder.region = "timed" if timed else "warmup"
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            res = sim.run(arrivals, events)
        except Exception as exc:  # a failed run is counted, not fatal
            out.fail(1, f"run: {type(exc).__name__}: {exc}")
            res = None
        dt = time.perf_counter() - t0
        calibrator.point()
        if timed:
            slowdown = (before + calibrator.slowdown) / 2
            out.timed(dt, slowdown, recorder)
            out.samples(dt / n * 1e3, slowdown)
        if res is None:
            return
        if timed:
            out.requests += n
            out.cluster_runs += 1
        fingerprint = verify.cluster_fingerprint(res)
        if not out.sim:
            out.sim = self._simulated(res)
        if out.reference is None:
            out.reference = fingerprint
        problem = verify.compare_fingerprints(out.reference, fingerprint)
        if problem:
            out.fail(1, problem)

    @staticmethod
    def _simulated(res) -> Dict[str, float]:
        from repro.system.cluster import (BROWNOUT, FAILED, SERVED,
                                          SHED_ADMISSION, SHED_DEADLINE,
                                          TIMEOUT)
        total = float(res.total)
        frac = {code: res.count(code) / total
                for code in (SERVED, BROWNOUT, SHED_ADMISSION,
                             SHED_DEADLINE, FAILED, TIMEOUT)}
        mean_batch = res.mean_batch
        return {
            "sim.latency_ms_p50": res.p50_ms,
            "sim.latency_ms_p99": res.p99_ms,
            "sim.goodput_rps": res.goodput_rps,
            "sim.slo_attainment": res.availability,
            "cluster.served_frac": frac[SERVED],
            "cluster.brownout_frac": frac[BROWNOUT],
            "cluster.shed_frac": frac[SHED_ADMISSION] + frac[SHED_DEADLINE],
            "cluster.failed_frac": frac[FAILED],
            "cluster.timeout_frac": frac[TIMEOUT],
            "cluster.mean_batch": 0.0 if np.isnan(mean_batch)
            else mean_batch,
            "cluster.resizes": float(len(res.active_nodes_trace or ())),
        }


class ClusterRackLoss(ClusterWorkload):
    """Rack 0 loses power mid-run under bursty traffic, served by the
    mitigated unbatched stack with a fleet monitor attached.

    The trace follows the chaos catalog's ``rack_loss`` scenario (bursty
    traffic at ~60% of capacity, rack 0 down at 40% of the run, fixed
    repair after 25%) with ten times shorter quiet/burst sojourns, so a
    run holds ~100 bursts instead of ~10 and its mix of served, shed
    and brownout requests — which sets the host cost — barely moves
    between seeds; the trace is cut to exactly ``requests`` arrivals.
    """

    def _build(self, seed: int) -> dict:
        from repro.system.chaos import (CorrelatedFaultInjector,
                                        RepairDistribution)
        from repro.system.cluster import ClusterSpec
        from repro.system.loadgen import bursty_arrivals
        spec = ClusterSpec()
        rate = 0.6 * spec.capacity_rps
        duration = self.requests / rate
        arrivals = bursty_arrivals(
            0.5 * rate, 2.0 * rate, 1.3 * duration,
            mean_quiet_s=duration / 80, mean_burst_s=duration / 120,
            seed=seed)
        arrivals = _exactly(arrivals, self.requests)
        span = float(arrivals[-1])
        injector = CorrelatedFaultInjector(
            spec, repair=RepairDistribution("fixed", mean_s=0.25 * span),
            seed=seed)
        return {"spec": spec, "arrivals": arrivals, "seed": seed,
                "events": injector.rack_outage(0, 0.4 * span)}

    def _simulator(self, state: dict):
        from repro.system.cluster import (BrownoutPolicy,
                                          ClusterSimulator, TokenBucket)
        from repro.system.monitor import FleetMonitor
        spec = state["spec"]
        return ClusterSimulator(
            spec, router="p2c",
            admission=TokenBucket(rate_rps=0.95 * spec.capacity_rps,
                                  burst=4.0 * spec.num_nodes),
            brownout=BrownoutPolicy(max_concurrent=spec.num_nodes),
            detector_threshold=8.0, shed_on_deadline=True, retries=1,
            seed=state["seed"] + 1, monitor=FleetMonitor(windows=256))


class ClusterBatchedDiurnal(ClusterWorkload):
    """Diurnal traffic through batched nodes with autoscaling; rack 0
    is lost at 40% of the run.

    Traffic swings 0.2-1.8x its mean over one period, the mean at half
    the fleet's batched capacity.  The batch curve is a fixed synthetic
    workload parameter (aggregate service time 1, 1.25, 1.75, 2.75,
    4.75x the node's batch-1 time at batch 1, 2, 4, 8, 16); it makes no
    claim about the NPU.
    """

    def _build(self, seed: int) -> dict:
        from repro.system.batching import ServiceTimeCurve
        from repro.system.cluster import ClusterEvent, ClusterSpec
        from repro.system.loadgen import diurnal_arrivals
        spec = ClusterSpec()
        curve = ServiceTimeCurve(
            (1, 2, 4, 8, 16),
            tuple(spec.service_time_s * k
                  for k in (1.0, 1.25, 1.75, 2.75, 4.75)))
        mean = 0.5 * spec.num_nodes * 16 / curve(16)
        duration = self.requests / mean
        arrivals = diurnal_arrivals(0.2 * mean, 1.8 * mean, 1.15 * duration,
                                    period_s=duration, seed=seed)
        arrivals = _exactly(arrivals, self.requests)
        events = [ClusterEvent(0.4 * float(arrivals[-1]), "rack_down", 0)]
        return {"spec": spec, "curve": curve, "arrivals": arrivals,
                "events": events, "seed": seed}

    def _simulator(self, state: dict):
        from repro.system.cluster import (AutoscalePolicy,
                                          ClusterSimulator, NodeBatching)
        return ClusterSimulator(
            state["spec"], router="p2c",
            batching=NodeBatching(state["curve"], max_batch=16,
                                  timeout_s=1e-3),
            autoscaler=AutoscalePolicy(min_nodes=4),
            seed=state["seed"] + 1)


def _exactly(arrivals: np.ndarray, count: int) -> np.ndarray:
    if arrivals.size < count:
        raise RuntimeError(f"trace holds {arrivals.size} arrivals, "
                           f"fewer than the {count} the workload needs")
    return np.ascontiguousarray(arrivals[:count])


#: The workloads by name; why each was chosen is in ``BENCHMARK.json``.
WORKLOADS = {w.name: w for w in (
    ServingB1("lstm1024_t25_b1", "lstm", 1024, 25, min_ops=100),
    ServingB1("gru512_t1_b1", "gru", 512, 1, min_ops=300),
    ServingBatched("lstm1024_t25_batched", "lstm", 1024, 25, requests=64),
    ClusterRackLoss("cluster_b1_rack_loss", requests=1_000_000),
    ClusterBatchedDiurnal("cluster_batched_diurnal", requests=300_000),
)}
