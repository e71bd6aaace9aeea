"""Micro-benchmark harness for the vectorized execution layer.

Times the simulator hot paths on the Table IV configurations —
functional LSTM/GRU execution on the vectorized interpreter, compiled
program replay (sequential and batched, vs. the vectorized
interpreter), dynamic-batching goodput, timing-simulator scheduling,
and BFP quantization — and assembles the ``BENCH_perf.json`` trajectory
record: wall-clock per step/call, op rates, and baseline-over-optimized
speedups. ``scripts/bench.py`` and ``repro bench`` are the command-line
drivers.

Every fast path benchmarked here is bit-identical to its baseline by
construction (see docs/PERFORMANCE.md); each replay benchmark re-checks
output equality against the vectorized interpreter on its warm-up, so
a speedup number can never come from a divergent fast path. The
interpreter itself is held bit-exact to the reference interpreter
(:mod:`repro.verify.reference`) by the differential fuzzer.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from ..compiler.lowering import CompiledModel, compile_gru, compile_lstm
from ..config import BW_CNN_A10, BW_S5, BW_S10, NpuConfig
from ..models.gru import GruReference
from ..models.lstm import LstmReference
from ..numerics.bfp import BfpFormat, quantize
from ..timing import TimingSimulator

#: The headline workload class for the speedup acceptance gate: the
#: DeepBench h=1024 LSTM on the production part (Table IV/V).
HEADLINE = ("lstm", 1024, "BW_S10")

#: Acceptance floors on the headline workload for the full suite:
#: compiled replay over the vectorized interpreter at batch=1, and
#: aggregate batched-replay throughput at batch=16. Quick (CI smoke)
#: runs use the relaxed floors — single-core CI hosts are noisy and the
#: smoke gate only has to prove the fast paths beat their baselines.
COMPILED_GATE, COMPILED_GATE_QUICK = 1.3, 1.0
BATCH16_GATE, BATCH16_GATE_QUICK = 4.0, 2.0

#: Acceptance floor on the headline serving benchmark: peak goodput of
#: SLO-aware dynamic batching over the batch-1 server at the same SLO,
#: both backed by the same measured batch service-time curve.
BATCHING_GATE, BATCHING_GATE_QUICK = 2.0, 1.3


@dataclasses.dataclass
class BenchResult:
    """One timed workload."""

    name: str
    config: str
    #: Wall-clock per unit of work (timestep for RNNs, call otherwise).
    unit_ms: float
    #: Work units measured per repetition.
    units: int
    repeats: int
    #: Model-level useful operations per unit (0 when not applicable).
    ops_per_unit: float = 0.0
    #: Baseline wall-clock per unit: the vectorized interpreter for
    #: ``compiled_*``/``batched_*`` rows, the batch-1 server for the
    #: ``batching_goodput_*`` row; ``None`` for rows without a baseline.
    baseline_unit_ms: Optional[float] = None

    @property
    def speedup(self) -> Optional[float]:
        if self.baseline_unit_ms is None or self.unit_ms <= 0:
            return None
        return self.baseline_unit_ms / self.unit_ms

    @property
    def gops(self) -> Optional[float]:
        """Useful model operations per second, in 1e9 ops/s."""
        if not self.ops_per_unit or self.unit_ms <= 0:
            return None
        return self.ops_per_unit / (self.unit_ms * 1e-3) / 1e9

    def to_json(self) -> Dict:
        out = dataclasses.asdict(self)
        out["speedup"] = self.speedup
        out["gops"] = self.gops
        return out


def _best_time(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-N wall-clock seconds (insensitive to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _compile_rnn(kind: str, hidden: int, config: NpuConfig) -> CompiledModel:
    if kind == "lstm":
        return compile_lstm(LstmReference(hidden_dim=hidden, seed=7), config)
    return compile_gru(GruReference(hidden_dim=hidden, seed=7), config)


def bench_functional_rnn(kind: str, hidden: int, config: NpuConfig,
                         steps: int = 8, repeats: int = 3) -> BenchResult:
    """Time steady-state functional execution on the vectorized
    interpreter.

    One long-lived simulator (weights pin once — the amortization the
    hardware gets from its pinned MRF) runs one untimed warm-up
    sequence, then the best of ``repeats`` timed sequences is kept.
    """
    model = _compile_rnn(kind, hidden, config)
    rng = np.random.default_rng(11)
    xs = [rng.standard_normal(model.input_length).astype(np.float32)
          for _ in range(steps)]

    sim = model.new_simulator()
    model.run_sequence(xs, sim=sim)  # warm
    total = _best_time(lambda: model.run_sequence(xs, sim=sim), repeats)
    return BenchResult(
        name=f"functional_{kind}_h{hidden}", config=config.name,
        unit_ms=total / steps * 1e3, units=steps, repeats=repeats,
        ops_per_unit=float(model.ops_per_step))


def bench_compiled_rnn(kind: str, hidden: int, config: NpuConfig,
                       steps: int = 8, repeats: int = 3) -> BenchResult:
    """Time compiled program replay vs. the vectorized interpreter.

    Both paths keep one long-lived simulator. The compiled simulator is
    warmed twice before timing: the plan-cache key includes the entry
    scalar registers, which only reach their fixed point on the second
    run (first run: initial registers; later runs: program-final
    registers). Timed repetitions interleave the two paths and take the
    best of ``repeats`` so host noise hits both alike. The warm-up
    asserts the two paths are bit-identical from the same initial state.
    """
    model = _compile_rnn(kind, hidden, config)
    rng = np.random.default_rng(11)
    xs = [rng.standard_normal(model.input_length).astype(np.float32)
          for _ in range(steps)]

    sim_v = model.new_simulator()
    sim_c = model.new_simulator()
    out_v = model.run_sequence(xs, sim=sim_v)
    out_c = model.run_sequence(xs, sim=sim_c, compiled=True)
    if any(not np.array_equal(a, b) for a, b in zip(out_v, out_c)):
        raise AssertionError(
            f"{kind} h={hidden} on {config.name}: compiled replay "
            f"diverged from the vectorized interpreter")
    model.run_sequence(xs, sim=sim_c, compiled=True)  # plan-key fixpoint
    model.run_sequence(xs, sim=sim_v)  # keep trajectories aligned

    best = {"vec": float("inf"), "comp": float("inf")}
    for _ in range(repeats):
        t0 = time.perf_counter()
        model.run_sequence(xs, sim=sim_v)
        best["vec"] = min(best["vec"], time.perf_counter() - t0)
        t0 = time.perf_counter()
        model.run_sequence(xs, sim=sim_c, compiled=True)
        best["comp"] = min(best["comp"], time.perf_counter() - t0)

    return BenchResult(
        name=f"compiled_{kind}_h{hidden}", config=config.name,
        unit_ms=best["comp"] / steps * 1e3, units=steps, repeats=repeats,
        ops_per_unit=float(model.ops_per_step),
        baseline_unit_ms=best["vec"] / steps * 1e3)


def bench_batch_sweep(kind: str, hidden: int, config: NpuConfig,
                      batches=(1, 4, 16), steps: int = 8,
                      repeats: int = 3) -> List[BenchResult]:
    """Batched replay throughput sweep vs. the vectorized interpreter.

    Each batch size B gets a :class:`BenchResult` whose unit is one
    *request-step* (``steps * B`` units per repetition) and whose
    baseline is the vectorized interpreter's ms/step, so ``speedup`` is
    the aggregate-throughput multiplier. The baseline is re-measured
    interleaved with each batch size's timed repetitions — machine
    speed drifts over a long suite (thermals, allocator state), and a
    throughput ratio is only meaningful between same-state
    measurements. Per-request inputs are scaled by distinct powers of
    two (lossless in float32); before timing, every request's batched
    outputs are asserted bit-identical to a sequential run of the
    vectorized interpreter on the same request.
    """
    model = _compile_rnn(kind, hidden, config)
    rng = np.random.default_rng(11)
    xs = [rng.standard_normal(model.input_length).astype(np.float32)
          for _ in range(steps)]

    sim_v = model.new_simulator()
    model.run_sequence(xs, sim=sim_v)  # warm

    results = []
    for batch in batches:
        xb = [[(x * 2.0 ** (-(b % 5))).astype(np.float32) for x in xs]
              for b in range(batch)]
        sim_b = model.new_simulator()
        outs_b = model.run_sequence_batched(xb, sim=sim_b)  # warm+compile
        # Batched runs never mutate the base simulator, so every call
        # starts from fresh recurrent state — compare each request
        # against a fresh interpreted run.
        for b in range(batch):
            seq = model.run_sequence(xb[b], sim=model.new_simulator())
            if any(not np.array_equal(p, q)
                   for p, q in zip(outs_b[b], seq)):
                raise AssertionError(
                    f"{kind} h={hidden} on {config.name}: batched "
                    f"request {b}/{batch} diverged from the vectorized "
                    f"interpreter")
        t_vec = t_b = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            model.run_sequence(xs, sim=sim_v)
            t_vec = min(t_vec, time.perf_counter() - t0)
            t0 = time.perf_counter()
            model.run_sequence_batched(xb, sim=sim_b)
            t_b = min(t_b, time.perf_counter() - t0)
        results.append(BenchResult(
            name=f"batched_{kind}_h{hidden}_b{batch}", config=config.name,
            unit_ms=t_b / (steps * batch) * 1e3, units=steps * batch,
            repeats=repeats, ops_per_unit=float(model.ops_per_step),
            baseline_unit_ms=t_vec / steps * 1e3))
    return results


def bench_batching_goodput(kind: str, hidden: int, config: NpuConfig,
                           quick: bool = False) -> BenchResult:
    """Goodput at a fixed SLO: dynamic batching vs. the batch-1 server.

    Calibrates a :class:`~repro.system.batching.ServiceTimeCurve` from
    batched-replay wall clock (interleaved best-of timing, monotone
    clamp), then runs the :func:`~repro.system.batching.slo_sweep`
    discrete-event comparison on that measured curve: identical Poisson
    arrival traces through a batch-1 server and an SLO-aware
    :class:`~repro.system.batching.DynamicBatcher`, SLO fixed at 8x
    the measured batch-1 service time, arrival rates swept as
    multiples of batch-1 capacity.  The row's unit is one request at
    peak goodput (``unit_ms = 1000 / peak dynamic goodput``), the
    baseline is the batch-1 server's peak, so ``speedup`` is the
    goodput ratio the serving gate floors.
    """
    from ..system.batching import calibrate_batch_curve, slo_sweep
    model = _compile_rnn(kind, hidden, config)
    if quick:
        batches, steps, repeats = (1, 4, 8, 16), 4, 2
        requests, fracs = 600, (0.8, 2.0, 3.0)
    else:
        batches, steps, repeats = (1, 2, 4, 8, 16), 8, 3
        requests, fracs = 2000, (0.5, 1.0, 1.8, 2.5, 3.2, 4.0)
    curve = calibrate_batch_curve(model, batches=batches, steps=steps,
                                  repeats=repeats)
    t1 = curve(1)
    payload = slo_sweep(curve, slo_s=8.0 * t1,
                        rates_rps=[f / t1 for f in fracs],
                        requests=requests, max_batch=16)
    return BenchResult(
        name=f"batching_goodput_{kind}_h{hidden}", config=config.name,
        unit_ms=1e3 / payload["peak_goodput_dynamic_rps"],
        units=requests * len(fracs), repeats=repeats,
        baseline_unit_ms=1e3 / payload["peak_goodput_batch1_rps"])


def bench_timing_sim(kind: str, hidden: int, config: NpuConfig,
                     steps: int = 64, repeats: int = 3) -> BenchResult:
    """Time the cycle-level scheduler over an RNN program."""
    model = _compile_rnn(kind, hidden, config)
    sim = TimingSimulator(config)

    def run():
        return sim.run(model.program, bindings={model.steps_binding: steps})

    total = _best_time(run, repeats)
    return BenchResult(
        name=f"timing_{kind}_h{hidden}", config=config.name,
        unit_ms=total / steps * 1e3, units=steps, repeats=repeats)


def bench_quantize(config: NpuConfig, vectors: int = 4096,
                   repeats: int = 5) -> BenchResult:
    """Time BFP quantization throughput at the config's format."""
    fmt = config.bfp_format
    if fmt is None:  # exact mode: time the narrowest quantized format
        fmt = BfpFormat(mantissa_bits=1,
                        exponent_bits=config.exponent_bits,
                        block_size=config.native_dim)
    rng = np.random.default_rng(3)
    data = rng.standard_normal(
        (vectors, config.native_dim)).astype(np.float32)
    total = _best_time(lambda: quantize(data, fmt), repeats)
    return BenchResult(
        name="bfp_quantize", config=config.name,
        unit_ms=total / vectors * 1e3, units=vectors, repeats=repeats,
        ops_per_unit=float(config.native_dim))


def run_suite(quick: bool = False) -> Dict:
    """Run the full perf suite; returns the ``BENCH_perf.json`` payload.

    ``quick`` shrinks the workloads for CI smoke runs (same coverage,
    smaller hidden dims / fewer repeats).
    """
    if quick:
        functional = [("lstm", 256, BW_S5), ("gru", 256, BW_S5),
                      ("lstm", 1024, BW_S10), ("lstm", 512, BW_CNN_A10)]
        steps, repeats = 4, 2
        compiled = [("lstm", 1024, BW_S10)]
        batches = (1, 16)
        timing = [("lstm", 1024, BW_S10)]
        timing_steps = 16
    else:
        functional = [("lstm", 512, BW_S5), ("gru", 512, BW_S5),
                      ("lstm", 1024, BW_S10), ("gru", 1152, BW_S10),
                      ("lstm", 1024, BW_CNN_A10)]
        steps, repeats = 8, 3
        compiled = [("lstm", 1024, BW_S10), ("gru", 1152, BW_S10)]
        batches = (1, 4, 16)
        timing = [("lstm", 1024, BW_S10), ("gru", 2816, BW_S10)]
        timing_steps = 64
    results = [bench_functional_rnn(kind, hidden, cfg,
                                    steps=steps, repeats=repeats)
               for kind, hidden, cfg in functional]
    results += [bench_compiled_rnn(kind, hidden, cfg,
                                   steps=steps, repeats=max(repeats, 3))
                for kind, hidden, cfg in compiled]
    results += bench_batch_sweep(HEADLINE[0], HEADLINE[1], BW_S10,
                                 batches=batches, steps=steps,
                                 repeats=max(repeats, 3))
    results.append(bench_batching_goodput(HEADLINE[0], HEADLINE[1],
                                          BW_S10, quick=quick))
    results += [bench_timing_sim(kind, hidden, cfg,
                                 steps=timing_steps, repeats=repeats)
                for kind, hidden, cfg in timing]
    results += [bench_quantize(cfg, vectors=1024 if quick else 4096)
                for cfg in (BW_S10, BW_CNN_A10)]
    return {
        "benchmark": "perf",
        "quick": quick,
        "headline": {"kind": HEADLINE[0], "hidden": HEADLINE[1],
                     "config": HEADLINE[2],
                     "compiled_speedup": compiled_headline_speedup(results),
                     "batch16_speedup": batch16_headline_speedup(results),
                     "batching_goodput_ratio":
                         batching_goodput_ratio(results)},
        "results": [r.to_json() for r in results],
    }


def _headline_row(results: List[BenchResult],
                  name: str) -> Optional[float]:
    kind, hidden, cfg = HEADLINE
    full = name.format(kind=kind, hidden=hidden)
    for r in results:
        if r.name == full and r.config == cfg:
            return r.speedup
    return None


def compiled_headline_speedup(results: List[BenchResult]
                              ) -> Optional[float]:
    """Compiled-replay-over-vectorized speedup on the headline LSTM."""
    return _headline_row(results, "compiled_{kind}_h{hidden}")


def batch16_headline_speedup(results: List[BenchResult]
                             ) -> Optional[float]:
    """Aggregate batched-replay throughput multiplier at batch=16."""
    return _headline_row(results, "batched_{kind}_h{hidden}_b16")


def batching_goodput_ratio(results: List[BenchResult]
                           ) -> Optional[float]:
    """Peak-goodput multiplier of SLO-aware dynamic batching over the
    batch-1 server on the headline workload."""
    return _headline_row(results, "batching_goodput_{kind}_h{hidden}")


def headline_gates(results: List[BenchResult], quick: bool
                   ) -> List[tuple]:
    """The perf acceptance gates as ``(label, speedup, floor)`` rows.

    ``speedup`` is ``None`` when the workload is missing from
    ``results``; drivers treat that as a harder failure than a missed
    floor.
    """
    return [
        ("compiled over vectorized", compiled_headline_speedup(results),
         COMPILED_GATE_QUICK if quick else COMPILED_GATE),
        ("batch=16 aggregate over vectorized",
         batch16_headline_speedup(results),
         BATCH16_GATE_QUICK if quick else BATCH16_GATE),
        ("dynamic-batching goodput over batch-1 at equal SLO",
         batching_goodput_ratio(results),
         BATCHING_GATE_QUICK if quick else BATCHING_GATE),
    ]


def render_table(results: List[BenchResult]) -> str:
    """Fixed-width comparison table of a result list."""
    header = (f"{'workload':<28} {'config':<12} {'ms/unit':>10} "
              f"{'baseline':>10} {'speedup':>8} {'Gops/s':>8}")
    lines = [header, "-" * len(header)]
    for r in results:
        base = f"{r.baseline_unit_ms:.3f}" if r.baseline_unit_ms else "-"
        speed = f"{r.speedup:.2f}x" if r.speedup else "-"
        gops = f"{r.gops:.2f}" if r.gops else "-"
        lines.append(f"{r.name:<28} {r.config:<12} {r.unit_ms:>10.3f} "
                     f"{base:>10} {speed:>8} {gops:>8}")
    return "\n".join(lines)


def results_from_json(payload: Dict) -> List[BenchResult]:
    """Rehydrate :class:`BenchResult` rows from a JSON payload."""
    fields = {f.name for f in dataclasses.fields(BenchResult)}
    return [BenchResult(**{k: v for k, v in row.items() if k in fields})
            for row in payload["results"]]
