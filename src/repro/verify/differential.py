"""Differential execution of one fuzz case across every engine.

Runs a :class:`~repro.verify.generator.ProgramCase` on three functional
engines — the pure-python
:class:`~repro.verify.reference.ReferenceInterpreter` (the oracle), the
vectorized :class:`~repro.functional.executor.FunctionalSimulator`
interpreter, and the compiled replay path (``run(compiled=True)``,
:mod:`repro.functional.replay`) — from identical initial state, and
demands bit-identical architectural snapshots, dynamic statistics, and
per-opcode metrics counters. When the compiled plan is batchable, the
case is additionally stepped through a
:class:`~repro.functional.replay.BatchedReplay` with three input-scaled
requests and every request's final state is compared against a
sequential run of the vectorized interpreter (a sequential compiled run
is itself a ``BatchedReplay`` at B=1, so it cannot be the independent
side of that check). The same program is then run
through the :class:`~repro.timing.scheduler.TimingSimulator` and
checked against program-shape-independent timing invariants (serial
lower bound, occupancy range, trace/report agreement, loop-replay
monotonicity).

Comparisons are NaN-tolerant (``equal_nan=True``): float16 saturation
can legitimately produce ``inf`` and then ``nan`` downstream, and the
conformance requirement is that every engine produces the *same* NaNs.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ReproError, UnbatchablePlanError
from ..functional.executor import FunctionalSimulator
from ..functional.replay import BatchedReplay
from ..obs.metrics import Metrics
from ..obs.trace import Tracer
from ..timing import (TimingSimulator, occupancy, occupancy_from_trace,
                      serial_lower_bound)
from .generator import ProgramCase
from .reference import ReferenceInterpreter

#: Slack for floating-point cycle accounting in timing invariants.
_CYCLE_EPS = 1e-6

#: Per-request input scale factors for the batched-replay check. All
#: exact powers of two (sign flip included), so scaling is lossless in
#: float32 and each batched lane sees bit-identical inputs to its
#: sequential twin.
_BATCH_SCALES = (1.0, 0.5, -2.0)


class CaseInvalid(ReproError):
    """Every engine rejected the program identically.

    Generated cases are well-formed by construction, so this normally
    appears only for shrink candidates (which may cut a producer chain
    that a later consumer needed); the shrinker skips such candidates.
    """


@dataclasses.dataclass
class DiffResult:
    """Outcome of one differential run."""

    case: ProgramCase
    mismatches: List[str]
    #: ``mv_mul`` groups the case's batched replay hoisted out of its
    #: loops (``ReplayPlan.hoisted_groups``; 0 when unbatchable).
    hoisted_groups: int = 0
    #: ``mv_mul`` groups whose members run shared pointwise ops as one
    #: wide op over the stacked output (``_MvGroup.fused``; 0 when
    #: unbatchable).
    fused_groups: int = 0
    #: All-zero ``mv_mul`` input rows the batched replay answered
    #: without reading weights (``_MvGroup.elided_rows``; 0 when
    #: unbatchable).
    elided_rows: int = 0
    #: Padding lanes and columns the batched replay's operand stacks
    #: dropped (``_MvGroup.trimmed``, summed over groups; 0 when
    #: unbatchable).
    trimmed_lanes: int = 0
    trimmed_columns: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def load_reference(case: ProgramCase) -> ReferenceInterpreter:
    """Fresh reference interpreter holding the case's initial state."""
    ref = ReferenceInterpreter(case.config)
    for mem, data in case.vrf_init.items():
        ref.load_vrf(mem, data)
    if case.mrf_tiles is not None:
        ref.load_mrf_tiles(0, case.mrf_tiles)
    ref.load_dram_vectors(0, case.dram_vectors)
    ref.load_dram_tiles(0, case.dram_tiles)
    if case.netq_vectors.shape[0]:
        ref.push_inputs(case.netq_vectors)
    ref.push_input_tiles(case.netq_tiles)
    return ref


def load_simulator(case: ProgramCase,
                   metrics: Optional[Metrics] = None) -> FunctionalSimulator:
    """Fresh functional simulator holding the case's initial state."""
    sim = FunctionalSimulator(case.config, metrics=metrics)
    for mem, data in case.vrf_init.items():
        sim.vrfs[mem].write(0, data)
    if case.mrf_tiles is not None:
        # Pinned through the host path, as a serving node pins its
        # weights: the window as a matrix of two tile columns when its
        # tile count is even, so load_matrix's tiling lands every tile
        # back in its slot.
        tiles = case.mrf_tiles
        count, n = tiles.shape[0], tiles.shape[-1]
        cols = 2 if count % 2 == 0 else 1
        sim.load_matrix(0, tiles.reshape(count // cols, cols, n, n)
                        .transpose(0, 2, 1, 3).reshape(-1, cols * n))
    sim.dram.write_vectors(0, case.dram_vectors)
    sim.dram.write_tiles(0, case.dram_tiles)
    for vec in case.netq_vectors:
        sim.netq.push_input(vec)
    if case.netq_tiles.shape[0]:
        sim.netq.push_input_tiles(case.netq_tiles)
    return sim


def _guarded(fn: Callable[[], None]) -> Optional[str]:
    """Run ``fn``; return ``"Type: message"`` if it raised, else None."""
    try:
        fn()
        return None
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"


def _compare_arrays(label: str, a: np.ndarray, b: np.ndarray,
                    out: List[str]) -> None:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        out.append(f"{label}: shape {a.shape} != {b.shape}")
        return
    if not np.array_equal(a, b, equal_nan=True):
        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        delta = np.abs(a64 - b64)
        delta[np.isnan(delta)] = np.inf       # one-sided NaN: divergent
        delta[np.isnan(a64) & np.isnan(b64)] = 0.0
        idx = np.unravel_index(int(np.argmax(delta)), a.shape)
        out.append(f"{label}: worst divergence at {tuple(idx)}: "
                   f"{a[idx]!r} != {b[idx]!r}")
    elif a.dtype.kind == "f":
        # array_equal holds -0.0 == +0.0; the engines must agree on the
        # sign of a zero too.
        flipped = (np.signbit(a) != np.signbit(b)) & (a == 0)
        if flipped.any():
            idx = np.unravel_index(int(np.argmax(flipped)), a.shape)
            out.append(f"{label}: signed zero at "
                       f"{tuple(int(i) for i in idx)}: "
                       f"{float(a[idx])!r} != {float(b[idx])!r}")


def _compare_snapshots(tag: str, lhs: Dict[str, object],
                       rhs: Dict[str, object], out: List[str]) -> None:
    for name in lhs["vrf"]:
        _compare_arrays(f"{tag}: vrf[{name}]", lhs["vrf"][name],
                        rhs["vrf"][name], out)
    _compare_arrays(f"{tag}: mrf", lhs["mrf"], rhs["mrf"], out)
    for space in ("dram_vectors", "dram_tiles"):
        lmap, rmap = lhs[space], rhs[space]
        if set(lmap) != set(rmap):
            out.append(f"{tag}: {space} keys {sorted(lmap)} != "
                       f"{sorted(rmap)}")
        else:
            for key in sorted(lmap):
                _compare_arrays(f"{tag}: {space}[{key}]", lmap[key],
                                rmap[key], out)
    if len(lhs["outputs"]) != len(rhs["outputs"]):
        out.append(f"{tag}: output count {len(lhs['outputs'])} != "
                   f"{len(rhs['outputs'])}")
    else:
        for i, (a, b) in enumerate(zip(lhs["outputs"], rhs["outputs"])):
            _compare_arrays(f"{tag}: outputs[{i}]", a, b, out)
    for field in ("netq_pending_inputs", "netq_pending_tiles",
                  "scalar_regs"):
        if lhs[field] != rhs[field]:
            out.append(f"{tag}: {field} {lhs[field]!r} != {rhs[field]!r}")


def _op_counters(metrics: Metrics) -> Dict[str, int]:
    prefix = "executor.ops."
    return {name[len(prefix):]: int(counter.value)
            for name, counter in metrics.counters.items()
            if name.startswith(prefix)}


# NaN weights and saturating pipelines make infinities and NaNs that
# the engines must agree on; numpy's warnings about them say nothing
# the comparison does not.
@np.errstate(over="ignore", invalid="ignore")
def run_differential(case: ProgramCase,
                     check_timing: bool = True) -> DiffResult:
    """Execute ``case`` on every engine and collect conformance failures.

    Returns a :class:`DiffResult` whose ``mismatches`` list is empty iff
    all engines agree and every timing invariant holds. Raises
    :class:`CaseInvalid` when all three functional engines reject the
    program with the same error type (an ill-formed case, not a bug).
    """
    ref = load_reference(case)
    vec_metrics, comp_metrics = Metrics(), Metrics()
    vec = load_simulator(case, metrics=vec_metrics)
    comp = load_simulator(case, metrics=comp_metrics)

    errors = {
        "reference": _guarded(lambda: ref.run(case.program)),
        "vectorized": _guarded(lambda: vec.run(case.program)),
        "compiled": _guarded(
            lambda: comp.run(case.program, compiled=True)),
    }
    raised = {k: v for k, v in errors.items() if v is not None}
    if len(raised) == len(errors):
        kinds = {v.split(":", 1)[0] for v in raised.values()}
        if len(kinds) == 1:
            raise CaseInvalid(next(iter(raised.values())))
        return DiffResult(case, [
            f"engines all raised but disagree on the error: {raised}"])
    if raised:
        return DiffResult(case, [
            f"only {sorted(raised)} raised: {raised}"])

    mismatches: List[str] = []
    vec_snap = vec.snapshot()
    _compare_snapshots("reference vs vectorized", ref.snapshot(), vec_snap,
                       mismatches)
    _compare_snapshots("vectorized vs compiled", vec_snap, comp.snapshot(),
                       mismatches)

    ref_stats = ref.stats_dict()
    for sim, tag in ((vec, "vectorized"), (comp, "compiled")):
        got = {"chains_executed": sim.stats.chains_executed,
               "instructions_executed": sim.stats.instructions_executed,
               "mv_mul_count": sim.stats.mv_mul_count,
               "macs": sim.stats.macs,
               "pointwise_flops": sim.stats.pointwise_flops}
        if got != ref_stats:
            mismatches.append(
                f"stats reference vs {tag}: {ref_stats} != {got}")

    for metrics, tag in ((vec_metrics, "vectorized"),
                         (comp_metrics, "compiled")):
        ops = _op_counters(metrics)
        want = {k: v for k, v in ref.op_counts.items() if v}
        if ops != want:
            mismatches.append(
                f"op counters reference vs {tag}: {want} != {ops}")
    vec_counts = {n: c.value for n, c in vec_metrics.counters.items()}
    comp_counts = {n: c.value for n, c in comp_metrics.counters.items()}
    if vec_counts != comp_counts:
        mismatches.append(f"metrics counters vectorized vs compiled: "
                          f"{vec_counts} != {comp_counts}")

    batched, reach = check_batched_replay(case)
    mismatches.extend(batched)

    if check_timing:
        mismatches.extend(check_timing_invariants(case, ref))
    return DiffResult(case, mismatches, **reach)


def check_batched_replay(case: ProgramCase
                         ) -> Tuple[List[str], Dict[str, int]]:
    """Batched replay vs per-request interpreted runs; returns the
    mismatches and what the run reached, as :class:`DiffResult`'s
    count fields (none for an unbatchable plan): the plan's hoisted
    ``mv_mul`` groups, its groups with fused pointwise ops, the
    all-zero input rows its groups elided and the padding lanes and
    columns their operand stacks dropped.

    Builds a :class:`BatchedReplay` whose requests see the case's
    network-input vectors scaled by :data:`_BATCH_SCALES` (all other
    initial state is shared), runs it, and demands every request's
    :meth:`~BatchedReplay.snapshot` be bit-identical to a sequential
    vectorized-interpreter run of the correspondingly scaled case (its
    drained :meth:`~BatchedReplay.pop_outputs` too), and a raising run
    to raise the interpreter's error type. The run
    takes any hoisted ``mv_mul`` groups (``ReplayPlan.hoists``); the
    rest check the per-step path. Unbatchable plans (a fallback tail
    from a statically invalid event or an MRF write) must be rejected
    with :class:`~repro.errors.UnbatchablePlanError` naming the
    offending step kinds.
    """
    batch = len(_BATCH_SCALES)
    base = load_simulator(
        dataclasses.replace(case, netq_vectors=case.netq_vectors[:0]))
    plan = base.plan_for(case.program)
    out: List[str] = []
    if not plan.batchable:
        try:
            BatchedReplay(base, case.program, batch)
        except UnbatchablePlanError as exc:
            if not exc.step_kinds:
                out.append("unbatchable plan raised without step kinds")
            if tuple(exc.step_kinds) != tuple(plan.fallback_step_kinds):
                out.append(
                    f"unbatchable step kinds {exc.step_kinds!r} != plan "
                    f"diagnostics {plan.fallback_step_kinds!r}")
        except ReproError as exc:
            out.append(f"unbatchable plan raised {type(exc).__name__} "
                       f"instead of UnbatchablePlanError: {exc}")
        else:
            out.append("unbatchable plan accepted by BatchedReplay")
        return out, {}

    try:
        replay = BatchedReplay(base, case.program, batch)
    except ReproError as exc:
        return [f"batched: BatchedReplay rejected a batchable plan: "
                f"{type(exc).__name__}: {exc}"], {}
    for vec in case.netq_vectors:
        replay.push_input(np.stack([vec * s for s in _BATCH_SCALES]))
    batched_err = _guarded(replay.run)

    drained = {}
    for b, scale in enumerate(_BATCH_SCALES):
        scaled = dataclasses.replace(
            case, netq_vectors=case.netq_vectors * scale)
        sim = load_simulator(scaled)
        seq_err = _guarded(lambda: sim.run(case.program))
        if (batched_err is None) != (seq_err is None):
            out.append(f"batched[{b}]: batched raised {batched_err!r}, "
                       f"sequential raised {seq_err!r}")
            continue
        if batched_err is not None:
            kind = batched_err.split(":", 1)[0]
            if seq_err.split(":", 1)[0] != kind:
                out.append(f"batched[{b}]: error {batched_err!r} != "
                           f"sequential {seq_err!r}")
            continue
        _compare_snapshots(f"batched[{b}] vs sequential interpreted",
                           replay.snapshot(b), sim.snapshot(), out)
        drained[b] = sim.netq.pop_outputs()
    for b, vectors in enumerate(replay.pop_outputs()):
        # Byte for byte: the sign of a zero and a NaN's payload too.
        if b in drained and ([v.tobytes() for v in vectors]
                             != [v.tobytes() for v in drained[b]]):
            out.append(f"batched[{b}]: pop_outputs {vectors!r} != "
                       f"interpreter {drained[b]!r}")
    groups = plan.groups
    return out, {
        "hoisted_groups": plan.hoisted_groups,
        "fused_groups": sum(1 for group in groups if group.fused),
        "elided_rows": sum(group.elided_rows for group in groups),
        "trimmed_lanes": sum(group.trimmed[0] for group in groups),
        "trimmed_columns": sum(group.trimmed[1] for group in groups)}


def check_timing_invariants(case: ProgramCase,
                            ref: ReferenceInterpreter) -> List[str]:
    """Timing-model invariants that hold for any well-formed program."""
    out: List[str] = []
    tracer = Tracer()
    timer = TimingSimulator(case.config, record_chains=True, tracer=tracer)
    report = timer.run(case.program, include_invocation_overhead=False)

    bound = serial_lower_bound(case.program, case.config)
    if report.total_cycles < bound - _CYCLE_EPS:
        out.append(f"total_cycles {report.total_cycles} below serial "
                   f"lower bound {bound}")
    occ = report.mvm_occupancy
    if not (0.0 <= occ <= 1.0 + _CYCLE_EPS):
        out.append(f"mvm_occupancy {occ} outside [0, 1]")

    from_report = occupancy(report)
    from_trace = occupancy_from_trace(tracer)
    if (abs(from_report.total_cycles - from_trace.total_cycles)
            > _CYCLE_EPS
            or abs(from_report.mvm_busy_cycles
                   - from_trace.mvm_busy_cycles) > _CYCLE_EPS
            or from_report.chains != from_trace.chains):
        out.append(f"occupancy report {from_report} != trace {from_trace}")

    if report.chains_executed != ref.chains_executed:
        out.append(f"timing chains {report.chains_executed} != dynamic "
                   f"chains {ref.chains_executed}")
    if report.instructions_dispatched != ref.instructions_executed:
        out.append(f"timing instructions {report.instructions_dispatched} "
                   f"!= dynamic instructions {ref.instructions_executed}")

    replay = TimingSimulator(case.config, replay_loops=True).run(
        case.program, include_invocation_overhead=False)
    if replay.total_cycles > report.total_cycles + _CYCLE_EPS:
        out.append(f"replay_loops cycles {replay.total_cycles} exceed "
                   f"cold-schedule cycles {report.total_cycles}")
    return out
