"""Compiled replay vs. interpreter: bit-equality across models/configs.

The compiled path (``run(compiled=True)`` / :mod:`repro.functional.replay`)
is a pure performance optimization: outputs, architectural snapshots,
execution statistics, per-memory access counters, trace spans, and
metrics counters must all be bit-identical to the vectorized
interpreter. It runs as one ``BatchedReplay`` at B=1 whose ``commit``
writes the request back into the simulator; batched replay at B > 1
must match per-request sequential runs exactly, and must never write
the base simulator. These tests pin that contract for LSTM/GRU models
on narrow-mantissa (mb=2) and wide-mantissa (mb=5) formats, in
observed (traced) and unobserved modes, and across batch sizes.
"""

import numpy as np
import pytest

from repro.compiler import compile_gru, compile_lstm
from repro.config import NpuConfig
from repro.errors import (ExecutionError, NetworkQueueEmptyError,
                          ReproError, UnbatchablePlanError)
from repro.functional import FunctionalSimulator
from repro.functional.replay import BatchedReplay
from repro.isa import MemId, ProgramBuilder, ScalarReg
from repro.models import GruReference, LstmReference
from repro.obs import Metrics, Tracer

MB2 = NpuConfig(name="replay_mb2", native_dim=128, lanes=4,
                tile_engines=2, mrf_size=256, mantissa_bits=2)
MB5 = NpuConfig(name="replay_mb5", native_dim=128, lanes=4,
                tile_engines=2, mrf_size=256, mantissa_bits=5)

_COMPILERS = {"lstm": (LstmReference, compile_lstm),
              "gru": (GruReference, compile_gru)}


def _compiled_model(kind, hidden, cfg, seed=3):
    model_cls, comp_fn = _COMPILERS[kind]
    return comp_fn(model_cls(hidden_dim=hidden, input_dim=hidden,
                             seed=seed), cfg)


def _inputs(n, steps, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1, 1, n).astype(np.float32)
            for _ in range(steps)]


def _assert_state_equal(a, b, label):
    """Recursive bit-equality over snapshot dicts (arrays, lists,
    nested dicts, scalars)."""
    assert type(a) is type(b), (label, type(a), type(b))
    if isinstance(a, dict):
        assert a.keys() == b.keys(), (label, a.keys(), b.keys())
        for k in a:
            _assert_state_equal(a[k], b[k], f"{label}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), (label, len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_state_equal(x, y, f"{label}[{i}]")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b, equal_nan=True), label
    else:
        assert a == b, (label, a, b)


def _assert_run_equivalent(compiled, xs, exact=False):
    sim_i = compiled.new_simulator(exact=exact)
    out_i = compiled.run_sequence(xs, sim=sim_i)
    sim_c = compiled.new_simulator(exact=exact)
    out_c = compiled.run_sequence(xs, sim=sim_c, compiled=True)

    assert len(out_i) == len(out_c)
    for a, b in zip(out_i, out_c):
        assert np.array_equal(a, b)
    assert _counters(sim_i) == _counters(sim_c)
    _assert_state_equal(sim_i.snapshot(), sim_c.snapshot(), "snapshot")


def _counters(sim):
    """Every counter a run advances: stats, register files, DRAM bytes,
    network-queue vectors, and the trace clock."""
    return (dict(vars(sim.stats)), sim.mrf.reads, sim.mrf.writes,
            {mem: (v.reads, v.writes) for mem, v in sim.vrfs.items()},
            sim.dram.bytes_read, sim.dram.bytes_written,
            sim.netq.vectors_received, sim.netq.vectors_sent,
            sim._trace_clock)


# -- sequential compiled vs interpreter ------------------------------------

@pytest.mark.tier1
@pytest.mark.parametrize("kind,hidden,cfg", [
    ("lstm", 300, MB2),
    ("gru", 300, MB2),
    ("lstm", 200, MB5),
], ids=["lstm-mb2", "gru-mb2", "lstm-mb5"])
def test_compiled_matches_interpreter(kind, hidden, cfg):
    compiled = _compiled_model(kind, hidden, cfg)
    xs = _inputs(hidden, 4)
    _assert_run_equivalent(compiled, xs)


@pytest.mark.tier1
def test_compiled_matches_interpreter_exact_mode():
    compiled = _compiled_model("lstm", 300, MB2)
    xs = _inputs(300, 3)
    _assert_run_equivalent(compiled, xs, exact=True)


@pytest.mark.tier1
def test_traced_compiled_matches_interpreter_spans_and_counters():
    """Observed mode: span streams (name/start/end/track/attrs) and every
    metrics counter agree between interpreter and compiled replay."""
    compiled = _compiled_model("lstm", 300, MB2)
    xs = _inputs(300, 3)

    tr_i, me_i = Tracer(), Metrics()
    sim_i = compiled.new_simulator(tracer=tr_i, metrics=me_i)
    out_i = compiled.run_sequence(xs, sim=sim_i)
    tr_c, me_c = Tracer(), Metrics()
    sim_c = compiled.new_simulator(tracer=tr_c, metrics=me_c)
    out_c = compiled.run_sequence(xs, sim=sim_c, compiled=True)

    for a, b in zip(out_i, out_c):
        assert np.array_equal(a, b)

    def key(s):
        return (s.name, s.start, s.end, s.track,
                tuple(sorted(s.attrs.items())))

    assert [key(s) for s in tr_i.spans] == [key(s) for s in tr_c.spans]
    assert {k: c.value for k, c in me_i.counters.items()} == \
           {k: c.value for k, c in me_c.counters.items()}
    assert sim_i._trace_clock == sim_c._trace_clock


# -- batched replay vs sequential compiled ---------------------------------

@pytest.mark.tier1
@pytest.mark.parametrize("batch", [1, 3, 16])
def test_batched_matches_sequential_compiled(batch):
    hidden = 200 if batch == 16 else 300
    compiled = _compiled_model("gru" if batch == 3 else "lstm",
                               hidden, MB2)
    xs = _inputs(hidden, 3)
    # Per-request inputs scaled by distinct powers of two: lossless in
    # float32, so each batched lane must reproduce its sequential twin
    # bit for bit.
    xb = [[(x * 2.0 ** (-(b % 5))).astype(np.float32) for x in xs]
          for b in range(batch)]

    outs_b = compiled.run_sequence_batched(
        xb, sim=compiled.new_simulator())
    assert len(outs_b) == batch
    for b in range(batch):
        sim = compiled.new_simulator()
        seq = compiled.run_sequence(xb[b], sim=sim, compiled=True)
        assert len(outs_b[b]) == len(seq)
        for a, c in zip(outs_b[b], seq):
            assert np.array_equal(a, c), f"request {b}"


@pytest.mark.tier1
def test_batched_exact_mode_matches_sequential():
    compiled = _compiled_model("lstm", 200, MB5)
    xs = _inputs(200, 2)
    xb = [[(x * s).astype(np.float32) for x in xs]
          for s in (1.0, -0.5, 4.0)]
    outs_b = compiled.run_sequence_batched(
        xb, sim=compiled.new_simulator(exact=True))
    for b in range(3):
        sim = compiled.new_simulator(exact=True)
        seq = compiled.run_sequence(xb[b], sim=sim, compiled=True)
        for a, c in zip(outs_b[b], seq):
            assert np.array_equal(a, c), f"request {b}"


# -- unbatchable plans -----------------------------------------------------

@pytest.mark.tier1
def test_unbatchable_plan_rejected_with_step_kinds():
    """A broken fallback tail (everything after a definitely-raising
    event) makes the plan unbatchable; BatchedReplay must refuse it
    with a structured error naming the interpreted step kinds."""
    b = ProgramBuilder("broken")
    b.s_wr(ScalarReg.Rows, 0)  # rows < 1 definitely raises
    b.v_rd(MemId.NetQ).v_wr(MemId.InitialVrf, 0)
    program = b.build()
    compiled = _compiled_model("lstm", 200, MB2)
    sim = compiled.new_simulator()
    plan = sim.plan_for(program)
    assert not plan.batchable
    assert plan.fallback_steps == len(plan.fallback_step_kinds) > 0
    with pytest.raises(UnbatchablePlanError) as exc_info:
        BatchedReplay(sim, program, 2)
    exc = exc_info.value
    assert tuple(exc.step_kinds) == tuple(plan.fallback_step_kinds)
    assert "s_wr:Rows" in exc.step_kinds
    # run(compiled=True) interprets such a plan whole: the interpreter's
    # error, with the interpreter's partial effects.
    after = []
    for compiled_run in (False, True):
        sim = compiled.new_simulator()
        with pytest.raises(ExecutionError, match="Rows"):
            sim.run(program, compiled=compiled_run)
        after.append(_counters(sim))
    assert after[0] == after[1]


# -- plan-cache lifecycle --------------------------------------------------

@pytest.mark.tier1
def test_plan_cache_invalidated_on_mrf_rewrite():
    """Regression: rewriting MRF tiles between compiled runs must not
    serve results computed from stale cached weight operands. The
    compiled path keys its per-group operand caches on the MRF
    generation counter, which every tile write bumps."""
    compiled = _compiled_model("lstm", 200, MB2)
    xs = _inputs(200, 2)
    sim_c = compiled.new_simulator()
    sim_v = compiled.new_simulator()
    out_c1 = compiled.run_sequence(xs, sim=sim_c, compiled=True)
    out_v1 = compiled.run_sequence(xs, sim=sim_v)
    for a, b in zip(out_c1, out_v1):
        assert np.array_equal(a, b)

    # Overwrite the first weight tiles on both simulators identically.
    rng = np.random.default_rng(7)
    junk = rng.uniform(-1.0, 1.0,
                       (MB2.native_dim, MB2.native_dim)).astype(np.float32)
    assert sim_c.load_matrix(0, junk) == sim_v.load_matrix(0, junk)

    out_c2 = compiled.run_sequence(xs, sim=sim_c, compiled=True)
    out_v2 = compiled.run_sequence(xs, sim=sim_v)
    for a, b in zip(out_c2, out_v2):
        assert np.array_equal(a, b)
    # The rewrite was observable: stale caches would have reproduced
    # the original trajectory instead.
    assert any(not np.array_equal(a, b)
               for a, b in zip(out_c2, out_v1))


@pytest.mark.tier1
def test_repeated_compiled_runs_reuse_plan():
    """Repeated compiled runs on one simulator hit the per-sim plan
    cache and still track the interpreter bit for bit across the
    carried recurrent state. The cache key includes the entry scalar
    registers, so the key set reaches a fixed point after the second
    run (first run: initial regs; later runs: program-final regs) and
    no further compilation happens."""
    compiled = _compiled_model("gru", 200, MB2)
    xs = _inputs(200, 2)
    sim_c = compiled.new_simulator()
    sim_v = compiled.new_simulator()
    for _ in range(2):
        compiled.run_sequence(xs, sim=sim_c, compiled=True)
        compiled.run_sequence(xs, sim=sim_v)
    plans_after_first = len(sim_c._plans)
    out_c = compiled.run_sequence(xs, sim=sim_c, compiled=True)
    out_v = compiled.run_sequence(xs, sim=sim_v)
    assert len(sim_c._plans) == plans_after_first
    for a, b in zip(out_c, out_v):
        assert np.array_equal(a, b)
    _assert_state_equal(sim_v.snapshot(), sim_c.snapshot(), "snapshot")


# -- the B=1 commit and the base simulator ---------------------------------

@pytest.mark.tier1
@pytest.mark.parametrize("exact", [False, True], ids=["bfp", "exact"])
def test_batched_run_leaves_base_simulator_untouched(exact):
    """Regression: exact-mode batched replay derived its float64 weight
    blocks through a counting read and advanced the base simulator's
    ``mrf.reads``. A batched run keeps no counters and writes no state
    on the base simulator, whatever the numerics mode."""
    compiled = _compiled_model("lstm", 256, MB2)
    xs = _inputs(256, 3)
    sim = compiled.new_simulator(exact=exact)
    snap = sim.snapshot()
    counters = _counters(sim)
    compiled.run_sequence_batched([xs, xs], sim=sim)
    assert _counters(sim) == counters
    _assert_state_equal(sim.snapshot(), snap, "snapshot")


@pytest.mark.tier1
@pytest.mark.parametrize("exact", [False, True], ids=["bfp", "exact"])
def test_snapshot_moves_no_counter(exact):
    """Regression: ``FunctionalSimulator.snapshot`` copied its state
    through the counting register-file reads, so inspecting a simulator
    added the whole VRF depth and MRF capacity to the read counters. A
    snapshot on either engine leaves every counter as it was."""
    compiled = _compiled_model("lstm", 256, MB2)
    sim = compiled.new_simulator(exact=exact)
    compiled.run_sequence(_inputs(256, 2), sim=sim, compiled=True)
    counters = _counters(sim)
    snap = sim.snapshot()
    assert _counters(sim) == counters
    rep = BatchedReplay(sim, compiled.program, 2,
                        bindings={compiled.steps_binding: 1})
    _assert_state_equal(rep.snapshot(1), snap, "snapshot")
    assert _counters(sim) == counters


@pytest.mark.tier1
def test_snapshot_and_commit_reject_bad_requests():
    compiled = _compiled_model("gru", 200, MB2)
    rep = BatchedReplay(compiled.new_simulator(), compiled.program, 2,
                        bindings={compiled.steps_binding: 1})
    for b in (-1, 2):
        with pytest.raises(ExecutionError, match="batch of 2"):
            rep.snapshot(b)
    with pytest.raises(ExecutionError, match="batch of 1"):
        rep.commit()


@pytest.mark.tier1
def test_raising_compiled_run_commits_nothing():
    """Too few queued inputs: the compiled run raises the interpreter's
    error type, and — the one documented divergence — leaves state,
    statistics, counters, and the trace clock as they were before the
    run, where the interpreter keeps its partial effects."""
    compiled = _compiled_model("lstm", 200, MB2)
    xs = _inputs(200, 2)

    def attempt(compiled_run):
        sim = compiled.new_simulator()
        compiled.run_sequence(xs, sim=sim)  # non-trivial prior state
        for x in xs:
            sim.push_input(x)
        before = (sim.snapshot(), _counters(sim))
        with pytest.raises(ReproError) as err:
            sim.run(compiled.program, {compiled.steps_binding: 3},
                    compiled=compiled_run)
        return sim, before, err.value

    sim_i, before_i, err_i = attempt(False)
    sim_c, before_c, err_c = attempt(True)
    assert type(err_i) is NetworkQueueEmptyError
    assert type(err_c) is type(err_i)
    assert _counters(sim_c) == before_c[1]
    _assert_state_equal(sim_c.snapshot(), before_c[0], "snapshot")
    assert sim_i._trace_clock > before_i[1][-1]
    assert len(sim_i.snapshot()["outputs"]) > 0


def _run_traffic(program, compiled_run):
    """Run an ``mv_mul`` program, ``program``, and the ``mv_mul`` program
    again on a fresh simulator; returns the simulator and the plan the
    compiled path would use for ``program``."""
    b = ProgramBuilder("mvm")
    b.v_rd(MemId.InitialVrf, 0).mv_mul(0).v_wr(MemId.NetQ)
    mvm = b.build()
    rng = np.random.default_rng(4)
    sim = FunctionalSimulator(MB2)
    n = MB2.native_dim
    sim.load_matrix(0, rng.uniform(-1, 1, (n, n)))
    sim.vrfs[MemId.InitialVrf].write(0, rng.uniform(-1, 1, (1, n)))
    sim.dram.write_tiles(0, rng.uniform(-1, 1, (1, n, n)))
    sim.netq.push_input(rng.uniform(-1, 1, n))
    sim.netq.push_input_tiles(rng.uniform(-1, 1, (1, n, n)))
    sim.run(mvm, compiled=compiled_run)
    plan = sim.plan_for(program)
    for prog in (program, mvm):
        sim.run(prog, compiled=compiled_run)
    return sim, plan


@pytest.mark.tier1
def test_compiled_memory_traffic_matches_interpreter():
    """DRAM and network-queue traffic through the commit: a VRF window
    copied to DRAM and then overwritten (the DRAM entry must be a copy,
    not a view of the VRF slice, which is contiguous at B=1), and tiles
    moved from DRAM and from the queue to DRAM. The plan is batchable;
    state, outputs, and every counter equal the interpreter's."""
    b = ProgramBuilder("traffic")
    b.v_rd(MemId.InitialVrf, 0).v_wr(MemId.Dram, 0)
    b.v_rd(MemId.NetQ).v_wr(MemId.InitialVrf, 0)
    b.v_rd(MemId.Dram, 0).v_wr(MemId.NetQ)
    b.m_rd(MemId.Dram, 0).m_wr(MemId.Dram, 2)
    b.m_rd(MemId.NetQ).m_wr(MemId.Dram, 1)
    traffic = b.build()

    (sim_i, _), (sim_c, plan) = (_run_traffic(traffic, False),
                                 _run_traffic(traffic, True))
    assert plan.batchable
    _assert_state_equal(sim_i.snapshot(), sim_c.snapshot(), "snapshot")
    assert _counters(sim_i) == _counters(sim_c)
    assert len(sim_c.snapshot()["outputs"]) == 3


@pytest.mark.tier1
def test_mrf_writing_plan_is_interpreted():
    """Batched requests share one MRF, so a plan that writes matrix
    registers is unbatchable: ``BatchedReplay`` names the ``m_wr`` chain,
    and ``run(compiled=True)`` interprets the plan whole. The ``mv_mul``
    after it sees the new weights (the interpreted write bumps the MRF
    generation, which rebinds the compiled operands), and state,
    outputs, and every counter equal the interpreter's."""
    b = ProgramBuilder("rewrite")
    b.v_rd(MemId.NetQ).v_wr(MemId.InitialVrf, 1)
    b.m_rd(MemId.Dram, 0).m_wr(MemId.MatrixRf, 0)
    b.v_rd(MemId.InitialVrf, 1).v_wr(MemId.NetQ)
    rewrite = b.build()

    (sim_i, _), (sim_c, plan) = (_run_traffic(rewrite, False),
                                 _run_traffic(rewrite, True))
    assert not plan.batchable
    assert plan.fallback_step_kinds == ("m_rd>m_wr", "v_rd>v_wr")
    with pytest.raises(UnbatchablePlanError) as exc_info:
        BatchedReplay(sim_c, rewrite, 2)
    assert "m_rd>m_wr" in exc_info.value.step_kinds
    _assert_state_equal(sim_i.snapshot(), sim_c.snapshot(), "snapshot")
    assert _counters(sim_i) == _counters(sim_c)
    outs = sim_c.snapshot()["outputs"]
    assert len(outs) == 3 and not np.array_equal(outs[0], outs[2])
