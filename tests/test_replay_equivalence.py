"""Compiled replay vs. interpreter: bit-equality across models/configs.

The compiled path (``run(compiled=True)`` / :mod:`repro.functional.replay`)
is a pure performance optimization: outputs, architectural snapshots,
execution statistics, per-memory access counters, trace spans, and
metrics counters must all be bit-identical to the vectorized
interpreter. Batched replay must likewise match per-request sequential
compiled runs exactly. These tests pin that contract for LSTM/GRU
models on narrow-mantissa (mb=2) and wide-mantissa (mb=5) formats, in
observed (traced) and unobserved modes, and across batch sizes.
"""

import numpy as np
import pytest

from repro.compiler import compile_gru, compile_lstm
from repro.config import NpuConfig
from repro.errors import UnbatchablePlanError
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
    _assert_state_equal(sim_i.snapshot(), sim_c.snapshot(), "snapshot")
    assert sim_i.stats.__dict__ == sim_c.stats.__dict__
    assert sim_i.mrf.reads == sim_c.mrf.reads
    assert sim_i.mrf.writes == sim_c.mrf.writes
    for mem in sim_i.vrfs:
        assert sim_i.vrfs[mem].reads == sim_c.vrfs[mem].reads, mem
        assert sim_i.vrfs[mem].writes == sim_c.vrfs[mem].writes, mem


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
