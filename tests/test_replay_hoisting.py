"""Hoisted input projections in batched replay.

``compile_plan`` marks an ``mv_mul`` group hoistable when its input at
every occurrence is a known slot of the network input queue;
``BatchedReplay.run`` then computes it for all timesteps at once and
each step reads its precomputed rows. Hoisting is a pure performance
optimization: outputs and every request's architectural state must
stay bit-identical to a fresh sequential ``run_sequence`` on the
vectorized interpreter, plans that break a legality rule must not
hoist, and a short input queue must fail exactly as an unhoisted run
does. (A sequential ``run(compiled=True)`` is itself a hoisting
``BatchedReplay`` at B=1, so it is not the comparison here.)
"""

import numpy as np
import pytest

import repro.functional.replay as replay
from repro.compiler import compile_gru, compile_lstm
from repro.config import BW_S10, NpuConfig
from repro.errors import NetworkQueueEmptyError
from repro.functional.executor import FunctionalSimulator
from repro.functional.replay import BatchedReplay
from repro.isa import MemId, ProgramBuilder, ScalarReg
from repro.models import GruReference, LstmReference

MB2 = NpuConfig(name="hoist_mb2", native_dim=128, lanes=4, tile_engines=2,
                mrf_size=256, mantissa_bits=2)
#: Wide mantissas: the unpacked mantissa-GEMV mode instead of packed.
MB7 = NpuConfig(name="hoist_mb7", native_dim=16, lanes=4, tile_engines=2,
                mrf_size=64, mantissa_bits=7, bfp_block_size=4)


@pytest.fixture(scope="module")
def lstm1024():
    return compile_lstm(LstmReference(hidden_dim=1024, input_dim=1024,
                                      seed=0), BW_S10)


def _sequences(compiled, batch, steps, distinct=None, seed=0):
    """Per-request input sequences; request b uses pattern b % distinct."""
    rng = np.random.default_rng(seed)
    distinct = distinct or batch
    patterns = [[rng.uniform(-1, 1, compiled.input_length)
                 .astype(np.float32) for _ in range(steps)]
                for _ in range(min(batch, distinct))]
    return [patterns[b % len(patterns)] for b in range(batch)]


def _batched(compiled, xb, sim=None):
    """One BatchedReplay over ``xb`` (run_sequence_batched, keeping the
    replay for its snapshots); returns (replay, per-request outputs)."""
    batch, steps = len(xb), len(xb[0])
    sim = sim or compiled.new_simulator()
    rep = BatchedReplay(sim, compiled.program, batch,
                        bindings={compiled.steps_binding: steps})
    n = compiled.config.native_dim
    entries = compiled.input_vectors_per_step
    for t in range(steps):
        padded = np.zeros((batch, entries * n), dtype=np.float32)
        for r, xs in enumerate(xb):
            padded[r, :compiled.input_length] = xs[t]
        for i in range(entries):
            rep.push_input(padded[:, i * n:(i + 1) * n])
    rep.run()
    per = compiled.output_vectors_per_step
    outs = [[np.concatenate(vecs[t * per:(t + 1) * per]
                            )[:compiled.output_length]
             for t in range(steps)]
            for vecs in rep.pop_outputs()]
    return rep, outs


def _assert_state_equal(a, b, label):
    assert type(a) is type(b), (label, type(a), type(b))
    if isinstance(a, dict):
        assert a.keys() == b.keys(), label
        for k in a:
            _assert_state_equal(a[k], b[k], f"{label}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), label
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_state_equal(x, y, f"{label}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), label
    else:
        assert a == b, (label, a, b)


def _check_against_fresh(compiled, xb, snapshot_lanes):
    """Batched (hoisted) outputs for every request, and snapshots for
    ``snapshot_lanes``, equal fresh interpreted runs (one per distinct
    input sequence)."""
    rep, outs = _batched(compiled, xb)
    assert rep.plan.hoisted_groups > 0
    checked = []
    for xs in xb:
        if any(xs is seen for seen in checked):
            continue
        checked.append(xs)
        sim = compiled.new_simulator()
        want = compiled.run_sequence(xs, sim=sim)
        for lane in (b for b in range(len(xb)) if xb[b] is xs):
            assert len(outs[lane]) == len(want)
            for t, (got, ref) in enumerate(zip(outs[lane], want)):
                assert np.array_equal(got, ref), f"request {lane} step {t}"
            if lane in snapshot_lanes:
                _assert_state_equal(rep.snapshot(lane), sim.snapshot(),
                                    f"snapshot[{lane}]")
        del sim


# -- positive cases ---------------------------------------------------------

@pytest.mark.tier1
@pytest.mark.parametrize("batch", [1, 3, 16])
def test_lstm1024_hoisted_matches_fresh_run_sequence(lstm1024, batch):
    """The headline LSTM (h=1024 on BW_S10): the four x_t*W_g gate
    matrices form one fused group, hoisted over all timesteps."""
    xb = _sequences(lstm1024, batch, steps=2, distinct=4)
    sim = lstm1024.new_simulator()
    plan = sim.plan_for(lstm1024.program, {lstm1024.steps_binding: 2})
    assert plan.hoisted_groups == 1
    (group, positions), = plan.hoists
    assert len(group.members) == 4
    cols = lstm1024.input_vectors_per_step
    assert positions.tolist() == [list(range(cols)),
                                  list(range(cols, 2 * cols))]
    assert plan.hoisted_inputs == 2 * cols
    del sim
    _check_against_fresh(lstm1024, xb, snapshot_lanes={0, batch - 1})


@pytest.mark.tier1
@pytest.mark.parametrize("cfg", [MB2, MB7], ids=["packed", "mantissa"])
@pytest.mark.parametrize("batch", [1, 3, 16])
def test_gru_hoisted_matches_fresh_run_sequence(cfg, batch):
    hidden = 200 if cfg is MB2 else 24
    compiled = compile_gru(GruReference(hidden_dim=hidden, input_dim=hidden,
                                        seed=3), cfg)
    sim = compiled.new_simulator()
    mode = (replay._MODE_PACKED if sim._pack_slots
            else replay._MODE_MANTISSA)
    plan = sim.plan_for(compiled.program, {compiled.steps_binding: 3})
    assert [g.mode for g, _ in plan.hoists] == [mode]
    xb = _sequences(compiled, batch, steps=3)
    _check_against_fresh(compiled, xb, snapshot_lanes=set(range(batch)))


@pytest.mark.tier1
@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_sequential_compiled_run_hoists(monkeypatch, kind):
    """``run(compiled=True)`` is a BatchedReplay at B=1, so a sequential
    compiled run computes each hoisted group once per run through
    ``apply_rows``, not once per step, and still equals the
    interpreter bit for bit."""
    model, comp = ((LstmReference, compile_lstm) if kind == "lstm"
                   else (GruReference, compile_gru))
    compiled = comp(model(200, 200, seed=2), MB2)
    steps = 4
    xs = _sequences(compiled, 1, steps)[0]
    sim = compiled.new_simulator()
    plan = sim.plan_for(compiled.program, {compiled.steps_binding: steps})
    (hoisted, positions), = plan.hoists
    assert positions.shape[0] == steps
    calls = []
    real = replay._MvGroup.apply_rows

    def counting(group, sim, value):
        calls.append(group)
        return real(group, sim, value)

    monkeypatch.setattr(replay._MvGroup, "apply_rows", counting)
    got = compiled.run_sequence(xs, sim=sim, compiled=True)
    assert calls.count(hoisted) == 1
    want = compiled.run_sequence(xs, sim=compiled.new_simulator())
    for t, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b), f"step {t}"


@pytest.mark.tier1
def test_hoisting_replaces_per_step_decompositions(monkeypatch):
    """One input decomposition per hoisted group per run, instead of
    one per timestep: T steps of an LSTM decompose T times. The
    recurrent U*h group runs on steps 1..T-1; on step 0 it reads the
    zero state h0, a row apply_rows answers without the weights."""
    compiled = compile_lstm(LstmReference(200, 200, seed=1), MB2)
    sim = compiled.new_simulator()
    xb = _sequences(compiled, 2, steps=5)
    compiled.run_sequence_batched(xb, sim=sim)  # compile the plan
    calls = []
    real = replay.decompose

    def counting(x, fmt):
        calls.append(x.shape)
        return real(x, fmt)

    plan = sim.plan_for(compiled.program, {compiled.steps_binding: 5})
    elided = sum(g.elided_rows for g in plan.groups)
    monkeypatch.setattr(replay, "decompose", counting)
    compiled.run_sequence_batched(xb, sim=sim)
    assert len(calls) == 5
    # Step 0's two request rows of h0 = 0, and no other row.
    assert sum(g.elided_rows for g in plan.groups) - elided == 2
    # The hoisted call covers every (timestep, request) row at once.
    assert calls[0][0] == 5 * 2
    # The elided step is the first recurrent one: four U*h calls remain.
    assert calls[1:] == [(2,) + calls[1][1:]] * 4


@pytest.mark.tier1
def test_epilogue_scratch_is_fixed_per_mrf_generation():
    """Per-step and hoisted calls share one scratch set per group,
    allocated once per MRF generation whatever the batch size."""
    compiled = compile_lstm(LstmReference(200, 200, seed=1), MB2)
    sim = compiled.new_simulator()
    compiled.run_sequence_batched(_sequences(compiled, 1, steps=2), sim=sim)
    plan = sim.plan_for(compiled.program, {compiled.steps_binding: 2})
    scratch = [g._scratch for g in plan.groups]
    assert all(s is not None for s in scratch)
    for batch in (6, 2, replay._EPILOGUE_ROWS + 3):
        compiled.run_sequence_batched(_sequences(compiled, batch, steps=2),
                                      sim=sim)
        assert all(g._scratch is s for g, s in zip(plan.groups, scratch))
    rows = replay._EPILOGUE_ROWS
    assert all(s[2].shape[1] == rows for s in scratch)
    sim.load_matrix(0, np.eye(200, dtype=np.float32))  # new generation
    compiled.run_sequence_batched(_sequences(compiled, 2, steps=2), sim=sim)
    assert all(g._scratch is not s for g, s in zip(plan.groups, scratch))


# -- negative cases ---------------------------------------------------------

def _projection_program(overwrite=False, write_mrf=False):
    """x_t copied from the network queue into the InitialVrf, then one
    mv_mul over it, in a loop of ``steps`` iterations; optionally a
    point-wise chain overwrites the copied window before the mv_mul, or
    a matrix chain rewrites MRF tiles first."""
    b = ProgramBuilder("projection")
    b.s_wr(ScalarReg.Rows, 1).s_wr(ScalarReg.Columns, 1)
    if write_mrf:
        b.m_rd(MemId.Dram, 0).m_wr(MemId.MatrixRf, 0)
    with b.loop("steps"):
        b.v_rd(MemId.NetQ).v_wr(MemId.InitialVrf, 0)
        if overwrite:
            b.v_rd(MemId.InitialVrf, 0).v_relu().v_wr(MemId.InitialVrf, 0)
        b.v_rd(MemId.InitialVrf, 0).mv_mul(0).v_wr(MemId.NetQ)
    return b.build()


def _projection_sim(exact=False):
    sim = FunctionalSimulator(MB2, exact=exact)
    rng = np.random.default_rng(5)
    sim.load_matrix(0, rng.uniform(-1, 1, (128, 128)).astype(np.float32))
    sim.dram.write_tiles(0, rng.uniform(-1, 1, (1, 128, 128))
                         .astype(np.float32))
    return sim


@pytest.mark.tier1
def test_projection_program_hoists():
    """Control for the negative cases below: the bare pattern hoists
    and stays bit-identical to sequential interpreted runs."""
    program = _projection_program()
    sim = _projection_sim()
    plan = sim.plan_for(program, {"steps": 3})
    assert plan.hoisted_groups == 1
    rng = np.random.default_rng(9)
    xs = rng.uniform(-1, 1, (3, 2, 128)).astype(np.float32)  # (T, B, N)
    rep = BatchedReplay(sim, program, 2, bindings={"steps": 3})
    for x in xs:
        rep.push_input(x)
    rep.run()
    for b in range(2):
        seq = _projection_sim()
        for x in xs:
            seq.netq.push_input(x[b])
        seq.run(program, {"steps": 3})
        _assert_state_equal(rep.snapshot(b), seq.snapshot(), f"[{b}]")


@pytest.mark.tier1
@pytest.mark.parametrize("case", ["exact", "m_wr", "overwritten", "t1"])
def test_illegal_plans_do_not_hoist(case):
    program = _projection_program(overwrite=case == "overwritten",
                                  write_mrf=case == "m_wr")
    sim = _projection_sim(exact=case == "exact")
    steps = 1 if case == "t1" else 3
    assert sim.plan_for(program, {"steps": steps}).hoisted_groups == 0


@pytest.mark.tier1
@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_models_do_not_hoist_in_exact_mode_or_at_t1(kind):
    model, comp = ((LstmReference, compile_lstm) if kind == "lstm"
                   else (GruReference, compile_gru))
    compiled = comp(model(200, 200, seed=2), MB2)
    binding = compiled.steps_binding
    sim = compiled.new_simulator()
    assert sim.plan_for(compiled.program, {binding: 1}).hoisted_groups == 0
    assert sim.plan_for(compiled.program, {binding: 2}).hoisted_groups == 1
    exact = compiled.new_simulator(exact=True)
    assert exact.plan_for(compiled.program, {binding: 4}).hoisted_groups == 0


# -- error parity -----------------------------------------------------------

@pytest.mark.tier1
def test_short_queue_fails_like_an_unhoisted_run():
    """Too few queued inputs: nothing is hoisted, and the batched run
    raises the queue-empty error at the same step as a sequential
    interpreted run, with the same outputs emitted before it."""
    compiled = compile_lstm(LstmReference(200, 200, seed=1), MB2)
    steps, fed = 4, 3
    xb = _sequences(compiled, 2, steps=fed)
    sim = compiled.new_simulator()
    rep = BatchedReplay(sim, compiled.program, 2,
                        bindings={compiled.steps_binding: steps})
    assert rep.plan.hoisted_groups == 1
    n = compiled.config.native_dim
    for t in range(fed):
        padded = np.zeros((2, compiled.input_vectors_per_step * n),
                          dtype=np.float32)
        for r in range(2):
            padded[r, :200] = xb[r][t]
        for i in range(compiled.input_vectors_per_step):
            rep.push_input(padded[:, i * n:(i + 1) * n])
    with pytest.raises(NetworkQueueEmptyError) as batched_err:
        rep.run()
    assert rep._hoisted == {}
    for b in range(2):
        seq = compiled.new_simulator()
        for x in xb[b]:
            padded = np.zeros(compiled.input_vectors_per_step * n,
                              dtype=np.float32)
            padded[:200] = x
            for vector in padded.reshape(-1, n):
                seq.netq.push_input(vector)
        with pytest.raises(NetworkQueueEmptyError) as seq_err:
            seq.run(compiled.program, {compiled.steps_binding: steps})
        assert type(seq_err.value) is type(batched_err.value)
        emitted = seq.netq.pop_outputs()
        assert len(emitted) == fed * compiled.output_vectors_per_step
        got = rep.snapshot(b)["outputs"]
        assert len(got) == len(emitted)
        for g, w in zip(got, emitted):
            assert np.array_equal(g, w)
