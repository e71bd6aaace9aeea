"""Member-fused pointwise ops in compiled replay.

The chains of one fused ``mv_mul`` group often go on with the same
kernel over VRF rows laid out in member order (an LSTM's four gate
``vv_add``s, three of its sigmoids). ``compile_plan`` runs those as one
wide piece over the group's stacked output; each member's remaining
pieces then run in member order. That reorders VRF accesses across
members, so a static alias check refuses the fusion where an earlier
member's remaining pieces touch rows a later member's fused pieces
access. Outputs stay bit-identical to the interpreter.
"""

import numpy as np
import pytest

from repro.compiler import compile_gru, compile_lstm
from repro.config import BW_S10, NpuConfig
from repro.functional import FunctionalSimulator
from repro.functional.replay import _BIN, _MV, _UN, _WR_VRF, BatchedReplay
from repro.isa import MemId, ProgramBuilder
from repro.models import GruReference, LstmReference
from repro.system.microservice import FpgaNode, HardwareMicroservice

#: Packed mode (2-bit mantissas: k rows per float64 lane).
MB2 = NpuConfig(name="fusion_mb2", native_dim=128, lanes=4,
                tile_engines=2, mrf_size=256, mantissa_bits=2)
#: MB2 with a small MRF, for the many small programs below.
SMALL = NpuConfig(name="fusion_small", native_dim=128, lanes=4,
                  tile_engines=2, mrf_size=8, mantissa_bits=2)
#: Mantissa-GEMV mode (too wide to pack).
MB5 = NpuConfig(name="fusion_mb5", native_dim=128, lanes=4,
                tile_engines=2, mrf_size=256, mantissa_bits=5)
#: Packed with three slots per lane and four scale blocks per native
#: row: a 2-row member (32 values) pads to 33, so the members do not
#: sit back to back in the stacked output and nothing fuses.
MB7 = NpuConfig(name="fusion_mb7", native_dim=16, lanes=4,
                tile_engines=2, mrf_size=64, mantissa_bits=7,
                bfp_block_size=4)

_COMPILERS = {"lstm": (LstmReference, compile_lstm),
              "gru": (GruReference, compile_gru)}


def _compiled(kind, hidden, cfg, seed=3):
    model_cls, compile_fn = _COMPILERS[kind]
    return compile_fn(model_cls(hidden_dim=hidden, input_dim=hidden,
                                seed=seed), cfg)


def _sequences(length, batch, steps, seed=0):
    rng = np.random.default_rng(seed)
    return [[rng.uniform(-1, 1, length).astype(np.float32)
             for _ in range(steps)] for _ in range(batch)]


def _pointwise_calls(plan):
    """Pointwise kernel calls one run of ``plan`` makes, a member-fused
    piece counting once."""
    calls = 0
    for step in plan.steps:
        for p in getattr(step, "pieces", ()):
            if p[0] in (_BIN, _UN):
                calls += 1
            elif p[0] == _MV and p[2] == 0:
                calls += sum(1 for piece, _ in p[1].fused
                             if piece[0] in (_BIN, _UN))
    return calls


def _pointwise_instructions(plan):
    """Pointwise instructions one run retires (one kernel call each
    without fusion)."""
    return sum(1 for step in plan.steps for tick in step.ticks
               if tick[2] == "executor.pointwise_flops")


# -- the alias check ---------------------------------------------------------

def _two_member_program(tail_row):
    """Two chains on one VRF head, so one fused group. Both add an
    AddSubVrf row in member order (rows 0 and 1); member 0 then goes
    on with a multiply and writes AddSubVrf row ``tail_row``."""
    b = ProgramBuilder("alias")
    b.v_rd(MemId.InitialVrf, 0).mv_mul(0).vv_add(0).vv_mul(0) \
        .v_wr(MemId.AddSubVrf, tail_row)
    b.v_rd(MemId.InitialVrf, 0).mv_mul(1).vv_add(1) \
        .v_wr(MemId.InitialVrf, 5)
    b.v_rd(MemId.InitialVrf, 5).v_wr(MemId.NetQ)
    b.v_rd(MemId.AddSubVrf, 1).v_wr(MemId.NetQ)
    return b.build()


def _loaded_sim():
    rng = np.random.default_rng(11)
    n = MB2.native_dim
    sim = FunctionalSimulator(MB2)
    sim.load_matrix(0, rng.uniform(-1, 1, (2 * n, n)).astype(np.float32))
    sim.vrfs[MemId.InitialVrf].write(0, rng.uniform(-1, 1, (1, n)))
    sim.vrfs[MemId.AddSubVrf].write(0, rng.uniform(-2, 2, (8, n)))
    sim.vrfs[MemId.MultiplyVrf].write(0, rng.uniform(-2, 2, (1, n)))
    return sim


@pytest.mark.tier1
@pytest.mark.parametrize("tail_row,fuses", [(1, False), (7, True)],
                         ids=["tail-writes-later-prefix", "disjoint"])
def test_alias_check_refuses_reordering_conflicts(tail_row, fuses):
    """Member 0's own pieces write AddSubVrf row ``tail_row`` before
    member 1 adds row 1. Fusing the two adds would read row 1 before
    that write, so with ``tail_row == 1`` the group must not fuse; with
    a disjoint row it fuses. Either way the compiled run equals the
    interpreter bit for bit, at B=1 and batched."""
    program = _two_member_program(tail_row)
    sim_i, sim_c = _loaded_sim(), _loaded_sim()
    plan = sim_c.plan_for(program)
    group, = plan.groups
    assert len(group.members) == 2
    assert bool(group.fused) is fuses
    if fuses:
        (piece, count), = group.fused
        assert piece[0] == _BIN and piece[3:] == (0, 2) and count == 2
        assert _pointwise_calls(plan) == _pointwise_instructions(plan) - 1
    else:
        assert _pointwise_calls(plan) == _pointwise_instructions(plan)

    sim_i.run(program)
    sim_c.run(program, compiled=True)
    want = sim_i.snapshot()
    got = sim_c.snapshot()
    assert len(got["outputs"]) == len(want["outputs"]) == 2
    for a, b in zip(got["outputs"], want["outputs"]):
        assert np.array_equal(a, b)
    for mem, data in want["vrf"].items():
        assert np.array_equal(got["vrf"][mem], data), mem

    batched = BatchedReplay(_loaded_sim(), program, 3).run()
    for b in range(3):
        outs = batched.snapshot(b)["outputs"]
        for a, w in zip(outs, want["outputs"]):
            assert np.array_equal(a, w)


def _random_group_program(rng):
    """2-4 chains on one VRF head (one fused group), each going on with
    up to three pointwise ops and one or two writes. Ops and rows copy
    member 0's, laid out in member order, often enough to fuse; the
    rest are random, so some fusions are partial and some conflict."""
    members = int(rng.integers(2, 5))
    kinds = ("vv_add", "vv_mul", "vv_a_sub_b", "v_sigm", "v_tanh")
    category = {"vv_add": "add", "vv_a_sub_b": "add", "vv_mul": "mul",
                "v_sigm": "act", "v_tanh": "act"}
    while True:
        ops = [str(k) for k in rng.choice(kinds, int(rng.integers(0, 4)))]
        if all(sum(category[o] == c for o in ops) <= 2
               for c in ("add", "mul", "act")):
            break
    base = {op: int(rng.integers(0, 3)) for op in kinds}
    writes = [(MemId.AddSubVrf, int(rng.integers(0, 8)))
              for _ in range(int(rng.integers(1, 3)))]
    b = ProgramBuilder("random_group")
    for m in range(members):
        chain = b.v_rd(MemId.InitialVrf, 0).mv_mul(m)
        for op in ops:
            if op.startswith("v_"):
                getattr(chain, op)()
                continue
            row = base[op] + m if rng.random() < 0.8 \
                else int(rng.integers(0, 8))
            getattr(chain, op)(row)
        for mem, row in writes:
            if rng.random() < 0.3:
                mem = (MemId.MultiplyVrf, MemId.InitialVrf)[
                    int(rng.integers(0, 2))]
                row = int(rng.integers(1, 8))
            else:
                row = row + m if rng.random() < 0.8 \
                    else int(rng.integers(0, 8))
            chain.v_wr(mem, row)
    return b.build()


def _random_sim(seed):
    rng = np.random.default_rng(seed)
    n = SMALL.native_dim
    sim = FunctionalSimulator(SMALL)
    sim.load_matrix(0, rng.uniform(-1, 1, (4 * n, n)).astype(np.float32))
    for mem in (MemId.InitialVrf, MemId.AddSubVrf, MemId.MultiplyVrf):
        sim.vrfs[mem].write(0, rng.uniform(-2, 2, (12, n)))
    return sim


@pytest.mark.tier1
def test_random_groups_equal_the_interpreter():
    """Derandomized multi-member groups with random pointwise tails and
    overlapping rows: whatever part fuses, the VRFs after a compiled
    run and after a batched run equal the interpreter's bit for bit."""
    fused = partial = 0
    for seed in range(60):
        program = _random_group_program(np.random.default_rng(seed))
        sim_i, sim_c = _random_sim(seed), _random_sim(seed)
        plan = sim_c.plan_for(program)
        assert plan.batchable, seed
        for group in plan.groups:
            fused += bool(group.fused)
            partial += any(c < len(group.members) for _, c in group.fused)
        sim_i.run(program)
        sim_c.run(program, compiled=True)
        want = sim_i.snapshot()["vrf"]
        got = sim_c.snapshot()["vrf"]
        batched = BatchedReplay(_random_sim(seed), program, 2).run()
        snapshots = [batched.snapshot(b)["vrf"] for b in range(2)]
        for mem, data in want.items():
            assert np.array_equal(got[mem], data), (seed, mem)
            for b, snap in enumerate(snapshots):
                assert np.array_equal(snap[mem], data), (seed, mem, b)
    assert fused >= 10 and partial >= 1, (fused, partial)


# -- the recurrent models ----------------------------------------------------

@pytest.mark.tier1
def test_lstm_and_gru_plans_fuse_their_gate_ops():
    """BW_S10, h=1024 LSTM: the hoisted ``vv_add(b) -> v_wr(xW)`` chains
    become one add and one write over 12 rows, the recurrent adds one
    add and the f, i, o sigmoids one call: at most 10 pointwise calls
    per step, from 17. The GRU's fall from 14 to 10."""
    steps = 3
    plans = {}
    for kind, unfused in (("lstm", 17), ("gru", 14)):
        compiled = _compiled(kind, 1024, BW_S10)
        plan = plans[kind] = compiled.new_simulator().plan_for(
            compiled.program, {compiled.steps_binding: steps})
        assert _pointwise_instructions(plan) == unfused * steps, kind
        assert _pointwise_calls(plan) <= 10 * steps, kind
    hoisted, recurrent = plans["lstm"].groups
    # Pieces widened to 12 rows (4 members x 3), count = members fused.
    assert [(p[0], c) for p, c in hoisted.fused] == [(_BIN, 4), (_WR_VRF, 4)]
    assert hoisted.fused[0][0][4] == hoisted.fused[1][0][3] == 12
    assert [(p[0], c) for p, c in recurrent.fused] == [(_BIN, 4), (_UN, 3)]
    assert recurrent.fused[0][0][4] == 12


@pytest.mark.tier1
@pytest.mark.parametrize("kind,cfg,hidden,fuses", [
    ("lstm", MB2, 200, True), ("gru", MB2, 130, True),
    ("lstm", MB5, 200, True), ("gru", MB5, 130, True),
    ("lstm", MB7, 20, False)],
    ids=["lstm-packed", "gru-packed", "lstm-mantissa", "gru-mantissa",
         "lstm-padded"])
def test_fused_outputs_equal_the_interpreter(kind, cfg, hidden, fuses):
    """Batched outputs at B = 1, 2, 3 and 16, and sequential compiled
    runs, equal the interpreter's bit for bit."""
    compiled = _compiled(kind, hidden, cfg)
    sim = compiled.new_simulator()
    plan = sim.plan_for(compiled.program, {compiled.steps_binding: 3})
    assert any(g.fused for g in plan.groups) is fuses
    xb = _sequences(hidden, 16, steps=3)
    want = [compiled.run_sequence(xs, sim=compiled.new_simulator())
            for xs in xb]
    for batch in (1, 2, 3, 16):
        got = compiled.run_sequence_batched(xb[:batch], sim=sim)
        for b in range(batch):
            for t, (a, w) in enumerate(zip(got[b], want[b])):
                assert np.array_equal(a, w), (batch, b, t)
    for b in (0, 5):
        got = compiled.run_sequence(xb[b], sim=compiled.new_simulator(),
                                    compiled=True)
        for a, w in zip(got, want[b]):
            assert np.array_equal(a, w)


# -- one operand stack per group, whatever the sequence length ---------------

@pytest.mark.tier1
def test_sequence_lengths_share_one_operand_stack():
    """A node compiles one plan per sequence length. After requests of
    T = 25, 10, 5 and 1 (LSTM h=1024, BW_S10), its four plans' groups
    share the two stacks of one plan (2 x 11.52 MB of packed weights),
    not one set per plan."""
    compiled = _compiled("lstm", 1024, BW_S10, seed=0)
    node = FpgaNode("node", compiled)
    service = HardwareMicroservice("svc", node)
    xs = _sequences(1024, 1, steps=25)[0]
    outs = {steps: service.invoke(steps, xs[:steps]).outputs
            for steps in (25, 10, 5, 1)}
    sim = node.simulator()
    assert len(sim._plans) == 4
    stacks = {}
    for plan in sim._plans.values():
        for group in plan.groups:
            w_stack, scales, selectors, live_rows = group._operands
            # Padded: 1,024 live lanes would still miss L2 (replay._trim).
            assert live_rows is None and group.trimmed == (0, 0)
            stacks[id(w_stack)] = w_stack.nbytes + scales.nbytes
    assert len(stacks) == len(sim._operand_stacks) == 2
    assert 23_040_000 <= sum(stacks.values()) < 24_000_000
    # Shorter sequences are prefixes of the longer one's outputs.
    for steps in (10, 5, 1):
        for a, b in zip(outs[steps], outs[25]):
            assert np.array_equal(a, b)
