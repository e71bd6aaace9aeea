"""One resident copy of the pinned weights.

A serving node pins its model's weights once in the MRF (paper §IV) and
serves every request from them. Besides the MRF tiles, the only copy of
the weights the compiled path keeps is each fused ``mv_mul`` group's
stacked operands, derived straight from the tiles on the first compute
after an MRF write: no assembled window, no per-member operand, no
interpreter cache entry. A stack small enough to fit one core's L2
without its tile padding is kept without it, in place of the padded
one. A rebind (``load_matrix`` between runs) re-derives that stack in
place while its live shape holds.
"""

import tracemalloc

import numpy as np
import pytest

from repro.compiler import compile_gru, compile_lstm
from repro.config import BW_S10, NpuConfig
from repro.functional.replay import _MV
from repro.models import GruReference, LstmReference
from repro.system.microservice import FpgaNode, HardwareMicroservice

#: Packed mode (2-bit mantissas: k rows per float64 lane).
MB2 = NpuConfig(name="resident_mb2", native_dim=128, lanes=4,
                tile_engines=2, mrf_size=256, mantissa_bits=2)
#: Plain mantissa-GEMV mode with four scale blocks per native row.
MB7 = NpuConfig(name="resident_mb7", native_dim=16, lanes=4,
                tile_engines=2, mrf_size=64, mantissa_bits=7,
                bfp_block_size=4)


def _groups(sim):
    """Every distinct fused mv_mul group of the simulator's cached plans."""
    groups = {}
    for plan in sim._plans.values():
        for step in plan.steps:
            for piece in getattr(step, "pieces", ()):
                if piece[0] == _MV:
                    groups[id(piece[1])] = piece[1]
    return list(groups.values())


def _inputs(length, steps, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1, 1, length).astype(np.float32)
            for _ in range(steps)]


@pytest.mark.tier1
def test_node_keeps_one_derived_copy_of_its_weights():
    """LSTM h=1024 on BW_S10: after the first request, the node holds
    the MRF tiles plus one packed stack per fused group (the input and
    the recurrent projection, four gates each) and nothing else of
    size."""
    compiled = compile_lstm(LstmReference(hidden_dim=1024, input_dim=1024,
                                          seed=0), BW_S10)
    tracemalloc.start()
    try:
        node = FpgaNode("node", compiled)
        HardwareMicroservice("svc", node).invoke(2, _inputs(1024, 2))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sim = node.simulator()
    assert not sim._derived_windows
    assert not hasattr(sim.mrf, "_windows")
    groups = _groups(sim)
    assert [len(g.members) for g in groups] == [4, 4]
    operand_bytes = 0
    for g in groups:
        w_stack, scales, selectors, live_rows = g._operands
        # Trimmed to its 1,024 live lanes the stack would still miss L2,
        # so it keeps its padding (replay._trim).
        assert g.trimmed == (0, 0)
        assert live_rows is None and selectors == (slice(None),) * 3
        assert w_stack.base is None and scales.base is None
        assert w_stack.dtype == np.float64
        # 4 gates x 1200 padded rows, 4 rows per lane, 3 column blocks
        # of 400: 3 * 1200 * 400 float64 values.
        assert w_stack.nbytes == 11_520_000
        assert scales.nbytes == g.segs * g.groups_total * 4 * 8
        operand_bytes += w_stack.nbytes + scales.nbytes
    # Everything else the node allocated (the VRFs, plans, timing model)
    # is far smaller than one more copy of a group's weights.
    vrf_bytes = sum(v.capacity_bytes for v in sim.vrfs.values())
    assert held < (sim.mrf.capacity_bytes + vrf_bytes + operand_bytes
                   + 11_520_000)


@pytest.mark.tier1
@pytest.mark.parametrize("kind,cfg,hidden,trimmed", [
    # (lanes, columns) of padding the group drops: with its members' own
    # (hidden x hidden) weights, then with member 1 filled to its whole
    # tile window, whose lanes and columns are then all live.
    ("lstm", MB2, 200, [(56, 56), (42, 0)]),
    ("gru", MB2, 130, [(93, 126), (62, 0)]),
    ("lstm", MB7, 20, [(16, 12), (12, 0)])],
    ids=["lstm-packed", "gru-packed", "lstm-mantissa"])
def test_rebinding_one_member_rederives_its_group(kind, cfg, hidden,
                                                   trimmed):
    """``load_matrix`` on one member of a fused multi-member group
    between two compiled runs: the second run serves the new weights,
    bit-equal to a fresh simulator loaded with them. Weights of the
    member's own shape re-derive into the group's existing trimmed
    stack; weights that fill its padding change the live shape, so the
    group derives a stack of the new shape."""
    model_cls, compile_fn = ((LstmReference, compile_lstm)
                             if kind == "lstm"
                             else (GruReference, compile_gru))
    compiled = compile_fn(model_cls(hidden_dim=hidden, input_dim=hidden,
                                    seed=3), cfg)
    xb = [_inputs(hidden, 3, seed=s) for s in range(2)]
    sim = compiled.new_simulator()
    before = compiled.run_sequence_batched(xb, sim=sim)
    group = next(g for g in _groups(sim) if len(g.members) > 1)
    assert group.trimmed == trimmed[0]
    stack = group._operands[0]
    base, rows = group.members[1]
    n = cfg.native_dim
    rng = np.random.default_rng(7)
    for shape, layout in zip([(hidden, hidden),
                              (rows * n, group.cols * n)], trimmed):
        weights = rng.uniform(-1, 1, shape).astype(np.float32)
        sim.load_matrix(base, weights)
        after = compiled.run_sequence_batched(xb, sim=sim)
        assert group.trimmed == layout
        assert (group._operands[0] is stack) == (layout == trimmed[0])

        fresh = compiled.new_simulator()
        fresh.load_matrix(base, weights)
        expected = compiled.run_sequence_batched(xb, sim=fresh)
        for b, xs in enumerate(xb):
            single = compiled.new_simulator()
            single.load_matrix(base, weights)
            interpreted = compiled.run_sequence(xs, sim=single)
            for got, want, interp in zip(after[b], expected[b],
                                         interpreted):
                assert np.array_equal(got, want)
                assert np.array_equal(got, interp)
        assert any(not np.array_equal(x, y)
                   for x, y in zip(before[0], after[0]))
