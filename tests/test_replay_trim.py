"""Replay operand stacks without native-tile padding.

A matrix pinned in the MRF is padded to whole N x N tiles, so a fused
``mv_mul`` group's stacked operands hold weight lanes that are zero in
every segment and, per segment, input columns that are zero in every
lane. When what remains fits one core's L2, ``replay._trim`` keeps the
stack without them: the GEMVs read the live columns, the epilogue runs
over the live lanes, and the trimmed output rows are +0.0. A NaN input
mantissa makes every reference dot of its request row NaN (NaN x 0 is
NaN), so replay makes that row NaN throughout, as the interpreter's
padded GEMV does. Checked here against the reference interpreter and
sequential interpreted runs, bit for bit, in the packed and the
unpacked mantissa modes, and on the two served shapes.
"""

import numpy as np
import pytest

from repro.compiler import compile_gru, compile_lstm
from repro.config import BW_S10
from repro.isa import instructions as ins
from repro.isa.chain import InstructionChain
from repro.isa.memspace import MemId, ScalarReg
from repro.isa.program import Loop, NpuProgram, SetScalar
from repro.models import GruReference, LstmReference
from repro.verify import FUZZ_CONFIGS, ProgramCase, ReferenceInterpreter, \
    run_differential
from repro.verify.differential import load_reference, load_simulator

#: Packed (6 rows per float64 lane) and unpacked mantissa fuzz configs.
MODES = {"packed": "fuzz8_m2", "mantissa": "fuzz16_m7"}
#: (lanes, columns) a 2N x 2N window with N + 3 live rows and columns
#: trims: packed N = 8 keeps lanes 0-1 of 3 (rows 0-11) and 8 + 3 of 16
#: columns; mantissa N = 16 keeps 19 of 32 lanes (one row each) and
#: 16 + 3 of 32 columns.
TRIMMED = {"packed": (1, 5), "mantissa": (13, 13)}


def _padded_case(mode, inputs, nan_weight=None) -> ProgramCase:
    """A 2 x 2-tile window whose live (N + 3) x (N + 3) block leaves the
    compiler's padding pattern of zero rows and columns (with one NaN
    weight at ``nan_weight``, if given), read by a looped chain that
    pops one (2, N) input per pass from the network queue, multiplies
    it and sends the outputs back."""
    config = FUZZ_CONFIGS[MODES[mode]]
    n = config.native_dim
    rng = np.random.default_rng(11)
    weights = np.zeros((2 * n, 2 * n), np.float32)
    weights[:n + 3, :n + 3] = rng.standard_normal((n + 3, n + 3))
    if nan_weight is not None:
        weights[nan_weight] = np.nan
    items = [SetScalar(ScalarReg.Rows, 2), SetScalar(ScalarReg.Columns, 2),
             Loop(len(inputs), (InstructionChain([
                 ins.v_rd(MemId.NetQ), ins.mv_mul(0),
                 ins.v_wr(MemId.NetQ)]),))]
    vrf = {mem: np.zeros((32, n), np.float32)
           for mem in (MemId.InitialVrf, MemId.AddSubVrf,
                       MemId.MultiplyVrf)}
    return ProgramCase(
        config=config,
        program=NpuProgram(tuple(items), name="padded-window"),
        vrf_init=vrf,
        dram_vectors=np.zeros((1, n), np.float32),
        dram_tiles=np.zeros((1, n, n), np.float32),
        netq_vectors=np.concatenate(inputs),
        netq_tiles=np.zeros((0, n, n), np.float32),
        note=f"padded window, {config.name}",
        # Tile (r, c) of the window at slot 2r + c.
        mrf_tiles=weights.reshape(2, n, 2, n).transpose(0, 2, 1, 3)
        .reshape(4, n, n))


def _run_all(case):
    """Every engine agrees (the oracle, the interpreter, sequential
    compiled replay and batched replay), and compiled replay's outputs
    equal the interpreter's and the oracle's byte for byte; returns the
    compiled outputs, one row per pass, and the group's trim."""
    result = run_differential(case)
    assert result.ok, result.mismatches
    outputs = []
    for compiled in (True, False):
        sim = load_simulator(case)
        if compiled:
            group, = sim.plan_for(case.program).groups
        sim.run(case.program, compiled=compiled)
        outputs.append(sim.pop_outputs_flat())
    ref = load_reference(case)
    ref.run(case.program)
    outputs.append(np.concatenate(ref.snapshot()["outputs"]))
    assert outputs[0].tobytes() == outputs[1].tobytes()
    assert outputs[0].tobytes() == outputs[2].tobytes()
    n = case.config.native_dim
    return outputs[0].reshape(-1, 2 * n), group.trimmed


def _inputs(n, passes, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((2, n)).astype(np.float32)
            for _ in range(passes)]


@pytest.mark.tier1
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("column", ["live", "trimmed"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["nan", "-nan"])
def test_nan_input_makes_its_request_row_nan(mode, column, sign):
    """Three passes; the second's input holds a NaN in a live column or
    in one whose weights are all padding. Every output of that pass is
    NaN, with the input NaN's sign, in every engine; the other passes
    have no NaN and +0.0 on the trimmed rows."""
    n = FUZZ_CONFIGS[MODES[mode]].native_dim
    inputs = _inputs(n, 3)
    # Input column 2, or N + 5: past the N + 3 live ones.
    at = (0, 2) if column == "live" else (1, 5)
    inputs[1][at] = np.copysign(np.float32(np.nan), sign)
    out, trimmed = _run_all(_padded_case(mode, inputs))
    assert trimmed == TRIMMED[mode]
    assert np.isnan(out[1]).all()
    assert (np.signbit(out[1]) == (sign < 0)).all()
    for row in (out[0], out[2]):
        assert not np.isnan(row).any()
        padding = row[n + 3:]
        assert not padding.any() and not np.signbit(padding).any()


@pytest.mark.tier1
@pytest.mark.parametrize("mode", sorted(MODES))
def test_nan_weight_in_a_trimmed_lane_keeps_its_row_nan(mode):
    """A NaN weight in an otherwise all-zero lane: the lane is trimmed
    (a NaN code enters the mantissas as 0), yet its output row is NaN
    for every input, the all-zero one included, and no other row is."""
    n = FUZZ_CONFIGS[MODES[mode]].native_dim
    row = 2 * n - 2  # packed: in lane 2 (rows 12-17), all padding
    inputs = _inputs(n, 3)
    inputs[1][:] = 0.0
    out, trimmed = _run_all(_padded_case(mode, inputs,
                                         nan_weight=(row, 2)))
    assert trimmed == TRIMMED[mode]
    for values in out:
        assert np.flatnonzero(np.isnan(values)).tolist() == [row]


def _served(kind, hidden):
    model_cls, compile_fn = ((GruReference, compile_gru) if kind == "gru"
                             else (LstmReference, compile_lstm))
    return compile_fn(model_cls(hidden_dim=hidden, input_dim=hidden,
                                seed=0), BW_S10)


@pytest.mark.tier1
@pytest.mark.parametrize("kind,hidden,layouts", [
    # Three gates x 512 live rows of 800 (128 of 200 lanes each, 4 rows
    # a lane) against 400 + 112 live input columns: the x*W group
    # (z, r, h) and the recurrent U_zr and U_h groups, 1.57, 1.05 and
    # 0.52 MB trimmed against 3.84, 2.56 and 1.28 MB padded.
    ("gru", 512, [(3, (216, 288), [(384, 400), (384, 112)]),
                  (2, (144, 288), [(256, 400), (256, 112)]),
                  (1, (72, 288), [(128, 400), (128, 112)])]),
    # Four gates x 1,200 rows, 1,024 live: trimmed to 1,024 lanes the
    # 8.4 MB stack still misses L2, and a GEMV that small runs on one
    # OpenBLAS thread, so both groups keep the padded 11.52 MB.
    ("lstm", 1024, [(4, (0, 0), [(1200, 400)] * 3)] * 2),
], ids=["gru512", "lstm1024"])
def test_served_shapes_trim_only_below_the_l2_bound(kind, hidden, layouts):
    """GRU h=512 on BW_S10 keeps its stacks trimmed, LSTM h=1024 padded;
    one request's outputs equal the interpreter's and the oracle's byte
    for byte."""
    compiled = _served(kind, hidden)
    n = BW_S10.native_dim
    x = np.zeros(compiled.input_vectors_per_step * n, np.float32)
    x[:hidden] = np.random.default_rng(1).uniform(-1, 1, hidden)
    bindings = {compiled.steps_binding: 1}
    outputs = []
    for replayed in (True, False):
        sim = compiled.new_simulator()
        if replayed:
            groups = sim.plan_for(compiled.program, bindings).groups
        sim.push_input(x)
        sim.run(compiled.program, bindings, compiled=replayed)
        outputs.append(sim.pop_outputs_flat())
    # The oracle holds a fresh node's state: its quantized weights
    # (only the tiles the model uses: BW_S10's MRF is 392 MB of float32)
    # and its VRF constants.
    fresh = compiled.new_simulator()
    ref = ReferenceInterpreter(BW_S10)
    used = compiled.mrf_tiles_used
    ref.mrf[:used] = fresh.mrf.read_tiles(0, used)
    for mem, vrf in fresh.vrfs.items():
        ref.load_vrf(mem, vrf._data)
    ref.push_inputs(x.reshape(-1, n))
    ref.run(compiled.program, bindings)
    outputs.append(np.concatenate(ref.snapshot()["outputs"]))
    assert outputs[0].tobytes() == outputs[1].tobytes()
    assert outputs[0].tobytes() == outputs[2].tobytes()
    got = [(len(g.members), g.trimmed, [w.shape for w in g._operands[0]])
           for g in groups]
    assert got == layouts
    for g in groups:
        w_stack, scales, selectors, live_rows = g._operands
        lanes = w_stack[0].shape[0]
        assert scales.shape == (g.segs, lanes * 4)
        if g.trimmed == (0, 0):
            assert live_rows is None
            assert selectors == (slice(None),) * g.segs
        else:
            assert selectors == (slice(0, 400), slice(0, 112))
            assert len(live_rows) == lanes * 4
