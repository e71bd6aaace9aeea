"""All-zero ``mv_mul`` input rows and NaN weights.

Batched replay answers an input row that is all +-0.0 without reading
the weights (``_MvGroup.apply_rows``): the reference starts every dot
at +0.0, so with finite weights the row's output is +0.0 whatever the
signs of its zeros. A NaN weight makes its own output row NaN for any
input, zero rows included, and no other row: the interpreter and
replay pack a NaN code as 0 and set the window's NaN-weight rows to NaN
afterwards, where a NaN left in a packed float64 lane would poison the
dots of every row sharing the lane. Checked here against the reference
interpreter and fresh sequential interpreted runs, in the packed and
the unpacked mantissa modes.
"""

import numpy as np
import pytest

from repro.compiler import compile_gru
from repro.config import NpuConfig
from repro.isa import instructions as ins
from repro.isa.chain import InstructionChain
from repro.isa.memspace import MemId, ScalarReg
from repro.isa.program import Loop, NpuProgram, SetScalar
from repro.models import GruReference
from repro.verify import FUZZ_CONFIGS, ProgramCase, run_differential
from repro.verify.differential import load_reference, load_simulator

MB2 = NpuConfig(name="elide_mb2", native_dim=128, lanes=4, tile_engines=2,
                mrf_size=256, mantissa_bits=2)
MB7 = NpuConfig(name="elide_mb7", native_dim=16, lanes=4, tile_engines=2,
                mrf_size=64, mantissa_bits=7, bfp_block_size=16)
#: Packed (6 rows per float64 lane) and unpacked mantissa fuzz configs.
MODES = {"packed": "fuzz8_m2", "mantissa": "fuzz16_m7"}


def _groups(sim, compiled, steps):
    return sim.plan_for(compiled.program,
                        {compiled.steps_binding: steps}).groups


@pytest.mark.tier1
@pytest.mark.parametrize("cfg", [MB2, MB7], ids=["packed", "mantissa"])
@pytest.mark.parametrize("batch", [1, 2, 3, 4, 8, 16])
def test_zero_rows_match_fresh_interpreted_runs(cfg, batch):
    """Requests whose inputs are all +0.0 or all -0.0 at some steps, in
    a batch with requests whose inputs are not: the hoisted x*W group
    elides those (step, request) rows, the recurrent group its step-0
    rows (h0 = 0), and every output equals a fresh interpreted run."""
    hidden = 200 if cfg is MB2 else 24
    compiled = compile_gru(GruReference(hidden_dim=hidden, input_dim=hidden,
                                        seed=5), cfg)
    steps = 3
    rng = np.random.default_rng(batch)
    xb = [[rng.uniform(-1, 1, compiled.input_length).astype(np.float32)
           for _ in range(steps)] for _ in range(batch)]
    for b in range(0, batch, 2):
        xb[b][b % steps][:] = -0.0 if b % 4 else 0.0
    sim = compiled.new_simulator()
    got = compiled.run_sequence_batched(xb, sim=sim)
    elided = sum(g.elided_rows for g in _groups(sim, compiled, steps))
    zero_inputs = len(range(0, batch, 2))
    # Every request's step 0 of the recurrent group, and the zero x_t.
    assert elided >= batch + zero_inputs
    for b, xs in enumerate(xb):
        want = compiled.run_sequence(xs, sim=compiled.new_simulator())
        for t, (a, w) in enumerate(zip(got[b], want)):
            assert np.array_equal(a, w), f"request {b} step {t}"
            assert np.array_equal(np.signbit(a), np.signbit(w))


def _nan_case(config_name: str) -> ProgramCase:
    """Two pinned tiles (one 2N x N window) with a NaN weight in output
    row N + 3, read by chains whose head rows are all +0.0, all -0.0
    and random: three from a VRF and one, looped twice, from rows
    copied off the network input queue (a hoisted group)."""
    config = FUZZ_CONFIGS[config_name]
    n = config.native_dim
    rng = np.random.default_rng(7)
    vrf = {mem: rng.standard_normal((32, n)).astype(np.float32)
           for mem in (MemId.InitialVrf, MemId.AddSubVrf,
                       MemId.MultiplyVrf)}
    vrf[MemId.InitialVrf][0] = 0.0
    vrf[MemId.InitialVrf][1] = -0.0
    tiles = rng.standard_normal((2, n, n)).astype(np.float32)
    tiles[1, 3, 2] = np.nan
    # Each pass copies two queued rows and multiplies the first: -0.0
    # on the first pass, random on the second.
    netq = rng.standard_normal((4, n)).astype(np.float32)
    netq[0] = -0.0
    items = [SetScalar(ScalarReg.Rows, 2)]
    for i in range(3):
        items.append(InstructionChain([
            ins.v_rd(MemId.InitialVrf, i), ins.mv_mul(0),
            ins.v_wr(MemId.AddSubVrf, 2 * i)]))
    items.append(Loop(2, (InstructionChain([
        ins.v_rd(MemId.NetQ), ins.v_wr(MemId.MultiplyVrf, 8)]),
        InstructionChain([ins.v_rd(MemId.MultiplyVrf, 8), ins.mv_mul(0),
                          ins.v_wr(MemId.NetQ)]))))
    return ProgramCase(
        config=config,
        program=NpuProgram(tuple(items), name="nan-weight"),
        vrf_init=vrf,
        dram_vectors=np.zeros((1, n), np.float32),
        dram_tiles=np.zeros((1, n, n), np.float32),
        netq_vectors=netq,
        netq_tiles=np.zeros((0, n, n), np.float32),
        note=f"nan weight, zero rows, {config_name}",
        mrf_tiles=tiles)


@pytest.mark.tier1
@pytest.mark.parametrize("mode", sorted(MODES))
def test_nan_weight_poisons_only_its_row(mode):
    """The reference, the interpreter, sequential compiled replay and a
    three-request batched replay agree on a window with a NaN weight,
    fed zero and non-zero rows; only row N + 3 of each output is NaN."""
    case = _nan_case(MODES[mode])
    sim = load_simulator(case)
    assert bool(sim._pack_slots) is (mode == "packed")
    result = run_differential(case)
    assert result.ok, result.mismatches
    assert result.elided_rows > 0
    ref = load_reference(case)
    ref.run(case.program)
    n = case.config.native_dim
    snap = ref.snapshot()
    outputs = [snap["vrf"]["AddSubVrf"][2 * i:2 * i + 2].reshape(-1)
               for i in range(3)]
    outputs += [np.concatenate(snap["outputs"][2 * i:2 * i + 2])
                for i in range(2)]
    for out in outputs:
        assert np.flatnonzero(np.isnan(out)).tolist() == [n + 3]
    # Zero rows give +0.0 everywhere else.
    for out in (outputs[0], outputs[1], outputs[3]):
        rest = np.delete(out, n + 3)
        assert not rest.any() and not np.signbit(rest).any()


@pytest.mark.tier1
@pytest.mark.parametrize("mode", sorted(MODES))
def test_nan_weight_stays_in_its_lane_slot(mode):
    """Direct interpreter ``mv_mul``: a NaN at row 3 of one tile makes
    row 3 NaN and leaves every other row as the reference computes it
    (in packed mode rows 0-5 share one float64 lane)."""
    config = FUZZ_CONFIGS[MODES[mode]]
    n = config.native_dim
    rng = np.random.default_rng(3)
    tile = rng.standard_normal((n, n)).astype(np.float32)
    tile[3, 1] = np.nan
    case = _nan_case(MODES[mode])
    sim, ref = load_simulator(case), load_reference(case)
    sim.load_matrix(0, tile)
    ref.load_mrf_tiles(0, tile[np.newaxis])
    for x in (rng.standard_normal(n).astype(np.float32),
              np.zeros(n, np.float32)):
        got = sim._mv_mul(ins.mv_mul(0), x[np.newaxis], 1, 1).reshape(n)
        want = ref._mv_mul(ins.mv_mul(0), x[np.newaxis], 1, 1).reshape(n)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.flatnonzero(np.isnan(got)).tolist() == [3]
