"""Reference-interpreter semantics: hand cases vs the executor."""

import numpy as np
import pytest

from repro.errors import (ExecutionError, MemoryError_,
                          NetworkQueueEmptyError)
from repro.isa import (InstructionChain, MemId, ScalarReg, m_rd, m_wr,
                       mv_mul, v_rd, v_sigm, v_tanh, v_wr, vv_add, vv_mul)
from repro.isa.program import NpuProgram, SetScalar
from repro.numerics.bfp import (BfpFormat, decode, decompose, encode,
                                quantize, quantize_reference)
from repro.verify import FUZZ_CONFIGS, ReferenceInterpreter
from repro.verify.differential import load_reference, load_simulator
from repro.verify.generator import generate_case

pytestmark = pytest.mark.tier1


# -- BFP oracle -----------------------------------------------------------

@pytest.mark.parametrize("mantissa_bits", [2, 3, 5])
def test_quantize_reference_matches_vectorized(mantissa_bits):
    rng = np.random.default_rng(99 + mantissa_bits)
    fmt = BfpFormat(mantissa_bits=mantissa_bits, exponent_bits=5,
                    block_size=8)
    x = (rng.standard_normal((16, 8))
         * np.exp2(rng.integers(-6, 7, size=(16, 8)))).astype(np.float32)
    assert np.array_equal(quantize_reference(x, fmt), quantize(x, fmt))


def test_quantize_reference_zero_block():
    fmt = BfpFormat(mantissa_bits=3, exponent_bits=5, block_size=4)
    zero = np.zeros((2, 4), dtype=np.float32)
    assert np.array_equal(quantize_reference(zero, fmt), zero)


def _bits(x):
    return np.asarray(x, dtype=np.float32).view(np.uint32)


def _every_path(x, fmt):
    """The float32 words of quantize and decode of encode, and
    decompose's mantissas times the exact float64 steps."""
    mant, exponents = decompose(x, fmt)
    steps = np.ldexp(1.0, exponents - fmt.mantissa_bits + 1)
    blocks = mant.astype(np.float64).reshape(exponents.shape + (-1,))
    return {"quantize": quantize(x, fmt),
            "decode": decode(*encode(x, fmt), fmt),
            "decompose": (blocks * steps[..., np.newaxis]).reshape(x.shape)}


@pytest.mark.parametrize("exponent_bits", [9, 10])
def test_zero_block_below_the_float32_steps(exponent_bits):
    """With 9 or 10 exponent bits an all-zero block's step underflows
    float32; a float32 step made ``0/0`` NaN."""
    fmt = BfpFormat(mantissa_bits=2, exponent_bits=exponent_bits,
                    block_size=4)
    x = np.zeros((1, 4), np.float32)
    x_tiny = np.float32([[2.0 ** -149, -3 * 2.0 ** -149, 0.0, 1e-44]])
    for data in (x, x_tiny):
        want = _bits(quantize_reference(data, fmt))
        for path, got in _every_path(data, fmt).items():
            assert np.array_equal(_bits(got), want), path


def test_step_two_to_the_127_is_exact():
    """float32 ``exp2(127)`` is one ulp above 2^127 (0x7F000001)."""
    fmt = BfpFormat(mantissa_bits=1, exponent_bits=8, block_size=1)
    x = np.float32([[1.5 * 2.0 ** 127]])
    want = _bits(quantize_reference(x, fmt))
    assert want[0, 0] == 0x7F000000
    for path, got in _every_path(x, fmt).items():
        assert np.array_equal(_bits(got), want), path


# -- hand-written program equivalence -------------------------------------

def _both(config):
    """A reference interpreter and an executor with identical state."""
    case = generate_case(0, config=config)
    return case, load_reference(case), load_simulator(case)


@pytest.mark.parametrize("config_name", sorted(FUZZ_CONFIGS))
def test_mvm_chain_matches_executor(config_name):
    config = FUZZ_CONFIGS[config_name]
    program = NpuProgram((
        SetScalar(ScalarReg.Rows, 2),
        SetScalar(ScalarReg.Columns, 2),
        InstructionChain([m_rd(MemId.Dram, 0), m_wr(MemId.MatrixRf, 0)]),
        InstructionChain([v_rd(MemId.InitialVrf, 0), mv_mul(0),
                          vv_add(0), v_wr(MemId.NetQ)]),
    ), name="hand-mvm")
    case, ref, sim = _both(config)
    ref.run(program)
    sim.run(program)
    assert len(ref.outputs) == 2
    outs = sim.pop_outputs_flat().reshape(2, -1)
    for got, want in zip(ref.outputs, outs):
        assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(ref.snapshot()["mrf"], sim.snapshot()["mrf"])


def test_width_in_semantics_without_mv_mul():
    """A chain without mv_mul reads/writes `rows` entries."""
    config = FUZZ_CONFIGS["fuzz8_exact"]
    program = NpuProgram((
        SetScalar(ScalarReg.Rows, 3),
        InstructionChain([v_rd(MemId.InitialVrf, 4), vv_mul(1),
                          v_wr(MemId.AddSubVrf, 2)]),
    ))
    case, ref, sim = _both(config)
    ref.run(program)
    sim.run(program)
    want = (case.vrf_init[MemId.InitialVrf][4:7]
            * case.vrf_init[MemId.MultiplyVrf][1:4])
    assert np.array_equal(ref.vrfs[MemId.AddSubVrf][2:5], want)
    assert np.array_equal(sim.vrfs[MemId.AddSubVrf].read(2, 3), want)


def test_activations_match_executor_bitwise():
    config = FUZZ_CONFIGS["fuzz8_m2"]
    program = NpuProgram((
        InstructionChain([v_rd(MemId.InitialVrf, 0), v_sigm(),
                          v_wr(MemId.NetQ)]),
        InstructionChain([v_rd(MemId.InitialVrf, 1), v_tanh(),
                          v_wr(MemId.NetQ)]),
    ))
    _, ref, sim = _both(config)
    ref.run(program)
    sim.run(program)
    got = np.concatenate(ref.outputs)
    assert np.array_equal(got, sim.pop_outputs_flat(), equal_nan=True)


def test_stats_and_op_counts():
    config = FUZZ_CONFIGS["fuzz8_exact"]
    program = NpuProgram((
        SetScalar(ScalarReg.Rows, 1),
        InstructionChain([v_rd(MemId.InitialVrf, 0), vv_add(0),
                          v_wr(MemId.AddSubVrf, 1)]),
    ))
    _, ref, sim = _both(config)
    ref.run(program)
    stats = sim.run(program)
    assert ref.stats_dict() == {
        "chains_executed": stats.chains_executed,
        "instructions_executed": stats.instructions_executed,
        "mv_mul_count": stats.mv_mul_count,
        "macs": stats.macs,
        "pointwise_flops": stats.pointwise_flops,
    }
    assert ref.op_counts["v_rd"] == 1
    assert ref.op_counts["vv_add"] == 1
    assert ref.op_counts["end_chain"] == 1
    assert ref.op_counts["set_scalar"] == 1


# -- error semantics ------------------------------------------------------

def test_reference_rejects_invalid_scalar():
    ref = ReferenceInterpreter(FUZZ_CONFIGS["fuzz8_m2"])
    with pytest.raises(ExecutionError):
        ref.run(NpuProgram((SetScalar(ScalarReg.Rows, 0),)))


def test_reference_rejects_empty_netq():
    ref = ReferenceInterpreter(FUZZ_CONFIGS["fuzz8_m2"])
    program = NpuProgram((
        InstructionChain([v_rd(MemId.NetQ), v_wr(MemId.InitialVrf, 0)]),))
    with pytest.raises(NetworkQueueEmptyError):
        ref.run(program)


def test_reference_rejects_unwritten_dram():
    ref = ReferenceInterpreter(FUZZ_CONFIGS["fuzz8_m2"])
    program = NpuProgram((
        InstructionChain([v_rd(MemId.Dram, 500),
                          v_wr(MemId.InitialVrf, 0)]),))
    with pytest.raises(MemoryError_):
        ref.run(program)


def test_reference_enforces_mfu_capacity():
    config = FUZZ_CONFIGS["fuzz8_m2"]  # mfus=2
    ref = ReferenceInterpreter(config)
    # Three add/sub-category ops need three MFUs; only two exist.
    program = NpuProgram((
        InstructionChain([v_rd(MemId.InitialVrf, 0), vv_add(0), vv_add(1),
                          vv_add(2), v_wr(MemId.NetQ)]),))
    with pytest.raises(ExecutionError):
        ref.run(program)


def test_snapshot_schemas_agree():
    case = generate_case(3)
    ref = load_reference(case)
    sim = load_simulator(case)
    ref_snap, sim_snap = ref.snapshot(), sim.snapshot()
    assert set(ref_snap) == set(sim_snap)
    assert set(ref_snap["vrf"]) == set(sim_snap["vrf"])
    for name in ref_snap["vrf"]:
        assert ref_snap["vrf"][name].shape == sim_snap["vrf"][name].shape
    assert ref_snap["mrf"].shape == sim_snap["mrf"].shape
