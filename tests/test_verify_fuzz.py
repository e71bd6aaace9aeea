"""Differential fuzzer: campaigns, corpus replay, shrinking."""

import dataclasses
import functools
import json
import pathlib
import sys

import numpy as np
import pytest

import repro.functional.ops as ops
from repro.errors import ReproError
from repro.isa import InstructionChain, MemId, v_rd, v_wr
from repro.isa.assembler import format_program
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Loop, NpuProgram
from repro.verify import (CaseInvalid, PROFILES, case_to_json,
                          generate_case, load_corpus_case, replay_corpus,
                          run_differential, run_fuzz, save_case,
                          shrink_case)
from repro.verify.differential import (_BATCH_SCALES, _compare_arrays,
                                      load_simulator)

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"


# -- tier-1: small campaigns and corpus replay ----------------------------

@pytest.mark.tier1
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_small_campaign_per_profile(profile):
    report = run_fuzz(seed=100, iterations=8, profile=PROFILES[profile])
    assert report.ok, report.render()
    assert report.invalid == 0
    assert report.cases_run == 8


@functools.lru_cache(maxsize=None)
def _reach_report(profile):
    """A small campaign (seeds 300-311) of ``profile``, run once for
    the reach tests that read it."""
    return run_fuzz(seed=300, iterations=12, profile=PROFILES[profile])


@pytest.mark.tier1
def test_recurrent_profile_reaches_hoisted_replay():
    """The ``recurrent`` profile pins the MRF and emits looped input
    projections, so the batched-vs-sequential check covers plans whose
    mv_mul groups batched replay hoists out of the loop."""
    report = _reach_report("recurrent")
    assert report.ok, report.render()
    assert report.hoisted_plans > 0
    assert f"{report.hoisted_plans} with hoisted" in report.render()


@pytest.mark.tier1
def test_mvm_profile_reaches_fused_pointwise():
    """The ``mvm`` profile emits mv_mul groups on one VRF head whose
    members share pointwise ops over row-aligned operands, so the
    batched-vs-sequential check covers plans that fuse them."""
    report = _reach_report("mvm")
    assert report.ok, report.render()
    assert report.fused_plans > 0
    assert f"{report.fused_plans} with fused pointwise" in report.render()


@pytest.mark.tier1
@pytest.mark.parametrize("profile", ["mvm", "recurrent"])
def test_profiles_reach_zero_rows_and_nan_weights(profile):
    """The ``mvm`` and ``recurrent`` profiles draw all-+0.0 and all--0.0
    VRF and network-input rows and NaN weights in pinned windows, so
    the differential check covers mv_mul rows batched replay answers
    without the weights, and NaN-weight rows; ``recurrent`` also draws
    the unpacked mantissa-mode config."""
    report = _reach_report(profile)
    assert report.ok, report.render()
    assert report.elided_rows > 0
    assert f"{report.elided_rows} zero mv_mul rows elided" in report.render()
    cases = [generate_case(seed, profile=PROFILES[profile])
             for seed in range(300, 340)]
    assert any(c.mrf_tiles is not None and np.isnan(c.mrf_tiles).any()
               for c in cases)
    rows = [r for c in cases
            for r in (*c.vrf_init.values(), c.netq_vectors)]
    zero = [row for r in rows for row in r if not row.any()]
    assert {bool(np.signbit(row).all()) for row in zero} == {False, True}
    if profile == "recurrent":
        assert any(c.config.name == "fuzz16_m7" for c in cases)


@pytest.mark.tier1
@pytest.mark.parametrize("profile", ["mvm", "recurrent"])
def test_profiles_reach_trimmed_stacks_and_nan_inputs(profile):
    """The ``mvm`` and ``recurrent`` profiles pin windows whose tiles
    end in all-zero rows and columns (the compiler's padding, NaN
    weights kept) and draw NaNs into VRF and network-input rows, so the
    differential check covers operand stacks batched replay keeps
    without those lanes and columns, and NaN input rows read against
    them."""
    report = _reach_report(profile)
    assert report.ok, report.render()
    assert report.trimmed_lanes > 0 and report.trimmed_columns > 0
    assert (f"{report.trimmed_lanes} padding lanes and "
            f"{report.trimmed_columns} columns trimmed") in report.render()
    cases = [generate_case(seed, profile=PROFILES[profile])
             for seed in range(300, 340)]
    assert any(c.mrf_tiles is not None and not c.mrf_tiles[:, -1].any()
               and not c.mrf_tiles[:, :, -1].any() for c in cases)
    rows = [r for c in cases
            for r in (*c.vrf_init.values(), c.netq_vectors)]
    assert any(np.isnan(row).any() for r in rows for row in r)
    # Profiles without the draws keep their cases.
    assert not any(np.isnan(c.netq_vectors).any()
                   for c in (generate_case(seed) for seed in range(40)))


@pytest.mark.tier1
def test_signed_zero_mismatch_is_reported():
    out = []
    _compare_arrays("v", np.array([0.0, 1.0], np.float32),
                    np.array([-0.0, 1.0], np.float32), out)
    assert out and "signed zero at (0,)" in out[0]
    out = []
    _compare_arrays("v", np.array([0.0, np.nan]), np.array([0.0, -np.nan]),
                    out)
    assert out == []


@pytest.mark.tier1
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_every_profile_reaches_batched_replay(profile):
    """Every profile pins the weights of a share of its cases, and a
    pinned case writes no matrix registers, so its plan is batchable
    and the batched-vs-sequential check runs on it. A case that writes
    the MRF is unbatchable, its step kinds naming the ``m_wr`` chain."""
    batchable = 0
    for seed in range(100, 108):
        case = generate_case(seed, profile=PROFILES[profile])
        plan = load_simulator(case).plan_for(case.program)
        writes_mrf = any(
            isinstance(chain, InstructionChain) and chain.is_matrix_chain
            and chain.instructions[1].mem_id is MemId.MatrixRf
            for chain in case.program.events())
        assert plan.batchable is not writes_mrf, case.note
        if writes_mrf:
            assert "m_rd>m_wr" in plan.fallback_step_kinds
        batchable += plan.batchable
    assert batchable > 0


@pytest.mark.tier1
def test_committed_corpus_reaches_batched_replay(monkeypatch):
    """The corpus replay (a CI step) keeps batched replay covered: it
    holds batchable pinned-weight cases on a packed, an unpacked
    mantissa, a float64 and an exact configuration, and a
    ``fuzz128_m2`` case
    whose batched check rounds through the magic-add float16 kernel
    (arrays of ``F16_KERNEL_MIN_SIZE`` elements or more; the
    interpreters' arrays there hold at most 3 x 128)."""
    import repro.numerics.bfp as bfp
    from repro.verify.differential import check_batched_replay
    kernel, kernel_sizes = bfp._magic_round, []

    def counting(x, magnitude=None):
        kernel_sizes.append(x.size)
        return kernel(x, magnitude)

    monkeypatch.setattr(bfp, "_magic_round", counting)
    modes, kernel_cases = set(), 0
    for path in sorted(CORPUS_DIR.glob("*.json")):
        case = load_corpus_case(path)
        sim = load_simulator(case)
        if sim.plan_for(case.program).batchable:
            assert case.mrf_tiles is not None, path.name
            modes.add("exact" if sim.exact else
                      "packed" if sim._pack_slots else
                      "mantissa" if sim._mantissa_gemv else "float64")
        if case.config.name == "fuzz128_m2":
            kernel_sizes.clear()
            assert check_batched_replay(case)[0] == [], path.name
            assert kernel_sizes, f"{path.name}: the kernel did not run"
            kernel_cases += 1
    assert modes == {"packed", "mantissa", "float64", "exact"}
    assert kernel_cases == 1


@pytest.mark.tier1
def test_committed_corpus_reaches_float64_inputs(monkeypatch):
    """The ``fuzz32_m10`` corpus case's format is too wide for the
    packed and mantissa GEMVs (32 x 1023^2 > 2^24), so its ``mv_mul``
    quantizes its inputs through ``_quantized_input_f64`` in the
    interpreter, in sequential compiled replay and in batched replay,
    and every engine agrees with the oracle."""
    from repro.functional.executor import FunctionalSimulator
    from repro.verify.differential import check_batched_replay
    quantize, callers = FunctionalSimulator._quantized_input_f64, []

    def recording(self, value):
        callers.append(sys._getframe(1).f_code.co_name)
        return quantize(self, value)

    monkeypatch.setattr(FunctionalSimulator, "_quantized_input_f64",
                        recording)
    case = load_corpus_case(CORPUS_DIR / "seed0-recurrent-fuzz32_m10.json")
    assert case.config.name == "fuzz32_m10"
    assert run_differential(case).ok
    sim = load_simulator(case)
    assert not (sim._pack_slots or sim._mantissa_gemv or sim.exact)
    callers.clear()
    sim.run(case.program)
    assert "_mv_mul_vectorized" in callers
    callers.clear()
    load_simulator(case).run(case.program, compiled=True)
    assert "_f64_member" in callers
    callers.clear()
    assert check_batched_replay(case)[0] == []
    assert callers.count("_f64_member") == len(_BATCH_SCALES)


@pytest.mark.tier1
def test_netq_chains_fold_into_loops_with_enough_supply():
    """Folded spans may read the network queue; the generated supply
    covers every iteration, so every engine runs the case cleanly."""
    folded = 0
    for seed in range(60):
        case = generate_case(seed, profile=PROFILES["memory"])
        loops = [item for item in case.program.items
                 if isinstance(item, Loop)]
        if any(chain.instructions[0].mem_id is MemId.NetQ
               for loop in loops for chain in loop.body):
            folded += 1
            assert run_differential(case, check_timing=False).ok
    assert folded > 0


@pytest.mark.tier1
def test_committed_corpus_replays_clean():
    report = replay_corpus(CORPUS_DIR)
    assert report.cases_run >= 6
    assert report.ok, report.render()
    assert report.hoisted_plans > 0, report.render()
    # Zero rows read against a NaN weight, packed and mantissa mode.
    assert report.elided_rows > 0, report.render()
    # The fuzz128_m2 case's third tile row is unpinned, so all zero.
    assert report.trimmed_lanes > 0, report.render()


@pytest.mark.tier1
def test_replay_missing_directory_is_an_error(tmp_path):
    with pytest.raises(ReproError, match="corpus directory not found"):
        replay_corpus(tmp_path / "no-such-dir")
    # An existing empty directory, by contrast, replays cleanly.
    empty = tmp_path / "empty"
    empty.mkdir()
    report = replay_corpus(empty)
    assert report.ok and report.cases_run == 0


@pytest.mark.tier1
def test_corpus_roundtrip_bit_exact(tmp_path):
    case = generate_case(21)
    path = save_case(case, tmp_path)
    back = load_corpus_case(path)
    assert back.config == case.config
    assert format_program(back.program) == format_program(case.program)
    for mem in case.vrf_init:
        assert np.array_equal(case.vrf_init[mem], back.vrf_init[mem])
    for field in ("dram_vectors", "dram_tiles", "netq_vectors",
                  "netq_tiles"):
        assert np.array_equal(getattr(case, field), getattr(back, field))
    # Serialization is deterministic: same case, same bytes.
    assert path.read_text() == save_case(back, tmp_path / "b.json") \
        .read_text()


@pytest.mark.tier1
def test_corpus_roundtrip_pinned_mrf(tmp_path):
    case = generate_case(4, profile=PROFILES["recurrent"])
    assert case.mrf_tiles is not None
    back = load_corpus_case(save_case(case, tmp_path))
    assert np.array_equal(back.mrf_tiles, case.mrf_tiles)
    assert run_differential(back, check_timing=False).ok
    # Cases without pinned tiles serialize without the key.
    assert "mrf_tiles" not in case_to_json(generate_case(21))["state"]


@pytest.mark.tier1
def test_corpus_roundtrip_keeps_float32_bits(tmp_path):
    """-NaN, a NaN payload, -0.0, +-inf and a subnormal survive a save
    and a load byte for byte in every state array (json floats turn
    every NaN into +NaN)."""
    specials = np.array([0xFFC00000, 0x7FC00123, 0x80000000, 0x7F800000,
                         0xFF800000, 0x00000001],
                        dtype=np.uint32).view(np.float32)
    case = generate_case(4, profile=PROFILES["recurrent"])
    arrays = [case.vrf_init[mem] for mem in case.vrf_init]
    arrays += [case.dram_vectors, case.dram_tiles, case.netq_vectors,
               case.netq_tiles, case.mrf_tiles]
    for array in arrays:
        flat = array.reshape(-1)
        k = min(flat.size, specials.size)
        flat[:k] = specials[:k]
    back = load_corpus_case(save_case(case, tmp_path))
    got = [back.vrf_init[mem] for mem in case.vrf_init]
    got += [back.dram_vectors, back.dram_tiles, back.netq_vectors,
            back.netq_tiles, back.mrf_tiles]
    assert any(a.size >= specials.size for a in arrays)
    for want, have in zip(arrays, got):
        assert have.dtype == np.float32 and have.shape == want.shape
        assert have.tobytes() == want.tobytes()


@pytest.mark.tier1
def test_corpus_rejects_unknown_format(tmp_path):
    from repro.errors import ReproError
    from repro.verify import case_from_json, case_to_json
    data = case_to_json(generate_case(5))
    data["format"] = 99
    with pytest.raises(ReproError):
        case_from_json(data)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(case_to_json(generate_case(5))))
    assert load_corpus_case(path).program is not None


@pytest.mark.tier1
def test_case_invalid_when_all_engines_agree_on_error():
    case = generate_case(2)
    broken = NpuProgram((InstructionChain(
        [v_rd(MemId.Dram, 4000), v_wr(MemId.NetQ)]),), name="broken")
    case = dataclasses.replace(case, program=broken)
    with pytest.raises(CaseInvalid):
        run_differential(case)


# -- tier-1: the injected-bug demo ----------------------------------------

@pytest.mark.tier1
def test_injected_executor_bug_is_caught_and_shrunk(monkeypatch):
    """Acceptance demo: a deliberate off-by-constant in the executor's
    vv_add kernel is detected by the differential runner and shrunk to a
    <= 3-instruction reproducer."""
    orig = ops.BINARY_KERNELS[Opcode.VV_ADD]

    def buggy(a, b, exact=False):
        return orig(a, b, exact=exact) + np.float32(0.25)

    monkeypatch.setitem(ops.BINARY_KERNELS, Opcode.VV_ADD, buggy)
    report = run_fuzz(seed=0, iterations=25, check_timing=False)
    assert not report.ok, "injected bug went undetected"
    failure = report.failures[0]
    assert failure.case.instruction_count() <= 3, \
        format_program(failure.case.program)
    assert any("vv_add" in line
               for line in format_program(failure.case.program)
               .splitlines())


@pytest.mark.tier1
def test_injected_bug_archived_to_corpus(monkeypatch, tmp_path):
    orig = ops.BINARY_KERNELS[Opcode.VV_MUL]

    def buggy(a, b, exact=False):
        return orig(a, b, exact=exact) * np.float32(1.0000001)

    monkeypatch.setitem(ops.BINARY_KERNELS, Opcode.VV_MUL, buggy)
    report = run_fuzz(seed=0, iterations=40, check_timing=False,
                      corpus_dir=str(tmp_path),
                      profile=PROFILES["pointwise"])
    assert not report.ok
    archived = sorted(tmp_path.glob("*.json"))
    assert archived, "failing case was not archived"
    # The archive replays to the same failure while the bug is in place.
    replayed = run_differential(load_corpus_case(archived[0]),
                                check_timing=False)
    assert not replayed.ok


@pytest.mark.tier1
def test_injected_compiled_path_bug_is_caught_and_shrunk(monkeypatch):
    """A bug confined to the compiled replay path — the reference and
    the vectorized interpreter are untouched — is detected by the
    three-way differential and shrunk to a small reproducer."""
    import repro.functional.replay as replay
    orig = replay.round_float16

    def buggy(x):
        return orig(x) + np.float32(0.125)

    monkeypatch.setattr(replay, "round_float16", buggy)
    report = run_fuzz(seed=0, iterations=25, check_timing=False)
    assert not report.ok, "compiled-path bug went undetected"
    failure = report.failures[0]
    assert any("compiled" in m or "batched" in m
               for m in failure.mismatches), failure.mismatches
    assert failure.case.instruction_count() <= 4, \
        format_program(failure.case.program)


@pytest.mark.tier1
def test_batched_check_compares_drained_outputs_bit_for_bit(monkeypatch):
    """The batched check drains ``BatchedReplay.pop_outputs`` and
    compares each request's vectors with the interpreter's drained
    queue to the bit: a drain that turns -0.0 into +0.0 and leaves the
    snapshots alone is caught."""
    from repro.functional.replay import BatchedReplay
    from repro.verify.differential import check_batched_replay
    case = generate_case(1083, profile=PROFILES["mvm"])
    assert check_batched_replay(case)[0] == []
    orig = BatchedReplay.pop_outputs

    def unsigned_zeros(self):
        return [[v + np.float32(0.0) for v in vectors]
                for vectors in orig(self)]

    monkeypatch.setattr(BatchedReplay, "pop_outputs", unsigned_zeros)
    mismatches = check_batched_replay(case)[0]
    assert mismatches
    assert all("pop_outputs" in m for m in mismatches), mismatches


@pytest.mark.tier1
def test_failure_inside_a_loop_shrinks(monkeypatch):
    """Regression: the shrinker deletes events and instructions inside
    loop bodies. Before, a failing chain inside a ``Loop`` kept the
    whole loop: its only loop candidates (unroll to one iteration,
    halve the count) never lower the instruction count."""
    orig = ops.BINARY_KERNELS[Opcode.VV_ADD]

    def buggy(a, b, exact=False):
        return orig(a, b, exact=exact) + np.float32(0.25)

    monkeypatch.setitem(ops.BINARY_KERNELS, Opcode.VV_ADD, buggy)
    body = (
        InstructionChain([v_rd(MemId.InitialVrf, 0),
                          Instruction(Opcode.V_RELU),
                          v_wr(MemId.InitialVrf, 4)]),
        InstructionChain([v_rd(MemId.InitialVrf, 1),
                          Instruction(Opcode.VV_ADD, 2),
                          Instruction(Opcode.V_TANH),
                          v_wr(MemId.AddSubVrf, 8)]),
        InstructionChain([v_rd(MemId.AddSubVrf, 3),
                          v_wr(MemId.Dram, 0)]),
    )
    case = dataclasses.replace(
        generate_case(2),
        program=NpuProgram((Loop(2, body),), name="looped"))

    def still_failing(candidate):
        return not run_differential(candidate, check_timing=False).ok

    assert still_failing(case)
    shrunk = shrink_case(case, still_failing)
    assert shrunk.instruction_count() <= 3, format_program(shrunk.program)
    (loop,) = shrunk.program.items
    assert isinstance(loop, Loop) and loop.count == 2
    assert "vv_add" in format_program(shrunk.program)


@pytest.mark.tier1
def test_shrink_keeps_failure_and_reduces_size():
    case = generate_case(9)
    baseline = case.instruction_count()

    def pretend_failing(candidate):
        # "Fails" iff the program still contains a vector chain; the
        # shrinker must keep one while deleting everything else.
        return any(isinstance(c, InstructionChain)
                   and not c.is_matrix_chain
                   for c in candidate.program.events())

    shrunk = shrink_case(case, pretend_failing)
    assert pretend_failing(shrunk)
    assert shrunk.instruction_count() < baseline
    assert shrunk.instruction_count() <= 4


# -- opt-in: the bounded CI fuzz gate -------------------------------------

@pytest.mark.fuzz
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_fuzz_gate(profile):
    """Bounded fixed-seed campaign per profile (the CI fuzz step)."""
    report = run_fuzz(seed=0, iterations=60, profile=PROFILES[profile])
    assert report.ok, report.render()


@pytest.mark.fuzz
def test_fuzz_gate_checks_hoisted_plans():
    """Bounded recurrent-profile campaign: clean, and it must reach
    plans whose mv_mul groups batched replay hoists."""
    report = run_fuzz(seed=3000, iterations=80,
                      profile=PROFILES["recurrent"])
    assert report.ok, report.render()
    assert report.hoisted_plans > 0, report.render()


@functools.lru_cache(maxsize=None)
def _mvm_gate_report():
    """The bounded mvm-profile campaign (CI's seeds), run once for the
    gate tests that read it."""
    return run_fuzz(seed=1000, iterations=100, profile=PROFILES["mvm"])


@pytest.mark.fuzz
def test_fuzz_gate_checks_fused_plans():
    """Bounded mvm-profile campaign: clean, and it must reach plans
    whose mv_mul groups run shared pointwise ops fused."""
    report = _mvm_gate_report()
    assert report.ok, report.render()
    assert report.fused_plans > 0, report.render()


@pytest.mark.fuzz
def test_fuzz_gate_checks_elided_rows():
    """The same campaign must reach all-zero mv_mul input rows that
    batched replay answers without the weights."""
    report = _mvm_gate_report()
    assert report.ok, report.render()
    assert report.elided_rows > 0, report.render()


@pytest.mark.fuzz
def test_fuzz_gate_checks_trimmed_stacks():
    """The same campaign must reach operand stacks batched replay keeps
    without their padding lanes and columns."""
    report = _mvm_gate_report()
    assert report.ok, report.render()
    assert report.trimmed_lanes > 0, report.render()
    assert report.trimmed_columns > 0, report.render()


@pytest.mark.fuzz
def test_fuzz_gate_pinned_configs():
    from repro.verify import FUZZ_CONFIGS
    for name in sorted(FUZZ_CONFIGS):
        report = run_fuzz(seed=7, iterations=25,
                          config=FUZZ_CONFIGS[name])
        assert report.ok, f"{name}: {report.render()}"
