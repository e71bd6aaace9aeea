"""Tests for instruction chains: structure, validation, MFU routing."""

import pytest

from repro.errors import ChainCapacityError, ChainError
from repro.isa import (
    FuCategory,
    Instruction,
    InstructionChain,
    MemId,
    Opcode,
    m_rd,
    m_wr,
    mv_mul,
    ScalarReg,
    v_rd,
    v_relu,
    v_sigm,
    v_tanh,
    v_wr,
    vv_add,
    vv_mul,
)


def vec_chain(*body):
    return InstructionChain([v_rd(MemId.InitialVrf, 0), *body,
                             v_wr(MemId.InitialVrf, 1)])


class TestStructure:
    def test_minimal_vector_chain(self):
        chain = InstructionChain([v_rd(MemId.NetQ),
                                  v_wr(MemId.InitialVrf, 0)])
        assert not chain.is_matrix_chain
        assert not chain.has_mv_mul

    def test_empty_chain_rejected(self):
        with pytest.raises(ChainError):
            InstructionChain([])

    def test_chain_must_start_with_read(self):
        with pytest.raises(ChainError):
            InstructionChain([mv_mul(0), v_wr(MemId.InitialVrf, 0)])

    def test_chain_must_end_with_write(self):
        with pytest.raises(ChainError):
            InstructionChain([v_rd(MemId.NetQ), v_relu()])

    def test_mv_mul_must_follow_read(self):
        """The MVM sits at the pipeline head (Fig. 3)."""
        with pytest.raises(ChainError):
            vec_chain(v_relu(), mv_mul(0))

    def test_single_mv_mul_chain_valid(self):
        chain = vec_chain(mv_mul(0))
        assert chain.has_mv_mul
        assert chain.mv_mul_index == 0

    def test_v_rd_only_at_start(self):
        with pytest.raises(ChainError):
            InstructionChain([v_rd(MemId.NetQ), v_rd(MemId.NetQ),
                              v_wr(MemId.InitialVrf, 0)])

    def test_control_instructions_rejected_in_chain(self):
        with pytest.raises(ChainError):
            InstructionChain([v_rd(MemId.NetQ),
                              Instruction(Opcode.END_CHAIN)])
        with pytest.raises(ChainError):
            InstructionChain([v_rd(MemId.NetQ),
                              Instruction(Opcode.S_WR, ScalarReg.Rows, 2),
                              v_wr(MemId.InitialVrf, 0)])

    def test_multicast_writes_allowed(self):
        """A chain may end with multiple v_wr (Section IV-C)."""
        chain = InstructionChain([
            v_rd(MemId.InitialVrf, 0), v_tanh(),
            v_wr(MemId.MultiplyVrf, 1), v_wr(MemId.InitialVrf, 2),
            v_wr(MemId.NetQ)])
        assert len(chain.writes) == 3

    def test_op_after_write_rejected(self):
        with pytest.raises(ChainError):
            InstructionChain([v_rd(MemId.NetQ),
                              v_wr(MemId.InitialVrf, 0), v_relu(),
                              v_wr(MemId.InitialVrf, 1)])

    def test_matrix_chain_exactly_two(self):
        InstructionChain([m_rd(MemId.NetQ), m_wr(MemId.MatrixRf, 0)])
        with pytest.raises(ChainError):
            InstructionChain([m_rd(MemId.NetQ)])
        with pytest.raises(ChainError):
            InstructionChain([m_rd(MemId.NetQ), m_wr(MemId.MatrixRf, 0),
                              m_wr(MemId.Dram, 0)])

    def test_matrix_op_in_vector_chain_rejected(self):
        with pytest.raises(ChainError):
            InstructionChain([v_rd(MemId.NetQ), m_wr(MemId.MatrixRf, 0)])

    def test_paper_lstm_c_gate_chain(self):
        """The c-gate chain from the Section IV-C listing is legal."""
        chain = InstructionChain([
            v_rd(MemId.InitialVrf, 0), mv_mul(10), vv_add(1), v_tanh(),
            vv_mul(2), vv_add(3), v_wr(MemId.MultiplyVrf, 4),
            v_wr(MemId.InitialVrf, 5)])
        assert chain.assign_function_units(2)[-1].mfu_index == 1


class TestQueries:
    def test_pointwise_ops_in_order(self):
        chain = vec_chain(mv_mul(0), vv_add(1), v_sigm(), vv_mul(2))
        ops = [i.opcode.name for i in chain.pointwise_ops]
        assert ops == ["VV_ADD", "V_SIGM", "VV_MUL"]

    def test_equality_and_hash(self):
        a = vec_chain(v_relu())
        b = vec_chain(v_relu())
        c = vec_chain(v_tanh())
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestFuAssignment:
    def test_single_mfu_all_three_categories(self):
        chain = vec_chain(vv_add(0), v_sigm(), vv_mul(1))
        slots = chain.assign_function_units(1)
        assert all(s.mfu_index == 0 for s in slots)
        assert {s.category for s in slots} == {
            FuCategory.ADD_SUB, FuCategory.ACTIVATION,
            FuCategory.MULTIPLY}

    def test_repeat_category_advances_mfu(self):
        chain = vec_chain(vv_add(0), vv_add(1))
        slots = chain.assign_function_units(2)
        assert [s.mfu_index for s in slots] == [0, 1]

    def test_capacity_error_when_out_of_mfus(self):
        chain = vec_chain(vv_add(0), vv_add(1), vv_add(2))
        with pytest.raises(ChainCapacityError):
            chain.assign_function_units(2)

    def test_two_mfus_support_paper_chains(self):
        """The paper: 'two MFUs are sufficient to support most
        instruction chains' — all chains in the LSTM listing fit."""
        gru_htilde = vec_chain(mv_mul(0), vv_mul(0), vv_add(1), v_tanh(),
                               vv_mul(2), vv_add(3))
        assert gru_htilde.assign_function_units(2)[-1].mfu_index == 1
