"""Tests for opcodes, operands, and instruction construction (Table II)."""

import pytest

from repro.errors import IsaError
from repro.isa import ChainType, FuCategory, Instruction, MemId, Opcode, ScalarReg, info, m_rd, m_wr, mv_mul, v_rd, v_relu, v_sigm, v_tanh, v_wr, vv_a_sub_b, vv_add, vv_b_sub_a, vv_max, \
    vv_mul


class TestOpcodeMetadata:
    def test_all_fifteen_opcodes_present(self):
        """Table II lists 15 instructions."""
        assert len(list(Opcode)) == 15

    def test_every_opcode_has_info(self):
        for op in Opcode:
            meta = info(op)
            assert meta.opcode is op
            assert meta.mnemonic

    def test_chain_io_types_match_table2(self):
        assert info(Opcode.V_RD).chain_in is ChainType.NONE
        assert info(Opcode.V_RD).chain_out is ChainType.VECTOR
        assert info(Opcode.V_WR).chain_in is ChainType.VECTOR
        assert info(Opcode.V_WR).chain_out is ChainType.NONE
        assert info(Opcode.M_RD).chain_out is ChainType.MATRIX
        assert info(Opcode.M_WR).chain_in is ChainType.MATRIX
        assert info(Opcode.MV_MUL).chain_in is ChainType.VECTOR
        assert info(Opcode.MV_MUL).chain_out is ChainType.VECTOR
        assert info(Opcode.S_WR).chain_in is ChainType.NONE
        assert info(Opcode.END_CHAIN).chain_out is ChainType.NONE

    def test_pointwise_categories(self):
        assert info(Opcode.VV_ADD).fu_category is FuCategory.ADD_SUB
        assert info(Opcode.VV_A_SUB_B).fu_category is FuCategory.ADD_SUB
        assert info(Opcode.VV_B_SUB_A).fu_category is FuCategory.ADD_SUB
        assert info(Opcode.VV_MAX).fu_category is FuCategory.ADD_SUB
        assert info(Opcode.VV_MUL).fu_category is FuCategory.MULTIPLY
        for op in (Opcode.V_RELU, Opcode.V_SIGM, Opcode.V_TANH):
            assert info(op).fu_category is FuCategory.ACTIVATION

    def test_mv_mul_is_not_pointwise(self):
        assert not info(Opcode.MV_MUL).is_pointwise


class TestConstruction:
    def test_v_rd_requires_memid(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.V_RD, 99, 0)

    def test_v_rd_netq_index_optional(self):
        assert v_rd(MemId.NetQ).index is None

    def test_v_rd_vrf_requires_index(self):
        with pytest.raises(IsaError):
            v_rd(MemId.InitialVrf)

    def test_matrix_read_sources_restricted(self):
        """Table II: m_rd from NetQ or DRAM only."""
        m_rd(MemId.NetQ)
        m_rd(MemId.Dram, 0)
        with pytest.raises(IsaError):
            m_rd(MemId.MatrixRf, 0)
        with pytest.raises(IsaError):
            m_rd(MemId.InitialVrf, 0)

    def test_matrix_write_targets_restricted(self):
        """Table II: m_wr to MatrixRf or DRAM only."""
        m_wr(MemId.MatrixRf, 0)
        m_wr(MemId.Dram, 3)
        with pytest.raises(IsaError):
            m_wr(MemId.NetQ)
        with pytest.raises(IsaError):
            m_wr(MemId.AddSubVrf, 0)

    def test_v_rd_cannot_read_matrixrf(self):
        with pytest.raises(IsaError):
            v_rd(MemId.MatrixRf, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(IsaError):
            mv_mul(-1)
        with pytest.raises(IsaError):
            v_rd(MemId.InitialVrf, -2)

    def test_unary_ops_take_no_operands(self):
        for ctor in (v_relu, v_sigm, v_tanh):
            instr = ctor()
            assert instr.operand1 is None
            assert instr.operand2 is None

    def test_s_wr_operands(self):
        instr = Instruction(Opcode.S_WR, ScalarReg.Rows, 4)
        assert instr.operand1 is ScalarReg.Rows
        assert instr.operand2 == 4

    def test_s_wr_rejects_bad_register(self):
        with pytest.raises((IsaError, ValueError)):
            Instruction(Opcode.S_WR, 17, 4)

    def test_mem_id_property(self):
        assert v_wr(MemId.AddSubVrf, 3).mem_id is MemId.AddSubVrf
        assert mv_mul(5).mem_id is None

    def test_index_property(self):
        assert v_wr(MemId.AddSubVrf, 3).index == 3
        assert mv_mul(5).index == 5
        assert vv_add(7).index == 7
        assert v_rd(MemId.NetQ).index is None

    def test_instructions_hashable_and_equal(self):
        assert mv_mul(3) == mv_mul(3)
        assert mv_mul(3) != mv_mul(4)
        assert len({mv_mul(3), mv_mul(3), mv_mul(4)}) == 2

    def test_bool_not_accepted_as_index(self):
        with pytest.raises(IsaError):
            mv_mul(True)


class TestFormatting:
    def test_str_with_mem_and_index(self):
        assert str(v_rd(MemId.InitialVrf, 4)) == "v_rd InitialVrf, 4"

    def test_str_netq_omits_index(self):
        assert str(v_rd(MemId.NetQ)) == "v_rd NetQ"

    def test_str_unary(self):
        assert str(v_tanh()) == "v_tanh"

    def test_str_scalar(self):
        assert str(Instruction(Opcode.S_WR, ScalarReg.Columns, 5)) == \
            "s_wr Columns, 5"

    def test_str_end_chain(self):
        assert str(Instruction(Opcode.END_CHAIN)) == "end_chain"

    @pytest.mark.parametrize("ctor,arg", [
        (vv_add, 1), (vv_a_sub_b, 2), (vv_b_sub_a, 3), (vv_max, 4),
        (vv_mul, 5)])
    def test_str_binary_pointwise(self, ctor, arg):
        instr = ctor(arg)
        assert str(instr).endswith(str(arg))
