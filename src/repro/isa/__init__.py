"""The single-threaded SIMD instruction set of the BW NPU (paper Table II)."""

from .memspace import MemId, ScalarReg
from .opcodes import ChainType, FuCategory, Opcode, OpcodeInfo, OperandKind, info
from .instructions import (
    Instruction,
    m_rd,
    m_wr,
    mv_mul,
    v_rd,
    v_relu,
    v_sigm,
    v_tanh,
    v_wr,
    vv_a_sub_b,
    vv_add,
    vv_b_sub_a,
    vv_max,
    vv_mul,
)
from .chain import FuSlot, InstructionChain
from .program import Loop, NpuProgram, ProgramBuilder, SetScalar
from .assembler import format_program, parse_program

__all__ = [
    "MemId", "ScalarReg", "ChainType", "FuCategory", "Opcode", "OpcodeInfo",
    "OperandKind", "info", "Instruction", "InstructionChain", "FuSlot",
    "Loop", "NpuProgram", "ProgramBuilder", "SetScalar",
    "format_program", "parse_program",
    "v_rd", "v_wr", "m_rd", "m_wr", "mv_mul", "vv_add", "vv_a_sub_b",
    "vv_b_sub_a", "vv_max", "vv_mul", "v_relu", "v_sigm", "v_tanh",
]
