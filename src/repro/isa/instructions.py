"""Instruction objects for the BW NPU ISA.

An :class:`Instruction` is an opcode plus up to two explicit operands
(paper Table II). The implicit chain input/output is *not* an operand; it
is the value flowing along the instruction chain.

Instructions are immutable; helper constructors (``v_rd``, ``mv_mul``, ...)
validate operand kinds at construction time so that malformed instructions
are rejected as early as possible.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional, Union

from ..errors import IsaError
from .memspace import (
    MATRIX_READ_SOURCES,
    MATRIX_WRITE_TARGETS,
    VECTOR_READ_SOURCES,
    VECTOR_WRITE_TARGETS,
    MemId,
    ScalarReg,
)
from .opcodes import Opcode, OpcodeInfo, OperandKind, info

Operand = Union[int, MemId, ScalarReg, None]


@dataclasses.dataclass(frozen=True)
class Instruction:
    """A single BW NPU instruction.

    Attributes:
        opcode: The operation.
        operand1: First explicit operand (meaning depends on the opcode).
        operand2: Second explicit operand, or ``None``.
    """

    opcode: Opcode
    operand1: Operand = None
    operand2: Operand = None

    def __post_init__(self) -> None:
        _validate_operands(self)

    @property
    def info(self) -> OpcodeInfo:
        return info(self.opcode)

    # Instructions are immutable, so the decoded operand views are
    # memoized (cached_property stores into __dict__, which frozen
    # dataclasses permit) — they sit on the executor's per-instruction
    # hot path.
    @functools.cached_property
    def mem_id(self) -> Optional[MemId]:
        """The memory structure named by this instruction, if any."""
        if self.info.operand1 is OperandKind.MEM_ID:
            return MemId(self.operand1)
        return None

    @functools.cached_property
    def index(self) -> Optional[int]:
        """The memory index operand, if any."""
        kind1, kind2 = self.info.operand1, self.info.operand2
        if kind2 is OperandKind.MEM_INDEX:
            return None if self.operand2 is None else int(self.operand2)
        if kind1 in (OperandKind.MRF_INDEX, OperandKind.VRF_INDEX):
            return int(self.operand1)
        return None

    def __str__(self) -> str:
        parts = [self.info.mnemonic]
        operands = []
        for value, kind in ((self.operand1, self.info.operand1),
                            (self.operand2, self.info.operand2)):
            if kind is OperandKind.NONE:
                continue
            if kind is OperandKind.MEM_ID:
                operands.append(MemId(value).name)
            elif kind is OperandKind.SCALAR_REG:
                operands.append(ScalarReg(value).name)
            elif value is None:
                continue  # NetQ accesses carry no index
            else:
                operands.append(str(int(value)))
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise IsaError(message)


def _validate_operands(instr: Instruction) -> None:
    meta = info(instr.opcode)
    for value, kind, label in (
        (instr.operand1, meta.operand1, "operand1"),
        (instr.operand2, meta.operand2, "operand2"),
    ):
        if kind is OperandKind.NONE:
            _require(value is None,
                     f"{meta.mnemonic}: {label} must be absent, got {value!r}")
        elif kind is OperandKind.MEM_ID:
            _require(isinstance(value, MemId) or value in list(MemId),
                     f"{meta.mnemonic}: {label} must be a MemId, got {value!r}")
        elif kind is OperandKind.SCALAR_REG:
            _require(isinstance(value, ScalarReg) or value in list(ScalarReg),
                     f"{meta.mnemonic}: {label} must be a ScalarReg, got {value!r}")
        elif kind is OperandKind.MEM_INDEX:
            # NetQ reads/writes carry no index (Table II: "except in the
            # case of network I/O").
            if value is not None:
                _require(isinstance(value, int) and value >= 0,
                         f"{meta.mnemonic}: {label} must be a non-negative "
                         f"index, got {value!r}")
        else:  # MRF_INDEX, VRF_INDEX, SCALAR_VAL
            _require(isinstance(value, int) and not isinstance(value, bool)
                     and value >= 0,
                     f"{meta.mnemonic}: {label} must be a non-negative "
                     f"integer, got {value!r}")

    mem = instr.mem_id
    if instr.opcode is Opcode.V_RD:
        _require(mem in VECTOR_READ_SOURCES,
                 f"v_rd cannot read from {mem.name}")
    elif instr.opcode is Opcode.V_WR:
        _require(mem in VECTOR_WRITE_TARGETS,
                 f"v_wr cannot write to {mem.name}")
    elif instr.opcode is Opcode.M_RD:
        _require(mem in MATRIX_READ_SOURCES,
                 f"m_rd may only read from NetQ or DRAM, not {mem.name}")
    elif instr.opcode is Opcode.M_WR:
        _require(mem in MATRIX_WRITE_TARGETS,
                 f"m_wr may only write to MatrixRf or DRAM, not {mem.name}")
    if instr.opcode in (Opcode.V_RD, Opcode.V_WR, Opcode.M_RD, Opcode.M_WR):
        if mem is not MemId.NetQ:
            _require(instr.operand2 is not None,
                     f"{meta.mnemonic}({mem.name}) requires a memory index")


# ---------------------------------------------------------------------------
# Convenience constructors mirroring the paper's software macros.
# ---------------------------------------------------------------------------

def v_rd(mem: MemId, index: Optional[int] = None) -> Instruction:
    """Read a vector from ``mem`` (index unused for NetQ)."""
    return Instruction(Opcode.V_RD, MemId(mem), index)


def v_wr(mem: MemId, index: Optional[int] = None) -> Instruction:
    """Write the chain vector to ``mem`` (index unused for NetQ)."""
    return Instruction(Opcode.V_WR, MemId(mem), index)


def m_rd(mem: MemId, index: Optional[int] = None) -> Instruction:
    """Read a matrix tile group from NetQ or DRAM."""
    return Instruction(Opcode.M_RD, MemId(mem), index)


def m_wr(mem: MemId, index: Optional[int] = None) -> Instruction:
    """Write the chain matrix to the MRF or DRAM."""
    return Instruction(Opcode.M_WR, MemId(mem), index)


def mv_mul(mrf_index: int) -> Instruction:
    """Multiply the chain vector by the matrix at ``mrf_index``."""
    return Instruction(Opcode.MV_MUL, mrf_index)


def vv_add(vrf_index: int) -> Instruction:
    """Point-wise add the AddSubVrf entry at ``vrf_index``."""
    return Instruction(Opcode.VV_ADD, vrf_index)


def vv_a_sub_b(vrf_index: int) -> Instruction:
    """Point-wise subtract: chain value minus AddSubVrf entry."""
    return Instruction(Opcode.VV_A_SUB_B, vrf_index)


def vv_b_sub_a(vrf_index: int) -> Instruction:
    """Point-wise subtract: AddSubVrf entry minus chain value."""
    return Instruction(Opcode.VV_B_SUB_A, vrf_index)


def vv_max(vrf_index: int) -> Instruction:
    """Point-wise max with the AddSubVrf entry at ``vrf_index``."""
    return Instruction(Opcode.VV_MAX, vrf_index)


def vv_mul(vrf_index: int) -> Instruction:
    """Hadamard product with the MultiplyVrf entry at ``vrf_index``."""
    return Instruction(Opcode.VV_MUL, vrf_index)


def v_relu() -> Instruction:
    """Point-wise ReLU of the chain vector."""
    return Instruction(Opcode.V_RELU)


def v_sigm() -> Instruction:
    """Point-wise sigmoid of the chain vector."""
    return Instruction(Opcode.V_SIGM)


def v_tanh() -> Instruction:
    """Point-wise hyperbolic tangent of the chain vector."""
    return Instruction(Opcode.V_TANH)
