"""Opcodes of the single-threaded BW NPU ISA (paper Table II).

Each opcode carries static metadata: the implicit chain input/output type
(vector, matrix, or none) and the shape of its explicit operands. The
metadata drives chain validation and the assembler.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional


class ChainType(enum.Enum):
    """Type of the implicit value flowing along an instruction chain."""

    NONE = "-"
    VECTOR = "V"
    MATRIX = "M"


class OperandKind(enum.Enum):
    """Kind of an explicit instruction operand."""

    NONE = "none"
    MEM_ID = "mem_id"          # a MemId selecting a memory structure
    MEM_INDEX = "mem_index"    # an index into a memory structure
    MRF_INDEX = "mrf_index"    # an index into the matrix register file
    VRF_INDEX = "vrf_index"    # an index into an implicitly-named VRF
    SCALAR_REG = "scalar_reg"  # a ScalarReg identifier
    SCALAR_VAL = "scalar_val"  # an immediate scalar value


class Opcode(enum.IntEnum):
    """BW NPU instruction opcodes."""

    V_RD = 0
    V_WR = 1
    M_RD = 2
    M_WR = 3
    MV_MUL = 4
    VV_ADD = 5
    VV_A_SUB_B = 6
    VV_B_SUB_A = 7
    VV_MAX = 8
    VV_MUL = 9
    V_RELU = 10
    V_SIGM = 11
    V_TANH = 12
    S_WR = 13
    END_CHAIN = 14


class FuCategory(enum.Enum):
    """Function-unit category inside a multifunction unit (Section V-B).

    Each MFU contains one add/subtract unit (with its AddSubVrf), one
    multiply unit (with its MultiplyVrf), and one activation unit, joined
    by a non-blocking crossbar.
    """

    ADD_SUB = "add_sub"
    MULTIPLY = "multiply"
    ACTIVATION = "activation"


@dataclasses.dataclass(frozen=True)
class OpcodeInfo:
    """Static metadata for one opcode."""

    opcode: "Opcode"
    mnemonic: str
    description: str
    chain_in: ChainType
    chain_out: ChainType
    operand1: OperandKind
    operand2: OperandKind
    #: MFU function-unit category consumed, if this is a point-wise op.
    fu_category: Optional[FuCategory] = None

    @property
    def is_pointwise(self) -> bool:
        """Whether this op executes on a multifunction unit."""
        return self.fu_category is not None


_INFOS = [
    OpcodeInfo(Opcode.V_RD, "v_rd", "Vector read", ChainType.NONE, ChainType.VECTOR,
               OperandKind.MEM_ID, OperandKind.MEM_INDEX),
    OpcodeInfo(Opcode.V_WR, "v_wr", "Vector write", ChainType.VECTOR, ChainType.NONE,
               OperandKind.MEM_ID, OperandKind.MEM_INDEX),
    OpcodeInfo(Opcode.M_RD, "m_rd", "Matrix read", ChainType.NONE, ChainType.MATRIX,
               OperandKind.MEM_ID, OperandKind.MEM_INDEX),
    OpcodeInfo(Opcode.M_WR, "m_wr", "Matrix write", ChainType.MATRIX, ChainType.NONE,
               OperandKind.MEM_ID, OperandKind.MEM_INDEX),
    OpcodeInfo(Opcode.MV_MUL, "mv_mul", "Matrix-vector multiply",
               ChainType.VECTOR, ChainType.VECTOR,
               OperandKind.MRF_INDEX, OperandKind.NONE),
    OpcodeInfo(Opcode.VV_ADD, "vv_add", "PWV addition",
               ChainType.VECTOR, ChainType.VECTOR,
               OperandKind.VRF_INDEX, OperandKind.NONE, FuCategory.ADD_SUB),
    OpcodeInfo(Opcode.VV_A_SUB_B, "vv_a_sub_b", "PWV subtraction, IN is minuend",
               ChainType.VECTOR, ChainType.VECTOR,
               OperandKind.VRF_INDEX, OperandKind.NONE, FuCategory.ADD_SUB),
    OpcodeInfo(Opcode.VV_B_SUB_A, "vv_b_sub_a", "PWV subtraction, IN is subtrahend",
               ChainType.VECTOR, ChainType.VECTOR,
               OperandKind.VRF_INDEX, OperandKind.NONE, FuCategory.ADD_SUB),
    OpcodeInfo(Opcode.VV_MAX, "vv_max", "PWV max",
               ChainType.VECTOR, ChainType.VECTOR,
               OperandKind.VRF_INDEX, OperandKind.NONE, FuCategory.ADD_SUB),
    OpcodeInfo(Opcode.VV_MUL, "vv_mul", "Hadamard product",
               ChainType.VECTOR, ChainType.VECTOR,
               OperandKind.VRF_INDEX, OperandKind.NONE, FuCategory.MULTIPLY),
    OpcodeInfo(Opcode.V_RELU, "v_relu", "PWV ReLU",
               ChainType.VECTOR, ChainType.VECTOR,
               OperandKind.NONE, OperandKind.NONE, FuCategory.ACTIVATION),
    OpcodeInfo(Opcode.V_SIGM, "v_sigm", "PWV sigmoid",
               ChainType.VECTOR, ChainType.VECTOR,
               OperandKind.NONE, OperandKind.NONE, FuCategory.ACTIVATION),
    OpcodeInfo(Opcode.V_TANH, "v_tanh", "PWV hyperbolic tangent",
               ChainType.VECTOR, ChainType.VECTOR,
               OperandKind.NONE, OperandKind.NONE, FuCategory.ACTIVATION),
    OpcodeInfo(Opcode.S_WR, "s_wr", "Write scalar control register",
               ChainType.NONE, ChainType.NONE,
               OperandKind.SCALAR_REG, OperandKind.SCALAR_VAL),
    OpcodeInfo(Opcode.END_CHAIN, "end_chain", "End instruction chain",
               ChainType.NONE, ChainType.NONE,
               OperandKind.NONE, OperandKind.NONE),
]

#: Opcode -> OpcodeInfo lookup.
OPCODE_INFO = {info.opcode: info for info in _INFOS}

#: Mnemonic -> OpcodeInfo lookup (used by the assembler).
MNEMONIC_INFO = {info.mnemonic: info for info in _INFOS}


def info(opcode: Opcode) -> OpcodeInfo:
    """Return the static metadata for ``opcode``."""
    return OPCODE_INFO[opcode]
