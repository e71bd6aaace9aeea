"""Instruction chains (Section IV-C, "Instruction Chaining").

A chain is a sequence of dependent instructions that pass values directly
from one operation to the next without named intermediate storage. Chains
come in two shapes:

* **Vector chains** begin with ``v_rd``, optionally apply one ``mv_mul``
  (the MVM sits at the head of the pipeline, Section V) followed by any
  number of point-wise operations, and terminate with one or more ``v_wr``
  (multiple writes multicast the final value).
* **Matrix chains** consist of exactly ``m_rd`` then ``m_wr`` and serve
  only to initialize/move matrices.

Validation is split in two: :meth:`InstructionChain.validate` checks
structural ISA legality, and :meth:`InstructionChain.assign_function_units`
checks that a concrete configuration (number of MFUs, function units per
MFU) can route the chain — the paper's "length and order of operations is
constrained by the microarchitectural implementation".
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from ..errors import ChainCapacityError, ChainError
from .opcodes import ChainType, FuCategory, Opcode
from .instructions import Instruction


@dataclasses.dataclass(frozen=True)
class FuSlot:
    """Placement of one point-wise op onto a function unit."""

    mfu_index: int
    category: FuCategory
    instruction: Instruction


class InstructionChain:
    """An immutable, validated instruction chain."""

    def __init__(self, instructions: Sequence[Instruction]):
        self._instructions: Tuple[Instruction, ...] = tuple(instructions)
        self._validate()

    # -- basic container protocol ------------------------------------------

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self):
        return iter(self._instructions)

    def __getitem__(self, i):
        return self._instructions[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, InstructionChain):
            return NotImplemented
        return self._instructions == other._instructions

    def __hash__(self) -> int:
        return hash(self._instructions)

    def __repr__(self) -> str:
        body = "; ".join(str(i) for i in self._instructions)
        return f"InstructionChain({body})"

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        return self._instructions

    # -- shape queries -------------------------------------------------------

    @property
    def is_matrix_chain(self) -> bool:
        return self._instructions[0].opcode is Opcode.M_RD

    @property
    def has_mv_mul(self) -> bool:
        return any(i.opcode is Opcode.MV_MUL for i in self._instructions)

    @property
    def mv_mul_index(self) -> Optional[int]:
        """MRF base index of the chain's ``mv_mul``, if present."""
        for instr in self._instructions:
            if instr.opcode is Opcode.MV_MUL:
                return instr.index
        return None

    @property
    def pointwise_ops(self) -> List[Instruction]:
        """The point-wise (MFU) operations in chain order."""
        return [i for i in self._instructions if i.info.is_pointwise]

    @property
    def writes(self) -> List[Instruction]:
        """The terminal write instruction(s)."""
        return [i for i in self._instructions
                if i.opcode in (Opcode.V_WR, Opcode.M_WR)]

    @property
    def source(self) -> Instruction:
        return self._instructions[0]

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        instrs = self._instructions
        if not instrs:
            raise ChainError("empty instruction chain")
        for instr in instrs:
            if instr.opcode in (Opcode.S_WR, Opcode.END_CHAIN):
                raise ChainError(
                    f"{instr.info.mnemonic} is a control instruction and "
                    "cannot appear inside a chain")
        if instrs[0].opcode is Opcode.M_RD:
            self._validate_matrix_chain()
        elif instrs[0].opcode is Opcode.V_RD:
            self._validate_vector_chain()
        else:
            raise ChainError(
                f"chains must begin with v_rd or m_rd, got "
                f"{instrs[0].info.mnemonic}")

    def _validate_matrix_chain(self) -> None:
        instrs = self._instructions
        if len(instrs) != 2 or instrs[1].opcode is not Opcode.M_WR:
            raise ChainError(
                "matrix chains consist of exactly m_rd followed by m_wr")

    def _validate_vector_chain(self) -> None:
        instrs = self._instructions
        seen_write = False
        for pos, instr in enumerate(instrs[1:], start=1):
            meta = instr.info
            if instr.opcode is Opcode.V_RD:
                raise ChainError("v_rd may only start a chain")
            if meta.chain_in is ChainType.MATRIX or \
                    meta.chain_out is ChainType.MATRIX:
                raise ChainError(
                    f"matrix instruction {meta.mnemonic} in a vector chain")
            if instr.opcode is Opcode.MV_MUL and pos != 1:
                # The MVM is at the head of the function-unit pipeline
                # (Fig. 3); a vector must enter it before any MFU op.
                raise ChainError(
                    "mv_mul must immediately follow the chain's v_rd")
            if seen_write and instr.opcode is not Opcode.V_WR:
                raise ChainError(
                    "only additional v_wr (multicast) may follow a v_wr")
            if instr.opcode is Opcode.V_WR:
                seen_write = True
        if not seen_write:
            raise ChainError("vector chains must terminate with v_wr")

    def assign_function_units(self, num_mfus: int) -> List[FuSlot]:
        """Route the chain's point-wise ops through ``num_mfus`` MFUs.

        Each MFU provides one add/subtract unit, one multiply unit, and one
        activation unit behind a non-blocking crossbar, so within a single
        MFU the ops may appear in any order but each unit is usable once.
        Ops are placed greedily in chain order, advancing to the next MFU
        when the current one has already used the needed unit.

        Raises:
            ChainCapacityError: if the chain needs more MFUs than available.
        """
        slots: List[FuSlot] = []
        mfu = 0
        used: set = set()
        for instr in self.pointwise_ops:
            category = instr.info.fu_category
            while category in used:
                mfu += 1
                used = set()
            if mfu >= num_mfus:
                raise ChainCapacityError(
                    f"chain requires more than {num_mfus} MFUs: "
                    f"{[str(i) for i in self.pointwise_ops]}")
            used.add(category)
            slots.append(FuSlot(mfu, category, instr))
        return slots
