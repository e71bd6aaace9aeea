"""Textual assembler / disassembler for NPU programs.

The text format mirrors Table II mnemonics plus a ``loop`` construct for
the scalar control processor::

    s_wr Rows, 2
    loop 25 {
        v_rd NetQ
        mv_mul 0
        v_sigm
        v_wr InitialVrf, 4
        end_chain
    }

Loop counts may be integers or identifiers (bound at run time). Comments
start with ``#`` or ``//``. The assembler produces an
:class:`repro.isa.program.NpuProgram`; :func:`format_program` inverts it.
"""

from __future__ import annotations

import re
from typing import List, Union

from ..errors import AssemblerError
from .chain import InstructionChain
from .memspace import MemId, ScalarReg
from .opcodes import MNEMONIC_INFO, OperandKind
from .program import Loop, NpuProgram, ProgramBuilder, SetScalar

_COMMENT_RE = re.compile(r"(#|//).*$")
_LOOP_RE = re.compile(r"^loop\s+(\w+)\s*\{$")


def parse_program(text: str, name: str = "program") -> NpuProgram:
    """Parse assembly text into a program."""
    builder = ProgramBuilder(name)
    stack: List = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.sub("", raw).strip()
        if not line:
            continue
        try:
            _parse_line(builder, stack, line)
        except Exception as exc:
            raise AssemblerError(f"line {lineno}: {exc}") from exc
    if stack:
        raise AssemblerError("unclosed loop at end of input")
    return builder.build()


def _parse_line(builder: ProgramBuilder, stack: List, line: str) -> None:
    loop_match = _LOOP_RE.match(line)
    if loop_match:
        token = loop_match.group(1)
        count: Union[int, str] = int(token) if token.isdigit() else token
        ctx = builder.loop(count)
        ctx.__enter__()
        stack.append(ctx)
        return
    if line == "}":
        if not stack:
            raise AssemblerError("unmatched '}'")
        stack.pop().__exit__(None, None, None)
        return

    parts = line.split(None, 1)
    mnemonic = parts[0]
    if mnemonic not in MNEMONIC_INFO:
        raise AssemblerError(f"unknown mnemonic {mnemonic!r}")
    meta = MNEMONIC_INFO[mnemonic]
    operands = ([t.strip() for t in parts[1].split(",")]
                if len(parts) > 1 else [])

    args: List = []
    kinds = [k for k in (meta.operand1, meta.operand2)
             if k is not OperandKind.NONE]
    # NetQ accesses may omit the index operand.
    if len(operands) < len(kinds) and kinds and \
            kinds[-1] is OperandKind.MEM_INDEX:
        kinds = kinds[:len(operands)]
    if len(operands) != len(kinds):
        raise AssemblerError(
            f"{mnemonic} expects {len(kinds)} operand(s), "
            f"got {len(operands)}")
    for token, kind in zip(operands, kinds):
        args.append(_parse_operand(token, kind))

    method = getattr(builder, mnemonic)
    method(*args)


def _parse_operand(token: str, kind: OperandKind):
    if kind is OperandKind.MEM_ID:
        try:
            return MemId[token]
        except KeyError:
            raise AssemblerError(f"unknown memory {token!r}") from None
    if kind is OperandKind.SCALAR_REG:
        try:
            return ScalarReg[token]
        except KeyError:
            raise AssemblerError(f"unknown scalar register {token!r}") from None
    if not re.fullmatch(r"\d+", token):
        raise AssemblerError(f"expected integer, got {token!r}")
    return int(token)


def format_program(program: NpuProgram) -> str:
    """Render a program as assembly text (inverse of :func:`parse_program`)."""
    lines: List[str] = []
    _format_items(program.items, lines, indent=0)
    return "\n".join(lines) + "\n"


def _format_items(items, lines: List[str], indent: int) -> None:
    pad = "    " * indent
    for item in items:
        if isinstance(item, Loop):
            lines.append(f"{pad}loop {item.count} {{")
            _format_items(item.body, lines, indent + 1)
            lines.append(f"{pad}}}")
        elif isinstance(item, SetScalar):
            lines.append(f"{pad}{item}")
        elif isinstance(item, InstructionChain):
            for instr in item:
                lines.append(f"{pad}{instr}")
            lines.append(f"{pad}end_chain")
        else:  # pragma: no cover - defensive
            raise AssemblerError(f"unknown program item {item!r}")
