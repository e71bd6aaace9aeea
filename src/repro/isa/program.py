"""NPU programs: chains plus scalar control flow.

The BW NPU datapath executes instruction chains; control flow (loops over
RNN timesteps, scalar control-register writes) lives on the scalar control
processor — a Nios II in the paper's implementation, modeled here as the
structured program tree :class:`NpuProgram`.

:class:`ProgramBuilder` is the analogue of the paper's "custom C libraries
for generating BW NPU instructions through software macros": client code
calls ``v_rd`` / ``mv_mul`` / ``vv_add`` / ... and the builder assembles
validated chains, exactly mirroring the LSTM listing in Section IV-C.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Union

from ..errors import ChainError, IsaError
from .chain import InstructionChain
from .instructions import Instruction
from .memspace import MemId, ScalarReg


@dataclasses.dataclass(frozen=True)
class SetScalar:
    """A scalar control-register write (``s_wr``)."""

    reg: ScalarReg
    value: int

    def __str__(self) -> str:
        return f"s_wr {self.reg.name}, {self.value}"


@dataclasses.dataclass(frozen=True)
class Loop:
    """A counted loop executed by the scalar control processor.

    ``count`` may be an integer or a string naming a run-time binding
    (dynamic input-dependent control flow, e.g. variable-length RNN
    timesteps — Section IV-A).
    """

    count: Union[int, str]
    body: tuple

    def resolve_count(self, bindings: Optional[Dict[str, int]] = None) -> int:
        if isinstance(self.count, int):
            return self.count
        if bindings is None or self.count not in bindings:
            raise IsaError(
                f"loop count '{self.count}' requires a run-time binding")
        value = bindings[self.count]
        if not isinstance(value, int) or value < 0:
            raise IsaError(
                f"loop binding '{self.count}' must be a non-negative int, "
                f"got {value!r}")
        return value


ProgramItem = Union[SetScalar, InstructionChain, Loop]
Event = Union[SetScalar, InstructionChain]


#: Process-wide program identities for compiled-plan caching: ``id()``
#: can be recycled after garbage collection, a monotonic counter cannot.
_PROGRAM_UIDS = itertools.count()


class NpuProgram:
    """A structured NPU program: chains, scalar writes, and loops."""

    def __init__(self, items: Sequence[ProgramItem], name: str = "program"):
        self._items = tuple(items)
        self.name = name
        #: Stable identity used as the compiled replay-plan cache key
        #: (:mod:`repro.functional.replay`). Programs are immutable once
        #: built, so one uid maps to one event stream per binding set.
        self.uid = next(_PROGRAM_UIDS)

    @property
    def items(self) -> tuple:
        return self._items

    def events(self, bindings: Optional[Dict[str, int]] = None
               ) -> Iterator[Event]:
        """Yield the dynamic event stream: chains and scalar writes in
        execution order, with loops unrolled using ``bindings``."""
        yield from _walk(self._items, bindings)

    def static_chain_count(self) -> int:
        """Number of chains in the program text (loops not unrolled)."""
        return sum(1 for _ in _walk_static(self._items)
                   if isinstance(_, InstructionChain))

    def __repr__(self) -> str:
        return (f"NpuProgram({self.name!r}, "
                f"{self.static_chain_count()} chains)")


def _walk(items, bindings) -> Iterator[Event]:
    for item in items:
        if isinstance(item, Loop):
            for _ in range(item.resolve_count(bindings)):
                yield from _walk(item.body, bindings)
        else:
            yield item


def _walk_static(items):
    for item in items:
        if isinstance(item, Loop):
            yield from _walk_static(item.body)
        else:
            yield item


class ProgramBuilder:
    """Macro layer for building :class:`NpuProgram` objects.

    Mirrors the paper's C macro API: each ISA mnemonic is a method; chains
    are accumulated implicitly and finalized when a new chain begins
    (``v_rd``/``m_rd``), when a control instruction occurs, on
    :meth:`end_chain`, or at :meth:`build`.

    Example (one LSTM gate input, from the Section IV-C listing)::

        b = ProgramBuilder("lstm")
        b.v_rd(MemId.InitialVrf, ivrf_xt)
        b.mv_mul(mrf_Wf)
        b.vv_add(asvrf_bf)
        b.v_wr(MemId.AddSubVrf, asvrf_xWf)
        program = b.build()
    """

    def __init__(self, name: str = "program"):
        self.name = name
        self._frames: List[List[ProgramItem]] = [[]]
        self._pending: List[Instruction] = []

    # -- chain-building mnemonics -------------------------------------------

    def v_rd(self, mem: MemId, index: Optional[int] = None) -> "ProgramBuilder":
        from . import instructions as ins
        self._begin_chain()
        self._pending.append(ins.v_rd(mem, index))
        return self

    def m_rd(self, mem: MemId, index: Optional[int] = None) -> "ProgramBuilder":
        from . import instructions as ins
        self._begin_chain()
        self._pending.append(ins.m_rd(mem, index))
        return self

    def v_wr(self, mem: MemId, index: Optional[int] = None) -> "ProgramBuilder":
        from . import instructions as ins
        self._pending.append(ins.v_wr(mem, index))
        return self

    def m_wr(self, mem: MemId, index: Optional[int] = None) -> "ProgramBuilder":
        from . import instructions as ins
        self._pending.append(ins.m_wr(mem, index))
        return self

    def mv_mul(self, mrf_index: int) -> "ProgramBuilder":
        from . import instructions as ins
        self._pending.append(ins.mv_mul(mrf_index))
        return self

    def vv_add(self, index: int) -> "ProgramBuilder":
        from . import instructions as ins
        self._pending.append(ins.vv_add(index))
        return self

    def vv_a_sub_b(self, index: int) -> "ProgramBuilder":
        from . import instructions as ins
        self._pending.append(ins.vv_a_sub_b(index))
        return self

    def vv_b_sub_a(self, index: int) -> "ProgramBuilder":
        from . import instructions as ins
        self._pending.append(ins.vv_b_sub_a(index))
        return self

    def vv_max(self, index: int) -> "ProgramBuilder":
        from . import instructions as ins
        self._pending.append(ins.vv_max(index))
        return self

    def vv_mul(self, index: int) -> "ProgramBuilder":
        from . import instructions as ins
        self._pending.append(ins.vv_mul(index))
        return self

    def v_relu(self) -> "ProgramBuilder":
        from . import instructions as ins
        self._pending.append(ins.v_relu())
        return self

    def v_sigm(self) -> "ProgramBuilder":
        from . import instructions as ins
        self._pending.append(ins.v_sigm())
        return self

    def v_tanh(self) -> "ProgramBuilder":
        from . import instructions as ins
        self._pending.append(ins.v_tanh())
        return self

    def end_chain(self) -> "ProgramBuilder":
        self._flush_chain()
        return self

    # -- control -------------------------------------------------------------

    def s_wr(self, reg: ScalarReg, value: int) -> "ProgramBuilder":
        self._flush_chain()
        self._frames[-1].append(SetScalar(ScalarReg(reg), value))
        return self

    def set_rows(self, rows: int) -> "ProgramBuilder":
        """Set the mega-SIMD row multiplier (sugar for ``s_wr(Rows, n)``)."""
        return self.s_wr(ScalarReg.Rows, rows)

    def set_columns(self, columns: int) -> "ProgramBuilder":
        """Set the mega-SIMD column multiplier."""
        return self.s_wr(ScalarReg.Columns, columns)

    @contextlib.contextmanager
    def loop(self, count: Union[int, str]):
        """Open a counted loop; the body is whatever is built inside the
        ``with`` block. ``count`` may be a run-time binding name."""
        self._flush_chain()
        if isinstance(count, int) and count < 0:
            raise IsaError("loop count must be non-negative")
        self._frames.append([])
        try:
            yield self
        finally:
            self._flush_chain()
            body = tuple(self._frames.pop())
            self._frames[-1].append(Loop(count, body))

    def build(self) -> NpuProgram:
        """Finalize and return the program."""
        self._flush_chain()
        if len(self._frames) != 1:
            raise IsaError("unclosed loop at build() time")
        return NpuProgram(tuple(self._frames[0]), name=self.name)

    # -- internals -----------------------------------------------------------

    def _begin_chain(self) -> None:
        if self._pending:
            self._flush_chain()

    def _flush_chain(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        try:
            chain = InstructionChain(pending)
        except ChainError as exc:
            raise ChainError(
                f"while building {self.name!r}: {exc}") from exc
        self._frames[-1].append(chain)
