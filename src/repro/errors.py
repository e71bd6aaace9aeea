"""Exception hierarchy for the Brainwave NPU reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class. Subclasses are grouped by subsystem: ISA/program
construction, functional execution, compilation, and synthesis.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class IsaError(ReproError):
    """An instruction or instruction chain violates the ISA rules."""


class ChainError(IsaError):
    """An instruction chain is malformed (ordering, chain in/out types)."""


class ChainCapacityError(ChainError):
    """A chain needs more function units than the configuration provides."""


class EncodingError(IsaError):
    """An instruction cannot be encoded/decoded in the binary format."""


class AssemblerError(IsaError):
    """Textual assembly could not be parsed."""


class ExecutionError(ReproError):
    """The functional simulator hit an illegal architectural event."""


class MemoryError_(ExecutionError):
    """Out-of-bounds or illegal register file / DRAM / queue access."""


class NetworkQueueEmptyError(ExecutionError):
    """A ``v_rd(NetQ)`` executed with no pending input vector."""


class CompileError(ReproError):
    """A model graph could not be lowered onto the NPU."""


class CapacityError(CompileError):
    """Model parameters exceed the on-chip memory of the target config."""


class PartitionError(CompileError):
    """A graph could not be partitioned across the available accelerators."""


class SynthesisError(ReproError):
    """A configuration does not fit the target FPGA device."""


class FaultError(ReproError):
    """An injected fault (node crash, transient failure, packet loss).

    ``kind`` names the fault category: ``"node_down"``, ``"crash"``, or
    ``"transient"``.
    """

    def __init__(self, message: str, kind: str = "transient"):
        super().__init__(message)
        self.kind = kind


class DeadlineExceededError(ReproError):
    """A request could not complete within its SLO deadline."""


class AllReplicasDownError(ReproError):
    """Every replica of a service is crashed or circuit-broken."""


class ConfigError(ReproError):
    """An NPU configuration is internally inconsistent."""


class UnbatchablePlanError(ConfigError):
    """A compiled replay plan cannot be executed by the batched replayer.

    Raised when a plan contains interpreted fallback steps, from the
    first of two kinds of event onward. One is a statically invalid
    event: it definitely raises, so per-request batched execution
    cannot preserve the interpreter's error semantics. The other is an
    ``m_wr`` to the MRF: batched requests share one MRF (pinned
    weights), so a plan that rewrites it runs sequentially.
    ``step_kinds`` names the fallback step kinds, e.g.
    ``("s_wr:Rows",)``, ``("v_rd>mv_mul>v_wr",)`` or ``("m_rd>m_wr",)``.
    """

    def __init__(self, message: str, step_kinds: tuple = ()):
        super().__init__(message)
        self.step_kinds = tuple(step_kinds)
