"""Memory spaces addressable by the BW NPU ISA.

The ISA's read/write instructions name a memory target with their first
operand (paper Table II). Vector instructions may target the network I/O
queue, DRAM, or one of the pipeline vector register files; matrix
instructions are restricted to the network queue, DRAM, and the matrix
register file (Section IV-C: "Matrices can be read only from the network
or from DRAM, and can be written only to the matrix register file or to
DRAM").
"""

from __future__ import annotations

import enum


class MemId(enum.IntEnum):
    """Identifier of an addressable memory structure."""

    #: Network input/output queue (datacenter network attach point).
    NetQ = 0
    #: Off-chip DRAM attached to the FPGA.
    Dram = 1
    #: Matrix register file feeding the matrix-vector multiplier.
    MatrixRf = 2
    #: Vector register file at the head of the pipeline (MVM input).
    InitialVrf = 3
    #: Vector register file supplying add/subtract/max operands in the MFUs.
    AddSubVrf = 4
    #: Vector register file supplying Hadamard-product operands in the MFUs.
    MultiplyVrf = 5


#: Memory spaces that ``v_rd`` may name as a source.
VECTOR_READ_SOURCES = frozenset(
    {MemId.NetQ, MemId.Dram, MemId.InitialVrf, MemId.AddSubVrf, MemId.MultiplyVrf}
)

#: Memory spaces that ``v_wr`` may name as a destination.
VECTOR_WRITE_TARGETS = VECTOR_READ_SOURCES

#: Memory spaces that ``m_rd`` may name as a source (Table II: NetQ or DRAM).
MATRIX_READ_SOURCES = frozenset({MemId.NetQ, MemId.Dram})

#: Memory spaces that ``m_wr`` may name as a destination (MRF or DRAM).
MATRIX_WRITE_TARGETS = frozenset({MemId.MatrixRf, MemId.Dram})


class ScalarReg(enum.IntEnum):
    """Scalar control registers written with ``s_wr`` (Section IV-C).

    ``Rows``/``Columns`` configure mega-SIMD tiling: with ``rows=R`` and
    ``columns=C`` a subsequent ``mv_mul`` treats ``R*C`` consecutive MRF
    entries as a tiled R·N x C·N matrix, consuming C input vectors and
    producing R output vectors.
    """

    Rows = 0
    Columns = 1
    #: Loop trip count consumed by the scalar control processor.
    Iterations = 2
