"""Deliberately simple reference interpreter for conformance fuzzing.

Defines the ground-truth semantics of the BW NPU ISA (paper Table II,
Section IV-C) independently of :mod:`repro.functional.executor`'s
vectorized fast paths: architectural state is plain numpy arrays and
dicts, mega-SIMD ``rows``/``columns`` tiling is an explicit python loop
over native tiles, MVM dot products accumulate scalar-by-scalar, and BFP
quantization uses the pure-python oracle
:func:`repro.numerics.bfp.quantize_reference`.

Bit-exactness notes (why a python loop can match the vectorized engine):

* Quantized MVM — within one scale block every product shares a single
  power-of-two scale, so float64 partial sums are exact integers times
  that scale; any summation order yields the same value. Cross-block
  terms are accumulated in the executor's reference order — ``(c, k)``
  lexicographic over column tiles ``c`` and sub-row scale blocks ``k``
  — so those (inexact) float64 additions match too.
* Exact-mode MVM (``mantissa_bits == 0``) — each tile contribution is
  a float64 matvec accumulated over column tiles in order, the same
  per-row dot and add sequence as the executor's stacked float64 GEMV.
* Point-wise ops are IEEE float32 element-wise operations (order-free);
  transcendental activations delegate to the same numpy ufunc applied to
  the same-shaped array, because *numpy's* tanh/exp are the definition of
  ground truth here and ufunc results may differ by ULPs across
  array-shape-dependent SIMD paths.
"""

from __future__ import annotations

import collections
from typing import Dict, List, Optional

import numpy as np

from ..config import NpuConfig
from ..errors import ExecutionError, MemoryError_, NetworkQueueEmptyError
from ..isa.chain import InstructionChain
from ..isa.memspace import MemId, ScalarReg
from ..isa.opcodes import Opcode
from ..isa.program import NpuProgram, SetScalar
from ..numerics.bfp import quantize_reference

#: VRF memory spaces, in snapshot order.
_VRFS = (MemId.InitialVrf, MemId.AddSubVrf, MemId.MultiplyVrf)


def _f16(x: np.ndarray) -> np.ndarray:
    """Round to float16, return float32 (the pipeline word type).

    Values beyond float16 range saturate to ``inf`` by design (the
    paper's narrow pipeline word); the numpy overflow warning is noise.
    """
    with np.errstate(over="ignore"):
        return np.asarray(x, dtype=np.float16).astype(np.float32)


class ReferenceInterpreter:
    """Naive, loop-based executor defining ISA ground truth."""

    def __init__(self, config: NpuConfig):
        self.config = config
        n = config.native_dim
        self.exact = config.mantissa_bits == 0
        self._fmt = config.bfp_format
        depths = {MemId.InitialVrf: config.initial_vrf_depth,
                  MemId.AddSubVrf: config.addsub_vrf_depth,
                  MemId.MultiplyVrf: config.multiply_vrf_depth}
        self.vrfs: Dict[MemId, np.ndarray] = {
            mem: np.zeros((depths[mem], n), dtype=np.float32)
            for mem in _VRFS}
        self.mrf = np.zeros((config.mrf_address_space, n, n),
                            dtype=np.float32)
        self.dram_vectors: Dict[int, np.ndarray] = {}
        self.dram_tiles: Dict[int, np.ndarray] = {}
        self.netq_in: collections.deque = collections.deque()
        self.netq_in_tiles: collections.deque = collections.deque()
        self.outputs: List[np.ndarray] = []
        self.scalar_regs: Dict[ScalarReg, int] = {
            ScalarReg.Rows: 1, ScalarReg.Columns: 1, ScalarReg.Iterations: 0}
        self.op_counts: Dict[str, int] = collections.defaultdict(int)
        self.chains_executed = 0
        self.instructions_executed = 0
        self.mv_mul_count = 0
        self.macs = 0
        self.pointwise_flops = 0

    # -- host-facing state loading ---------------------------------------

    def load_vrf(self, mem: MemId, data: np.ndarray) -> None:
        arr = np.asarray(data, dtype=np.float32)
        self.vrfs[mem][:arr.shape[0]] = arr

    def load_mrf_tiles(self, index: int, tiles: np.ndarray) -> None:
        """Pin tiles into the MRF, quantized exactly as ``m_wr`` does."""
        for i, tile in enumerate(np.asarray(tiles, dtype=np.float32)):
            self.mrf[index + i] = (tile if self.exact
                                   else quantize_reference(tile, self._fmt))

    def load_dram_vectors(self, index: int, vectors: np.ndarray) -> None:
        for i, vec in enumerate(np.atleast_2d(vectors)):
            self.dram_vectors[index + i] = \
                np.array(vec, dtype=np.float32)

    def load_dram_tiles(self, index: int, tiles: np.ndarray) -> None:
        for i, tile in enumerate(tiles):
            self.dram_tiles[index + i] = np.array(tile, dtype=np.float32)

    def push_inputs(self, vectors: np.ndarray) -> None:
        for vec in np.atleast_2d(vectors):
            self.netq_in.append(np.array(vec, dtype=np.float32))

    def push_input_tiles(self, tiles: np.ndarray) -> None:
        for tile in tiles:
            self.netq_in_tiles.append(np.array(tile, dtype=np.float32))

    # -- execution -------------------------------------------------------

    def run(self, program: NpuProgram,
            bindings: Optional[Dict[str, int]] = None) -> None:
        for event in program.events(bindings):
            if isinstance(event, SetScalar):
                self._set_scalar(event)
            else:
                self._chain(event)

    def _set_scalar(self, event: SetScalar) -> None:
        if event.reg in (ScalarReg.Rows, ScalarReg.Columns) \
                and event.value < 1:
            raise ExecutionError(f"{event.reg.name} must be >= 1")
        self.scalar_regs[event.reg] = event.value
        self.instructions_executed += 1
        self.op_counts["set_scalar"] += 1

    def _chain(self, chain: InstructionChain) -> None:
        self.chains_executed += 1
        self.instructions_executed += len(chain) + 1
        if chain.is_matrix_chain:
            self._matrix_chain(chain)
        else:
            self._check_mfu_capacity(chain)
            self._vector_chain(chain)
        self.op_counts["end_chain"] += 1

    def _check_mfu_capacity(self, chain: InstructionChain) -> None:
        """Greedy MFU routing check, re-derived from Section V-B: each
        MFU offers one add/sub, one multiply, and one activation unit."""
        mfu, used = 0, set()
        for instr in chain.instructions:
            category = instr.info.fu_category
            if category is None:
                continue
            while category in used:
                mfu += 1
                used = set()
            if mfu >= self.config.mfus:
                raise ExecutionError(
                    f"chain requires more than {self.config.mfus} MFUs")
            used.add(category)

    # -- matrix chains ---------------------------------------------------

    def _matrix_chain(self, chain: InstructionChain) -> None:
        rows = self.scalar_regs[ScalarReg.Rows]
        cols = self.scalar_regs[ScalarReg.Columns]
        count = rows * cols
        rd, wr = chain.instructions
        if rd.mem_id is MemId.NetQ:
            if len(self.netq_in_tiles) < count:
                raise NetworkQueueEmptyError(
                    f"m_rd(NetQ) needs {count} tile(s)")
            tiles = [self.netq_in_tiles.popleft() for _ in range(count)]
        else:
            tiles = []
            for i in range(count):
                if rd.index + i not in self.dram_tiles:
                    raise MemoryError_(
                        f"DRAM tile {rd.index + i} never written")
                tiles.append(self.dram_tiles[rd.index + i].copy())
        self.op_counts["m_rd"] += 1
        if wr.mem_id is MemId.MatrixRf:
            if wr.index + count > self.mrf.shape[0]:
                raise MemoryError_("MRF tile write out of range")
            for i, tile in enumerate(tiles):
                if not self.exact:
                    # Weights quantize on MRF initialization, one shared
                    # exponent per native row.
                    tile = quantize_reference(tile, self._fmt)
                self.mrf[wr.index + i] = tile
        else:
            for i, tile in enumerate(tiles):
                self.dram_tiles[wr.index + i] = np.array(tile)
        self.op_counts["m_wr"] += 1

    # -- vector chains ---------------------------------------------------

    def _vector_chain(self, chain: InstructionChain) -> None:
        rows = self.scalar_regs[ScalarReg.Rows]
        cols = self.scalar_regs[ScalarReg.Columns]
        width_in = cols if chain.has_mv_mul else rows
        head = chain.source
        value = self._read(head, width_in)
        self.op_counts["v_rd"] += 1
        for instr in chain.instructions[1:]:
            op = instr.opcode
            if op is Opcode.MV_MUL:
                value = self._mv_mul(instr, value, rows, cols)
            elif op is Opcode.VV_MUL:
                operand = self._vrf_slice(MemId.MultiplyVrf, instr.index,
                                          rows)
                value = _f16_unless(value * operand, self.exact)
                self.pointwise_flops += value.size
            elif op in (Opcode.VV_ADD, Opcode.VV_A_SUB_B,
                        Opcode.VV_B_SUB_A, Opcode.VV_MAX):
                operand = self._vrf_slice(MemId.AddSubVrf, instr.index,
                                          rows)
                if op is Opcode.VV_ADD:
                    result = value + operand
                elif op is Opcode.VV_A_SUB_B:
                    result = value - operand
                elif op is Opcode.VV_B_SUB_A:
                    result = operand - value
                else:
                    result = np.maximum(value, operand)
                value = _f16_unless(result, self.exact)
                self.pointwise_flops += value.size
            elif op is Opcode.V_RELU:
                value = _f16_unless(np.maximum(value, np.float32(0.0)),
                                    self.exact)
                self.pointwise_flops += value.size
            elif op is Opcode.V_SIGM:
                a64 = value.astype(np.float64)
                with np.errstate(over="ignore"):
                    value = _f16_unless(
                        (1.0 / (1.0 + np.exp(-a64))).astype(np.float32),
                        self.exact)
                self.pointwise_flops += value.size
            elif op is Opcode.V_TANH:
                value = _f16_unless(
                    np.tanh(value.astype(np.float64)).astype(np.float32),
                    self.exact)
                self.pointwise_flops += value.size
            elif op is Opcode.V_WR:
                self._write(instr, value)
            else:
                raise ExecutionError(f"unexpected opcode {op} in chain")
            self.op_counts[op.name.lower()] += 1

    def _read(self, instr, count: int) -> np.ndarray:
        mem = instr.mem_id
        if mem is MemId.NetQ:
            if len(self.netq_in) < count:
                raise NetworkQueueEmptyError(
                    f"v_rd(NetQ) needs {count} vector(s)")
            return np.stack([self.netq_in.popleft() for _ in range(count)])
        if mem is MemId.Dram:
            out = np.zeros((count, self.config.native_dim),
                           dtype=np.float32)
            for i in range(count):
                if instr.index + i not in self.dram_vectors:
                    raise MemoryError_(
                        f"DRAM vector {instr.index + i} never written")
                out[i] = self.dram_vectors[instr.index + i]
            return out
        return self._vrf_slice(mem, instr.index, count).copy()

    def _vrf_slice(self, mem: MemId, index: int, count: int) -> np.ndarray:
        data = self.vrfs[mem]
        if index < 0 or index + count > data.shape[0]:
            raise MemoryError_(
                f"{mem.name}: access [{index}, {index + count}) out of "
                f"range (depth {data.shape[0]})")
        return data[index:index + count]

    def _write(self, instr, value: np.ndarray) -> None:
        value = np.atleast_2d(value)
        mem = instr.mem_id
        if mem is MemId.NetQ:
            for vec in value:
                self.outputs.append(np.array(vec, dtype=np.float32))
        elif mem is MemId.Dram:
            for i, vec in enumerate(value):
                self.dram_vectors[instr.index + i] = \
                    np.array(vec, dtype=np.float32)
        else:
            self._vrf_slice(mem, instr.index, value.shape[0])[:] = value

    # -- mega-SIMD MVM ----------------------------------------------------

    def _mv_mul(self, instr, value: np.ndarray, rows: int,
                cols: int) -> np.ndarray:
        n = self.config.native_dim
        value = np.atleast_2d(value)
        if value.shape != (cols, n):
            raise ExecutionError(
                f"mv_mul expected {cols} input vector(s) of length {n}, "
                f"got shape {value.shape}")
        base = instr.index
        if base + rows * cols > self.config.mrf_address_space:
            raise MemoryError_("mv_mul tile window exceeds MRF")
        self.mv_mul_count += 1
        self.macs += rows * cols * n * n
        if self.exact:
            inputs = value.astype(np.float64)
            out = np.zeros((rows, n), dtype=np.float64)
            for r in range(rows):
                for c in range(cols):
                    tile = self.mrf[base + r * cols + c]
                    # Per-tile float64 matvec, column tiles in order:
                    # unquantized sums are order-sensitive.
                    out[r] += tile.astype(np.float64) @ inputs[c]
            return out.astype(np.float32)
        quantized = quantize_reference(value, self._fmt)
        bs = self._fmt.block_size
        nb = n // bs
        out = np.zeros((rows, n), dtype=np.float64)
        for r in range(rows):
            acc = [0.0] * n
            for c in range(cols):
                tile = self.mrf[base + r * cols + c]
                for i in range(n):
                    total = acc[i]
                    for k in range(nb):
                        # One scale-block dot: products share a single
                        # power-of-two scale, so float64 accumulation
                        # is exact in any order.
                        dot = 0.0
                        for j in range(k * bs, (k + 1) * bs):
                            dot += float(tile[i, j]) * float(quantized[c, j])
                        # Cross-block additions are inexact: reference
                        # order is (c, k) lexicographic.
                        total += dot
                    acc[i] = total
            out[r] = acc
        return _f16(out.astype(np.float32))

    # -- comparison ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Architectural state in the executor's snapshot schema."""
        return {
            "vrf": {mem.name: self.vrfs[mem].copy() for mem in _VRFS},
            "mrf": self.mrf.copy(),
            "dram_vectors": {k: v.copy()
                             for k, v in self.dram_vectors.items()},
            "dram_tiles": {k: v.copy()
                           for k, v in self.dram_tiles.items()},
            "outputs": [v.copy() for v in self.outputs],
            "netq_pending_inputs": len(self.netq_in),
            "netq_pending_tiles": len(self.netq_in_tiles),
            "scalar_regs": dict(self.scalar_regs),
        }

    def stats_dict(self) -> Dict[str, int]:
        return {
            "chains_executed": self.chains_executed,
            "instructions_executed": self.instructions_executed,
            "mv_mul_count": self.mv_mul_count,
            "macs": self.macs,
            "pointwise_flops": self.pointwise_flops,
        }


def _f16_unless(x: np.ndarray, exact: bool) -> np.ndarray:
    result = np.asarray(x, dtype=np.float32)
    return result if exact else _f16(result)
