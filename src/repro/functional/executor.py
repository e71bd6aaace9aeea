"""Functional (architectural-state) simulator of the BW NPU.

Executes :class:`repro.isa.program.NpuProgram` objects against the full
architectural state: vector register files, the matrix register file,
DRAM, the network queues, and the scalar control registers. Mega-SIMD
semantics follow Section IV-C: with ``rows=R`` and ``columns=C`` set, an
``mv_mul`` treats ``R*C`` consecutive MRF entries as a tiled R·N x C·N
matrix, the feeding ``v_rd`` reads C contiguous entries, point-wise ops
operate on R vectors, and terminal ``v_wr`` writes R contiguous entries.

Numerics model the hardware: MRF weights and MVM input vectors are
quantized to the configured BFP format with exact accumulation, and all
pipeline values are float16 — unless the simulator is built with
``exact=True``, which disables quantization for structural verification.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..config import NpuConfig
from ..errors import ExecutionError, MemoryError_
from ..isa.chain import InstructionChain
from ..isa.instructions import Instruction
from ..isa.memspace import MemId, ScalarReg
from ..isa.opcodes import Opcode
from ..isa.program import NpuProgram, SetScalar
from ..memory.dram import Dram
from ..memory.netq import NetworkQueues
from ..memory.regfile import MatrixRegisterFile, VectorRegisterFile
from ..numerics.bfp import (code_values, decode, decompose, quantize,
                             round_float16, scales_of)
from ..obs import Metrics, Tracer, or_null, or_null_metrics
from . import ops

#: Quantized MVM input vectors memoized per unique buffer content.
_INPUT_CACHE_SLOTS = 256
#: Derived (mantissa/float64) weight windows kept per simulator.
_DERIVED_WINDOW_SLOTS = 64
#: Compiled replay plans kept per simulator (one per resident program
#: binding — the serving model holds a handful of programs at most).
_PLAN_CACHE_SLOTS = 8


@dataclasses.dataclass
class ExecutionStats:
    """Dynamic execution statistics."""

    chains_executed: int = 0
    instructions_executed: int = 0
    mv_mul_count: int = 0
    #: Multiply-accumulate operations dispatched by mv_mul instructions.
    macs: int = 0
    #: FLOPs from point-wise vector operations.
    pointwise_flops: int = 0


class FunctionalSimulator:
    """Architecturally accurate executor for NPU programs."""

    def __init__(self, config: NpuConfig, exact: bool = False,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[Metrics] = None):
        """
        Args:
            config: The NPU instance to simulate.
            exact: Disable BFP/float16 quantization (float32 throughout);
                used for structural verification against references.
            tracer: Optional :class:`~repro.obs.Tracer` receiving
                per-chain and per-instruction spans. The functional
                simulator has no cycle clock, so the trace timebase is
                retired instruction count (one tick per instruction).
            metrics: Optional :class:`~repro.obs.Metrics` registry
                receiving per-opcode counters, MAC, and FLOP totals.
        """
        self.config = config
        self.tracer = or_null(tracer)
        self.metrics = or_null_metrics(metrics)
        #: Fast no-observer check: when False, per-instruction spans and
        #: counters are skipped entirely (the trace clock still advances).
        self._observing = self.tracer.enabled or self.metrics.enabled
        #: Pre-resolved per-opcode counters (avoids a string format and
        #: registry lookup per retired instruction).
        self._op_counters: Dict[str, object] = {}
        #: Chains whose MFU capacity check already passed (chain objects
        #: are immutable; loop replays revisit the same objects).
        self._validated_chains: set = set()
        #: Trace timebase: instructions retired so far.
        self._trace_clock = 0
        self.exact = exact or config.mantissa_bits == 0
        # Memoized quantized MVM input vectors, keyed by the exact buffer
        # bytes (safe: quantization is a pure function of value and
        # format), and derived per-window operands for the vectorized
        # mv_mul, keyed by window plus MRF generation.
        self._input_cache: "collections.OrderedDict[bytes, tuple]" = \
            collections.OrderedDict()
        self._derived_windows: "collections.OrderedDict[Tuple[int, int, int], tuple]" = \
            collections.OrderedDict()
        #: Compiled replay plans, keyed by (program uid, bindings, entry
        #: scalar registers); see :meth:`plan_for`.
        self._plans: "collections.OrderedDict[tuple, object]" = \
            collections.OrderedDict()
        #: Stacked weight operands of the plans' fused mv_mul groups,
        #: one per (member windows, columns) whatever the binding:
        #: key -> (MRF generation, operands, NaN-weight columns); see
        #: ``replay._MvGroup``.
        self._operand_stacks: Dict[tuple, tuple] = {}
        n = config.native_dim
        self.vrfs: Dict[MemId, VectorRegisterFile] = {
            MemId.InitialVrf: VectorRegisterFile(
                "InitialVrf", config.initial_vrf_depth, n),
            MemId.AddSubVrf: VectorRegisterFile(
                "AddSubVrf", config.addsub_vrf_depth, n),
            MemId.MultiplyVrf: VectorRegisterFile(
                "MultiplyVrf", config.multiply_vrf_depth, n),
        }
        self._bfp = None if self.exact else config.bfp_format
        self.mrf = MatrixRegisterFile("MatrixRf", config.mrf_address_space,
                                      n, fmt=self._bfp)
        self.dram = Dram(native_dim=n)
        self.netq = NetworkQueues(native_dim=n)
        self.scalar_regs: Dict[ScalarReg, int] = {
            ScalarReg.Rows: 1, ScalarReg.Columns: 1, ScalarReg.Iterations: 0,
        }
        self.stats = ExecutionStats()
        # MVM kernels operate on *segments*: a native row splits into
        # ``nb = N / block_size`` scale blocks, and a cols-wide window
        # becomes ``S = cols * nb`` segments of width ``block_size``,
        # ordered (c, k) lexicographic — the reference accumulation
        # order. With the paper's native-block formats nb == 1 and
        # segments coincide with column blocks.
        if self._bfp is not None:
            self._seg_width = self._bfp.block_size
            self._nb = n // self._seg_width
        else:
            self._seg_width = n
            self._nb = 1
        # The mantissa-GEMV fast path computes each scale-block dot
        # product as a float32 GEMV over integer mantissas (the hardware's
        # exact integer accumulation tree, Section V-A). It is exact —
        # hence bit-identical to the float64 reference — whenever every
        # partial sum fits float32's 24-bit integer range.
        self._mantissa_gemv = (
            not self.exact
            and self._seg_width * (self._bfp.max_mantissa ** 2)
            <= (1 << 24))
        # Narrower still: pack k mantissa rows into disjoint bit slots of
        # one float64 lane and recover the k exact integer dot products
        # from a single GEMV — halving weight traffic for the 2-3 bit
        # production formats (the hardware's narrow-precision bandwidth
        # multiplier, Section VI). Slot width w holds any block dot
        # (|dot| <= block_size*(2^mb-1)^2 <= 2^(w-1)-1) and k slots keep
        # every partial sum under float64's 53-bit exact-integer range.
        if not self.exact:
            block_dot_max = self._seg_width * (self._bfp.max_mantissa ** 2)
            self._pack_width = block_dot_max.bit_length() + 1
            k = 53 // self._pack_width
            self._pack_slots = k if k >= 3 else 0
        else:
            self._pack_width = 0
            self._pack_slots = 0

    # -- host-facing utilities ---------------------------------------------

    def load_matrix(self, base_tile: int, matrix: np.ndarray) -> int:
        """Pin ``matrix`` into the MRF starting at ``base_tile``.

        The matrix is zero-padded to native tile multiples and stored
        row-major by tile — tile ``(r, c)`` lands at ``base_tile + r*C + c``
        — matching ``mv_mul``'s mega-SIMD layout. The MRF quantizes the
        weights to the configured BFP format per native tile row on write
        (the hardware quantizes during initialization from the
        network/DRAM). Returns the number of tile slots consumed.

        This is the "initialize over the network" path condensed to one
        call; the explicit ISA path (``m_rd``/``m_wr`` chains) is also
        supported and equivalent.
        """
        tiles = self._tiles_of(matrix)
        count = tiles.shape[0]
        self.mrf.write_tiles(base_tile, tiles)
        return count

    def _tiles_of(self, matrix: np.ndarray) -> np.ndarray:
        n = self.config.native_dim
        matrix = np.asarray(matrix, dtype=np.float32)
        if matrix.ndim != 2:
            raise ExecutionError("load_matrix expects a 2-D array")
        rows = math.ceil(matrix.shape[0] / n)
        cols = math.ceil(matrix.shape[1] / n)
        padded = np.zeros((rows * n, cols * n), dtype=np.float32)
        padded[:matrix.shape[0], :matrix.shape[1]] = matrix
        # Tile (r, c) lands at slot r*cols + c: one reshape/transpose.
        return np.ascontiguousarray(
            padded.reshape(rows, n, cols, n)
            .transpose(0, 2, 1, 3)
            .reshape(rows * cols, n, n))

    def load_vector(self, mem: MemId, index: int,
                    vector: np.ndarray) -> int:
        """Write a flat vector into a VRF, padded to native multiples.

        Returns the number of VRF entries consumed.
        """
        n = self.config.native_dim
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        count = max(1, math.ceil(vector.shape[0] / n))
        padded = np.zeros(count * n, dtype=np.float32)
        padded[:vector.shape[0]] = vector
        self._vrf(mem).write(index, padded.reshape(count, n))
        return count

    def read_vector(self, mem: MemId, index: int, length: int) -> np.ndarray:
        """Read ``length`` elements starting at VRF entry ``index``."""
        n = self.config.native_dim
        count = math.ceil(length / n)
        data = self._vrf(mem).read(index, count).reshape(-1)
        return data[:length]

    def push_input(self, vector: np.ndarray) -> None:
        """Queue a flat input vector on the network, padded and split
        into native vectors."""
        n = self.config.native_dim
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        count = max(1, math.ceil(vector.shape[0] / n))
        padded = np.zeros(count * n, dtype=np.float32)
        padded[:vector.shape[0]] = vector
        for i in range(count):
            self.netq.push_input(padded[i * n:(i + 1) * n])

    def pop_outputs_flat(self) -> np.ndarray:
        """Drain the output queue into one flat array."""
        outs = self.netq.pop_outputs()
        if not outs:
            return np.zeros(0, dtype=np.float32)
        return np.concatenate(outs)

    def snapshot(self) -> Dict[str, object]:
        """Copy of the full architectural state, for conformance checks.

        The schema matches
        :meth:`repro.verify.reference.ReferenceInterpreter.snapshot`, so
        differential runners can compare executors field by field. The
        output queue is *not* drained, and no read counter moves.
        """
        return {
            "vrf": {mem.name: vrf._data.copy()
                    for mem, vrf in self.vrfs.items()},
            "mrf": self.mrf.snapshot(),
            "dram_vectors": {k: v.copy()
                             for k, v in self.dram._vectors.items()},
            "dram_tiles": {k: v.copy()
                           for k, v in self.dram._tiles.items()},
            "outputs": [v.copy() for v in self.netq._out_vectors],
            "netq_pending_inputs": self.netq.pending_inputs,
            "netq_pending_tiles": len(self.netq._in_tiles),
            "scalar_regs": dict(self.scalar_regs),
        }

    # -- execution -----------------------------------------------------------

    def run(self, program: NpuProgram,
            bindings: Optional[Dict[str, int]] = None,
            compiled: bool = False) -> ExecutionStats:
        """Execute ``program`` to completion; returns dynamic stats.

        With ``compiled=True`` the program is first compiled (and cached,
        see :meth:`plan_for`) into a flat replay plan and runs as one
        :class:`~repro.functional.replay.BatchedReplay` at B=1, whose
        :meth:`~repro.functional.replay.BatchedReplay.commit` writes the
        request's state back into this simulator. Architectural results,
        statistics, register-file counters, spans, and metric counters
        equal the interpreter's. A plan that is not batchable (a
        statically invalid event, or an ``m_wr`` to the MRF) is
        interpreted whole, so any error and its partial side effects are
        the interpreter's. Two divergences otherwise: a
        compiled run that raises commits nothing (state, statistics,
        counters, and the trace clock stay as they were before the run),
        and a missing loop binding raises before any event executes.
        """
        span = self.tracer.begin("run", float(self._trace_clock),
                                 track="executor")
        if compiled and self.plan_for(program, bindings).batchable:
            from .replay import BatchedReplay
            BatchedReplay(self, program, 1, bindings).run().commit()
        else:
            for event in program.events(bindings):
                if isinstance(event, SetScalar):
                    self._set_scalar(event)
                else:
                    self.execute_chain(event)
        self.tracer.end(span, float(self._trace_clock),
                        instructions=self.stats.instructions_executed,
                        chains=self.stats.chains_executed)
        return self.stats

    def plan_for(self, program: NpuProgram,
                 bindings: Optional[Dict[str, int]] = None):
        """Compiled replay plan for ``program``, cached on this simulator.

        The cache key covers everything compilation depends on: the
        program identity, the loop bindings, and the entry scalar
        registers (compile-time control folding). Plans survive MRF
        rewrites — pre-bound weight decompositions revalidate against the
        MRF generation counter on every execution.
        """
        from .replay import compile_plan
        key = (program.uid, tuple(sorted((bindings or {}).items())),
               self.scalar_regs[ScalarReg.Rows],
               self.scalar_regs[ScalarReg.Columns],
               self.scalar_regs[ScalarReg.Iterations])
        plan = self._plans.get(key)
        if plan is None:
            plan = compile_plan(self, program, bindings)
            self._plans[key] = plan
            if len(self._plans) > _PLAN_CACHE_SLOTS:
                while len(self._plans) > _PLAN_CACHE_SLOTS:
                    self._plans.popitem(last=False)
                live = {g.key for p in self._plans.values()
                        for g in p.groups}
                for stale in set(self._operand_stacks) - live:
                    del self._operand_stacks[stale]
        else:
            self._plans.move_to_end(key)
        return plan

    def _tick(self, name: str, **attrs) -> None:
        """Retire one instruction: advance the trace clock one tick and
        record the instruction span and opcode counter.

        With the null tracer and null metrics this is a single integer
        increment — no span allocation, no counter lookup.
        """
        t = self._trace_clock
        self._trace_clock = t + 1
        if not self._observing:
            return
        self.tracer.span(name, float(t), float(t) + 1.0, **attrs)
        counter = self._op_counters.get(name)
        if counter is None:
            counter = self.metrics.counter(f"executor.ops.{name}")
            self._op_counters[name] = counter
        counter.inc()

    def _set_scalar(self, event: SetScalar) -> None:
        if event.reg in (ScalarReg.Rows, ScalarReg.Columns) \
                and event.value < 1:
            raise ExecutionError(f"{event.reg.name} must be >= 1")
        self.scalar_regs[event.reg] = event.value
        self.stats.instructions_executed += 1
        self._tick("set_scalar", reg=event.reg.name, value=event.value)

    def execute_chain(self, chain: InstructionChain) -> None:
        """Execute one instruction chain against architectural state."""
        self.stats.chains_executed += 1
        self.stats.instructions_executed += len(chain) + 1  # + end_chain
        if not self._observing:
            if chain.is_matrix_chain:
                self._execute_matrix_chain(chain)
            else:
                self._execute_vector_chain(chain)
            self._trace_clock += 1  # end_chain
            return
        span = self.tracer.begin(
            "chain", float(self._trace_clock), track="executor",
            matrix=chain.is_matrix_chain, instructions=len(chain) + 1)
        if chain.is_matrix_chain:
            self._execute_matrix_chain(chain)
        else:
            self._execute_vector_chain(chain)
        self._tick("end_chain")
        self.tracer.end(span, float(self._trace_clock))
        self.metrics.counter("executor.chains").inc()

    # -- matrix chains ------------------------------------------------------

    def _execute_matrix_chain(self, chain: InstructionChain) -> None:
        rows = self.scalar_regs[ScalarReg.Rows]
        cols = self.scalar_regs[ScalarReg.Columns]
        count = rows * cols
        observing = self._observing
        rd, wr = chain.instructions
        if rd.mem_id is MemId.NetQ:
            tiles = self.netq.pop_input_tiles(count)
        else:
            tiles = self.dram.read_tiles(rd.index, count)
        if observing:
            self._tick(rd.opcode.name.lower(), mem=rd.mem_id.name,
                       index=rd.index, tiles=count)
        else:
            self._trace_clock += 1
        if wr.mem_id is MemId.MatrixRf:
            # The MRF quantizes weights as it stores them, per native row.
            self.mrf.write_tiles(wr.index, tiles)
        else:
            self.dram.write_tiles(wr.index, tiles)
        if observing:
            self._tick(wr.opcode.name.lower(), mem=wr.mem_id.name,
                       index=wr.index, tiles=count)
            self.metrics.counter("executor.tiles_moved").inc(count)
        else:
            self._trace_clock += 1

    # -- vector chains ------------------------------------------------------

    def _execute_vector_chain(self, chain: InstructionChain) -> None:
        if id(chain) not in self._validated_chains:
            chain.assign_function_units(self.config.mfus)  # capacity check
            self._validated_chains.add(id(chain))
        rows = self.scalar_regs[ScalarReg.Rows]
        cols = self.scalar_regs[ScalarReg.Columns]
        width_in = cols if chain.has_mv_mul else rows
        observing = self._observing

        head = chain.source
        value = self._read_vectors(head, width_in)
        # The head read skips the defensive copy, so `value` may alias a
        # VRF until the first compute op replaces it; a v_wr overlapping
        # the aliased entries must materialize the copy first.
        view_range = (head.mem_id, head.index, width_in) \
            if head.mem_id in self.vrfs else None
        if observing:
            self._tick(head.opcode.name.lower(),
                       mem=head.mem_id.name if head.mem_id else None,
                       index=head.index, vectors=width_in)
        else:
            self._trace_clock += 1

        for instr in chain.instructions[1:]:
            if instr.opcode is Opcode.MV_MUL:
                value = self._mv_mul(instr, value, rows, cols)
                view_range = None
            elif instr.opcode in ops.BINARY_KERNELS:
                operand = self._pointwise_operand(instr, rows)
                kernel = ops.BINARY_KERNELS[instr.opcode]
                value = kernel(value, operand, exact=self.exact)
                view_range = None
                self.stats.pointwise_flops += value.size
                if observing:
                    self.metrics.counter("executor.pointwise_flops") \
                        .inc(value.size)
            elif instr.opcode in ops.UNARY_KERNELS:
                kernel = ops.UNARY_KERNELS[instr.opcode]
                value = kernel(value, exact=self.exact)
                view_range = None
                self.stats.pointwise_flops += value.size
                if observing:
                    self.metrics.counter("executor.pointwise_flops") \
                        .inc(value.size)
            elif instr.opcode is Opcode.V_WR:
                if (view_range is not None
                        and instr.mem_id is view_range[0]
                        and instr.index < view_range[1] + view_range[2]
                        and view_range[1] < instr.index + width_in):
                    value = value.copy()
                    view_range = None
                self._write_vectors(instr, value)
            else:  # pragma: no cover - chain validation prevents this
                raise ExecutionError(f"unexpected opcode {instr.opcode}")
            if observing:
                self._tick(instr.opcode.name.lower(),
                           mem=instr.mem_id.name if instr.mem_id else None,
                           index=instr.index)
            else:
                self._trace_clock += 1

    def _vrf(self, mem: MemId) -> VectorRegisterFile:
        if mem not in self.vrfs:
            raise MemoryError_(f"{mem.name} is not a vector register file")
        return self.vrfs[mem]

    def _read_vectors(self, instr: Instruction, count: int) -> np.ndarray:
        mem = instr.mem_id
        if mem is MemId.NetQ:
            return self.netq.pop_input(count)
        if mem is MemId.Dram:
            return self.dram.read_vectors(instr.index, count)
        return self._vrf(mem).read(instr.index, count, copy=False)

    def _write_vectors(self, instr: Instruction, value: np.ndarray) -> None:
        value = np.atleast_2d(value)
        mem = instr.mem_id
        if mem is MemId.NetQ:
            self.netq.push_output(value)
        elif mem is MemId.Dram:
            self.dram.write_vectors(instr.index, value)
        else:
            self._vrf(mem).write(instr.index, value)

    def _pointwise_operand(self, instr: Instruction, rows: int) -> np.ndarray:
        if instr.opcode is Opcode.VV_MUL:
            return self._vrf(MemId.MultiplyVrf).read(instr.index, rows,
                                                     copy=False)
        return self._vrf(MemId.AddSubVrf).read(instr.index, rows, copy=False)

    def _mv_mul(self, instr: Instruction, value: np.ndarray,
                rows: int, cols: int) -> np.ndarray:
        n = self.config.native_dim
        value = np.atleast_2d(value)
        if value.shape != (cols, n):
            raise ExecutionError(
                f"mv_mul expected {cols} input vector(s) of length {n}, "
                f"got shape {value.shape}")
        base = instr.index
        if base + rows * cols > self.config.mrf_address_space:
            raise MemoryError_(
                f"mv_mul tile window [{base}, {base + rows * cols}) "
                f"exceeds MRF address space "
                f"{self.config.mrf_address_space}")
        out = self._mv_mul_vectorized(base, value, rows, cols)
        self.stats.mv_mul_count += 1
        self.stats.macs += rows * cols * n * n
        if self._observing:
            self.metrics.counter("executor.macs").inc(rows * cols * n * n)
        result = out.astype(np.float32)
        return result if self.exact else round_float16(result)

    def _mv_mul_vectorized(self, base: int, value: np.ndarray,
                           rows: int, cols: int) -> np.ndarray:
        """Vectorized mega-SIMD MVM over a weight window's derived operands.

        Bit-identical by construction to the reference interpreter's
        per-tile loop (:mod:`repro.verify.reference`), which accumulates
        one float64 dot product per (row, column) tile and scale-block
        segment in (c, k) order:

        * **Quantized path** — weights and inputs are BFP values
          ``m * 2^e`` with integer mantissas ``|m| <= 2^mb - 1``. Each
          scale-block dot product is an integer dot scaled by a power of
          two, so every float64 partial sum in the reference loop is
          *exact*. The fast path computes the integer dots with one
          float32 GEMV per segment (exact while
          ``block_size * (2^mb - 1)^2 <= 2^24`` — the hardware's integer
          accumulation tree, Section V-A), rescales in float64 (exact
          products), and accumulates segments in the same (c, k) order
          as the reference loop: every partial sum matches bit for bit.
        * **Exact/wide path** — per-tile float64 matvecs batched as one
          stacked GEMV per segment, accumulated in the reference
          segment order; the per-element dot and add sequence is the
          same as the reference loop's.
        """
        n = self.config.native_dim
        segs = cols * self._nb
        if self._pack_slots:
            x_mant, x_scales = self._quantized_input(value)
            w_packed, w_scales, nan_rows = self._window_operands(
                base, rows, cols)
            # One batched GEMV per segment yields the k-packed exact
            # integer block dots; unpack all segments at once, then
            # accumulate the per-segment terms in the reference order
            # (c, k) = (0, 0), (0, 1), ...
            packed = np.matmul(w_packed, x_mant[:, :, np.newaxis])[:, :, 0]
            dots = self._unpack(packed, rows * n)
            terms = dots * (w_scales * x_scales)
            acc = terms[0]
            if segs > 1:
                acc = terms[0] + terms[1]
                for s in range(2, segs):
                    acc += terms[s]
            acc[nan_rows] = np.nan
            return acc.reshape(rows, n)
        if self._mantissa_gemv:
            x_mant, x_scales = self._quantized_input(value)
            w_mant, w_scales, nan_rows = self._window_operands(
                base, rows, cols)
            # acc accumulates the exact per-segment terms in the
            # reference order (c, k) = (0, 0), (0, 1), ...
            acc = ((w_mant[0] @ x_mant[0]).astype(np.float64)
                   * (w_scales[0] * x_scales[0]))
            for s in range(1, segs):
                acc += ((w_mant[s] @ x_mant[s]).astype(np.float64)
                        * (w_scales[s] * x_scales[s]))
            acc[nan_rows] = np.nan
            return acc.reshape(rows, n)
        if self.exact:
            inputs = value.astype(np.float64)
        else:
            inputs = self._quantized_input_f64(value) \
                .reshape(segs, self._seg_width)
        blocks = self._window_operands(base, rows, cols)
        acc = blocks[0] @ inputs[0]
        for s in range(1, segs):
            acc += blocks[s] @ inputs[s]
        return acc.reshape(rows, n)

    # -- mv_mul operand caches ----------------------------------------------

    def _quantized_input(self, value: np.ndarray) -> tuple:
        """BFP-decomposed input vectors: float32 mantissas (S, block)
        and float64 per-segment scales (S, 1), memoized on buffer
        content, with ``S = cols * nb`` segments in (c, k) order.

        Safe because quantization is a pure function of the bytes and the
        (fixed) format; weights need no such cache — they quantize once,
        when the MRF stores their codes.
        """
        entry = self._input_lookup(value)
        if entry[0] is None:
            value = entry[2]
            mant, exps = decompose(value, self._bfp)
            if self._pack_slots:
                mant = mant.astype(np.float64)  # packed path runs f64 GEMVs
            segs = value.shape[0] * self._nb
            mant = mant.reshape(segs, self._seg_width)
            scales = scales_of(exps, self._bfp).reshape(segs, 1)
            entry[0] = (mant, scales)
        return entry[0]

    def _quantized_input_f64(self, value: np.ndarray) -> np.ndarray:
        """Quantized input vectors as float64 (wide-mantissa fallback)."""
        entry = self._input_lookup(value)
        if entry[1] is None:
            entry[1] = quantize(entry[2], self._bfp).astype(np.float64)
        return entry[1]

    def _input_lookup(self, value: np.ndarray) -> list:
        """LRU entry ``[mantissa_decomposition, f64_values, value_copy]``
        for the exact bytes of ``value``."""
        key = value.tobytes()
        entry = self._input_cache.get(key)
        if entry is None:
            entry = [None, None, np.array(value, dtype=np.float32)]
            self._input_cache[key] = entry
            while len(self._input_cache) > _INPUT_CACHE_SLOTS:
                self._input_cache.popitem(last=False)
        else:
            self._input_cache.move_to_end(key)
        return entry

    def _window_operands(self, base: int, rows: int, cols: int):
        """This simulator's ``mv_mul`` operands for a weight window,
        cached against the MRF generation.

        The mantissa-GEMV modes get the ``(mantissas, scales, nan_rows)``
        that :func:`window_operands` builds from the MRF codes; the
        float64/exact mode gets the :func:`window_blocks_f64` stack of
        the float32 tiles. Every call counts the ``rows * cols`` MRF tile
        reads of the ``mv_mul``, hit or not.
        """
        mrf = self.mrf
        if self.exact:
            stored = mrf.read_tiles(base, rows * cols, copy=False)
        else:
            stored = mrf.read_codes(base, rows * cols)
        key = (base, rows, cols)
        entry = self._derived_windows.get(key)
        if entry is not None and entry[0] == mrf.generation:
            self._derived_windows.move_to_end(key)
            return entry[1]
        k = self._pack_slots
        if not (k or self._mantissa_gemv):
            tiles = stored if self.exact else decode(*stored, self._bfp)
            operands = window_blocks_f64(tiles, cols, self._seg_width)
        else:
            segs, r = cols * self._nb, rows * self.config.native_dim
            mant = np.empty((segs, -(-r // (k or 1)), self._seg_width),
                            dtype=np.float64 if k else np.float32)
            scales = np.empty((segs, r))
            operands = (mant, scales, window_operands(
                *stored, cols, self._bfp, k, self._pack_width, mant, scales))
        self._derived_windows[key] = (mrf.generation, operands)
        while len(self._derived_windows) > _DERIVED_WINDOW_SLOTS:
            self._derived_windows.popitem(last=False)
        return operands

    def _unpack(self, packed_dots: np.ndarray, count: int) -> np.ndarray:
        """Recover the k exact integer block dots from packed dots.

        ``packed_dots`` is (cols, G); returns (cols, count). Rounding
        ``p / 2^(w*(k-1-t))`` isolates the slot-t *prefix* exactly — the
        slots below it sum to strictly less than half a unit (each |dot|
        <= 2^(w-1) - 1) — and adjacent prefixes difference to the slot
        values. Every product and difference stays in float64's exact
        integer range by the packing bound.
        """
        k, w = self._pack_slots, self._pack_width
        inv = np.exp2(-w * (k - 1 - np.arange(k, dtype=np.float64)))
        prefixes = np.rint(packed_dots[:, np.newaxis, :] *
                           inv[np.newaxis, :, np.newaxis])
        dots = prefixes
        dots[:, 1:] -= prefixes[:, :-1] * float(np.exp2(w))
        # A negative lane whose top-slot dot is 0 rounds to -0.0; the
        # integer dot is +0.0 (the other slots' differences already are).
        np.add(dots[:, 0], 0.0, out=dots[:, 0])
        cols, _, groups = dots.shape
        return dots.transpose(0, 2, 1).reshape(cols, groups * k)[:, :count]


def window_operands(codes: np.ndarray, exponents: np.ndarray, cols: int,
                    bfp, pack_slots: int, pack_width: int,
                    mant_out: np.ndarray, scales_out: np.ndarray
                    ) -> np.ndarray:
    """Build a weight window's mantissa-GEMV operands from its MRF codes.

    ``codes`` and ``exponents`` are the window's run of ``rows * cols``
    tiles as :meth:`~repro.memory.regfile.MatrixRegisterFile.read_codes`
    serves them, tile ``(r, c)`` at ``r * cols + c``. Segment
    ``s = c * nb + j`` is scale block ``j`` of tile column ``c`` (the
    reference (c, k) order), one exponent per row. Writes float64
    scales (S, rows*N) into ``scales_out`` and the mantissas, looked up
    from the codes (:func:`~repro.numerics.bfp.code_values`), into
    ``mant_out``: float32 (S, rows*N, block), or with ``pack_slots``
    k > 0, k rows per float64 lane (S, ceil(rows*N/k), block). The
    interpreter passes fresh arrays; a fused replay group passes its
    member's slices of one stacked array, so the engines agree bit for
    bit.

    A NaN code enters the mantissas as 0 and is returned instead: the
    ascending indices (into the window's rows*N output rows) of the
    rows holding a NaN weight. The reference makes such a row NaN for
    any input (NaN x 0 is NaN) and leaves the other rows alone, so the
    caller sets these rows of its result to NaN; left in a packed lane,
    the NaN would poison the dots of all k rows sharing it.
    """
    n = codes.shape[-1]
    b = bfp.block_size
    nb = n // b
    rows = codes.shape[0] // cols
    r = rows * n
    codes = codes.reshape(rows, cols, n, nb, b)
    scales = scales_of(exponents.astype(np.int32) + bfp.min_exponent,
                       bfp).reshape(rows, cols, n, nb)
    values = code_values(bfp)
    values = np.where(np.isnan(values), np.float32(0.0), values)
    nan = np.zeros(r, dtype=bool)
    k = pack_slots
    if k:
        # Row g*k + t lands in bit slot w*(k-1-t) of packed row g: one
        # table per slot holds every code's mantissa times 2^(w(k-1-t)).
        # Slot values stay integers below 2^(w-1) through the GEMV, so
        # the packed dot product is the exact sum of k disjoint slot
        # dots, which FunctionalSimulator._unpack recovers.
        slot_values = values.astype(np.float64) * np.exp2(
            pack_width * (k - 1 - np.arange(k, dtype=np.float64)))[:, None]
    for s in range(cols * nb):
        c, j = divmod(s, nb)
        scales_out[s] = scales[:, c, :, j].reshape(r)
        seg = codes[:, c, :, j].reshape(r, b)
        nan |= _holds_nan_code(seg)
        if not k:
            values.take(seg, out=mant_out[s])
            continue
        packed = mant_out[s]
        packed[...] = 0.0  # so an all-zero lane packs as +0.0
        for t in range(k):
            part = seg[t::k]
            packed[:len(part)] += slot_values[t].take(part)
    return np.flatnonzero(nan)


def _holds_nan_code(seg: np.ndarray) -> np.ndarray:
    """Which rows of an (r, block) array of code words hold a NaN code,
    by two row maxima instead of a lookup per code. A NaN code is the
    all-ones magnitude: with the sign bit the largest word, without it
    the largest word read as a signed integer."""
    signed = seg.view(np.dtype(f"i{seg.itemsize}"))
    return ((seg.max(axis=1) == np.iinfo(seg.dtype).max)
            | (signed.max(axis=1) == np.iinfo(signed.dtype).max))


def window_blocks_f64(tiles: np.ndarray, cols: int,
                      seg_width: int) -> np.ndarray:
    """Float64 segment stack (S, rows*N, block) of a weight window,
    from its MRF tiles (float64/exact mode; with nb == 1 it is the
    column-block stack (cols, rows*N, N))."""
    n = tiles.shape[-1]
    nb = n // seg_width
    rows = tiles.shape[0] // cols
    return np.ascontiguousarray(
        tiles.reshape(rows, cols, n, nb, seg_width).transpose(1, 3, 0, 2, 4),
        dtype=np.float64).reshape(cols * nb, rows * n, seg_width)
