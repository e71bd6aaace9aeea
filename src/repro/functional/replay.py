"""Compiled program replay: flat execution plans over a resident model.

The functional executor interprets an :class:`~repro.isa.program.NpuProgram`
event by event — every timestep of an RNN re-decodes the same operand
indices, re-validates the same chains, and re-hashes the same weight
windows through the LRU caches. For the paper's serving model (one
resident model, a stream of low-latency requests) that per-dispatch
Python overhead dominates once the numeric kernels are vectorized.

This module compiles a program **once** into a flat :class:`ReplayPlan`:

* loops unrolled into a linear step list, scalar control flow folded to
  compile-time constants (``s_wr`` becomes a static plan entry);
* operand addresses resolved and bounds-checked at compile time, so a
  step indexes register-file slices with no decode or validation;
* ``mv_mul`` weight windows pre-decomposed into the executor's BFP
  operand layout, revalidated cheaply against the MRF ``generation``
  counter so ``load_matrix`` (or an interpreted ``m_wr``) between runs
  recompiles nothing but rebinds the weights;
* consecutive ``mv_mul`` chains reading the *same* VRF head fused into
  one stacked GEMV (:class:`_MvGroup`) — the LSTM's four gate matrices
  against one input vector become one matmul — legal only on the
  exact-integer mantissa paths, where the stacked dot products are
  bit-identical to the per-chain ones;
* pointwise ops that a group's members go on with, the same kernel
  over VRF rows laid out in member order — the LSTM's four gate adds,
  three of its sigmoids — run as one wide piece over the group's
  stacked output where a static alias check allows
  (:func:`_plan_fusion`);
* ``mv_mul`` groups whose input never depends on the recurrence — every
  occurrence reads a known slot of the network input queue, like an
  RNN's ``x_t * W`` — marked for *hoisting* (``ReplayPlan.hoists``,
  :func:`_plan_hoists`): they run for all timesteps in one GEMM per
  segment before the first step;
* a group's stacked operands kept without the all-zero lanes and, per
  segment, the all-zero columns that native-tile padding leaves,
  when what remains fits one core's L2 (:func:`_trim`).

:class:`BatchedReplay` is the one executor. It runs B independent
requests through a plan by stacking every piece of architectural state
along a new leading batch axis; the quantize, GEMM, and pointwise
kernels all vectorize batch-wise, and on the exact-integer paths the
batched results are bit-identical to B sequential runs. A sequential
``FunctionalSimulator.run(compiled=True)`` is a :class:`BatchedReplay`
at B=1 followed by :meth:`BatchedReplay.commit`, which writes the
request's state back into the simulator and applies the plan's static
totals (statistics, register-file counters, the trace clock). With a
tracer or metrics sink attached, the commit retires each step's static
``ticks`` through the simulator, emitting the interpreter's spans and
counters in the interpreter's order.

Bit-exactness contract (checked by the three-way differential fuzzer
in :mod:`repro.verify` and by ``tests/test_replay_equivalence.py``):
compiled output state, outputs, ``ExecutionStats``, op counters, and
trace spans equal the vectorized interpreter's exactly. Two kinds of
event make the plan unbatchable, and ``ReplayPlan.fallback_step_kinds``
names it and every event after it. One is a statically invalid
construct (an out-of-bounds operand, an over-capacity chain,
``rows``/``columns`` below 1): it and the events after it are
unreachable on a successful run. The other is an ``m_wr`` to the MRF:
every request of a batch shares one MRF, as a serving node pins its
model's weights once (paper §IV), so only activations are per request.
``run(compiled=True)`` interprets such a plan whole, so error types,
positions, and partial side effects match the interpreter by
construction; :class:`BatchedReplay` rejects it with
:class:`~repro.errors.UnbatchablePlanError`. One intentional
divergence: a batchable compiled run that raises (a short input queue,
a DRAM entry never written) commits nothing, so the simulator's state,
statistics, counters, and trace clock stay as they were before the
run, where the interpreter keeps the effects of the events before the
error. Differential comparisons only inspect state when no engine
raised.
"""

from __future__ import annotations

import collections
import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ChainCapacityError, ExecutionError, MemoryError_, \
    NetworkQueueEmptyError, UnbatchablePlanError
from ..isa.chain import InstructionChain
from ..isa.memspace import MemId, ScalarReg
from ..isa.opcodes import Opcode
from ..isa.program import NpuProgram, SetScalar
from ..numerics.bfp import decompose, round_float16, scales_of
from . import ops
from .executor import window_blocks_f64, window_operands

# Piece kinds inside a compiled vector step (dispatch tags).
_MV, _BIN, _UN, _WR_VRF, _WR_NETQ, _WR_DRAM = range(6)
# Head kinds.
_H_VRF, _H_NETQ, _H_DRAM = range(3)
# mv_mul compute modes (mirror the executor's fast-path selection).
_MODE_PACKED, _MODE_MANTISSA, _MODE_F64 = range(3)


#: Rows (requests, or hoisted occurrence x request pairs) per chunk of
#: the batched ``mv_mul`` epilogue. Fixes each group's unpack scratch at
#: about 2 * segs * _EPILOGUE_ROWS * padded_rows float64 values,
#: whatever the batch size or the number of hoisted timesteps.
_EPILOGUE_ROWS = 8

#: Up to this many input rows, :meth:`_MvGroup.apply_rows` runs one GEMV
#: per row and segment instead of one GEMM per segment: OpenBLAS's GEMM
#: repacks the whole weight panel on every call. Measured on a 2-vCPU
#: Xeon (h=1024 LSTM on BW_S10, T=25, a 3.84 MB panel per segment,
#: medians of 6 interleaved dispatches), BLAS threads unset as in the
#: end-to-end benchmark: B=2 took 42.1 ms with GEMVs against 50.8 ms
#: with GEMMs, B=3 51.5 against 55.8 ms, B=4 82.3 against 72.2 ms.
#: With one BLAS thread GEMVs won at B=2 (56.2 against 63.7 ms) and
#: lost at B=3 (81.0 against 75.9 ms).
_GEMV_MAX_ROWS = 3

#: Bytes up to which a group's packed or mantissa weight stack is kept
#: without its all-zero lanes and per-segment all-zero columns
#: (:func:`_trim`): one core's L2, 2 MiB on the 2-vCPU Xeon the
#: end-to-end benchmark runs on. Measured there, BLAS threads unset,
#: medians of 400 back-to-back float64 GEMV sets: GRU h=512's x*W stack
#: on BW_S10 (2 x 600 x 400 lanes, 3.84 MB) took 180-182 us, trimmed
#: to 384 x (400 + 112) (1.57 MB, L2-resident) 43-46 us. Past the bound
#: trimming loses: OpenBLAS runs a dgemv of fewer than 460,800 elements
#: on one thread (1,151 x 400 in 163-169 us, 1,152 x 400 in 56-63 us),
#: so LSTM h=1024's U stack (3 x 1,200 x 400, 11.52 MB) went from
#: 288-290 us padded to 396-404 us trimmed to 1,024 lanes (8.39 MB).
_TRIM_MAX_BYTES = 2 << 20


class _MvGroup:
    """One stacked mega-SIMD MVM shared by one or more fused chains.

    Members are consecutive ``mv_mul`` chains reading the same VRF head
    with the same column count; their weight operands are stacked
    along the output-row axis so one GEMV per column block yields every
    member's block dots. Stacking is exact on the packed and
    mantissa-GEMV paths (integer dot products are order-insensitive),
    so member outputs are bit-identical to per-chain execution; the
    float64/exact path keeps one member per group.

    Stacked operands live on the simulator, keyed by ``key`` (the
    member windows and the column count), so the plans of every loop
    binding share one copy. They are checked against the MRF
    ``generation`` counter:
    :meth:`~repro.functional.FunctionalSimulator.load_matrix` or an
    interpreted ``m_wr`` between compiled runs rebinds the weights on
    the next compute — the plan-cache invalidation required when matrix
    registers are rewritten. A stack small enough to fit one core's L2
    once its padding is gone is kept without it (:func:`_trim`).

    ``fused`` holds the pointwise pieces that member 0's step runs over
    the stacked output for a leading run of members at once
    (:func:`_plan_fusion`); each member's step then goes on from
    ``values[member]`` with the rest of its own pieces.
    """

    __slots__ = ("mode", "members", "key", "cols", "segs", "seg_width",
                 "nb", "n", "offsets", "padded_offsets", "starts",
                 "row_offsets", "groups_total", "width", "elided_rows",
                 "_generation", "_operands", "_nan_columns",
                 "_scratch_generation", "_scratch", "outputs", "fused",
                 "values")

    def __init__(self, sim, members: List[Tuple[int, int]], cols: int):
        self.members = tuple(members)  # (mrf_base, rows) per member
        self.cols = cols
        self.key = (self.members, cols)
        # Segment view: a native row splits into nb scale blocks, so a
        # cols-wide window has S = cols*nb GEMV segments in the
        # executor's (c, k) reference order (nb == 1 for native-block
        # formats, where segments are exactly the column blocks).
        self.nb = sim._nb
        self.seg_width = sim._seg_width
        self.segs = cols * sim._nb
        self.n = sim.config.native_dim
        if sim._pack_slots:
            self.mode = _MODE_PACKED
        elif sim._mantissa_gemv:
            self.mode = _MODE_MANTISSA
        else:
            self.mode = _MODE_F64
        n = self.n
        offsets, off = [], 0
        padded_offsets, poff = [], 0
        row_offsets = [0]
        k = sim._pack_slots or 1
        for _, rows in self.members:
            offsets.append(off)
            off += rows * n
            padded_offsets.append(poff)
            poff += -(-(rows * n) // k) * k
            row_offsets.append(row_offsets[-1] + rows)
        self.offsets = tuple(offsets)
        self.padded_offsets = tuple(padded_offsets)
        #: Column where each member's values start in :attr:`outputs`.
        self.starts = self.padded_offsets if self.mode == _MODE_PACKED \
            else self.offsets
        #: Vector-row offsets of the members in the stacked output,
        #: valid when the members sit back to back (see _plan_fusion).
        self.row_offsets = tuple(row_offsets)
        self.groups_total = poff // k
        #: Columns of :meth:`apply_rows`' output (padded when packed).
        self.width = poff
        #: All-zero input rows :meth:`apply_rows` answered without the
        #: weights (a count kept for the differential fuzzer).
        self.elided_rows = 0
        self._generation = None
        self._operands = None
        self._nan_columns = None
        self._scratch_generation = None
        self._scratch = None
        #: (B, columns) float32 outputs of the last compute, member m
        #: at columns ``starts[m]`` on.
        self.outputs = None
        self.fused = ()
        self.values = None

    @property
    def trimmed(self) -> Tuple[int, int]:
        """(lanes, columns) of padding the current operand stack
        dropped (:func:`_trim`; lanes of k output rows when packed, and
        columns counted per segment); (0, 0) before the first compute."""
        if self.mode == _MODE_F64 or self._operands is None \
                or self._operands[3] is None:
            return 0, 0
        w_stack = self._operands[0]
        return (self.groups_total - w_stack[0].shape[0],
                self.segs * self.seg_width
                - sum(w.shape[1] for w in w_stack))

    # -- operand binding ---------------------------------------------------

    def _refresh(self, sim, operands):
        """(Re)derive the members' weight operands straight from the MRF
        codes with the interpreter's own :func:`window_operands`, each
        member into its rows of one stack, or in float64/exact mode the
        one member's :func:`window_blocks_f64` of its float32 tiles.

        Packed members start at their padded offsets; padding rows carry
        zero scales, so their terms vanish exactly. The stack is then
        trimmed (:func:`_trim`). A previous padded stack (``operands``)
        takes the new one in place; a trimmed one does when the live
        shape is unchanged. Returns the operands and the output columns
        of the members' NaN-weight rows (``None`` in float64/exact mode,
        whose blocks keep the NaNs).
        """
        mrf, cols = sim.mrf, self.cols
        if self.mode == _MODE_F64:
            base, rows = self.members[0]
            return window_blocks_f64(mrf.read_tiles(base, rows * cols,
                                                    copy=False),
                                     cols, self.seg_width), None
        k = sim._pack_slots or 1
        if operands is None or operands[3] is not None:
            w_stack = np.empty(
                (self.segs, self.groups_total, self.seg_width),
                dtype=np.float64 if self.mode == _MODE_PACKED
                else np.float32)
            scales = np.zeros((self.segs, self.groups_total * k))
        else:
            w_stack, scales = operands[:2]
        nan_columns = []
        for (base, rows), start in zip(self.members, self.padded_offsets):
            r = rows * self.n
            nan_columns.append(start + window_operands(
                *mrf.read_codes(base, rows * cols), cols, sim._bfp,
                sim._pack_slots, sim._pack_width,
                w_stack[:, start // k:(start + r + k - 1) // k],
                scales[:, start:start + r]))
        return (_trim(w_stack, scales, k, operands),
                np.concatenate(nan_columns))

    def _bound_operands(self, sim):
        """Stacked operands for the current MRF generation, from the
        simulator's ``_operand_stacks`` (one per ``key``), derived there
        on the first compute after an MRF write.

        Re-deriving them leaves ``sim.mrf.reads`` untouched: the
        architectural tile reads of every ``mv_mul`` are part of the
        plan's static totals, applied by :meth:`BatchedReplay.commit`.
        """
        mrf = sim.mrf
        if self._generation != mrf.generation:
            entry = sim._operand_stacks.get(self.key)
            if entry is None or entry[0] != mrf.generation:
                reads = mrf.reads
                entry = (mrf.generation, *self._refresh(
                    sim, entry[1] if entry is not None else None))
                sim._operand_stacks[self.key] = entry
                mrf.reads = reads
            self._generation, self._operands, self._nan_columns = entry
        return self._operands

    def _packed_scratch(self, w_scales: np.ndarray, k: int,
                        width: int) -> tuple:
        """Persistent work buffers for the batched packed epilogue.

        Unpacking k slot dots per float64 lane churns several
        (segs, rows, k, groups) temporaries; allocating them once and
        writing through ``out=`` keeps the epilogue off the allocator
        (large numpy temporaries are mmap-backed, so fresh ones fault in
        pages every call). Sized for :data:`_EPILOGUE_ROWS` rows, so
        neither the batch size nor a hoisted sequence length changes
        them; rebuilt only when the weight scales (MRF generation) do.
        """
        if self._scratch_generation != self._generation:
            segs = self.segs
            gp = w_scales.shape[1] // k  # live lanes
            rows = _EPILOGUE_ROWS
            # Scale layout matching the unpack layout: slot t of packed
            # group g is unpadded row g*k + t.
            ws_kgp = np.ascontiguousarray(
                w_scales.reshape(segs, gp, k).transpose(0, 2, 1))
            self._scratch = (
                ws_kgp,
                np.empty((segs, rows, gp)),         # packed GEMM out
                np.empty((segs, rows, k, gp)),      # slot prefixes
                np.empty((segs, rows, k, gp)),      # slot dots
                np.empty((rows, k, gp)),            # segment accumulator
                # Slot t's prefix is packed / 2^(w*(k-1-t)).
                np.exp2(-width * (k - 1 - np.arange(k, dtype=np.float64))),
            )
            self._scratch_generation = self._generation
        return self._scratch

    def _f64_member(self, sim, value: np.ndarray, blocks: np.ndarray,
                    rows: int) -> np.ndarray:
        """Single-member float64/exact MVM (mirrors the interpreter's
        stacked-f64 fallback, including the finishing rounds)."""
        if sim.exact:
            inputs = value.astype(np.float64)
        else:
            inputs = sim._quantized_input_f64(value) \
                .reshape(self.segs, self.seg_width)
        acc = blocks[0] @ inputs[0]
        for s in range(1, self.segs):
            acc += blocks[s] @ inputs[s]
        out = acc.astype(np.float32)
        return out if sim.exact else round_float16(out)

    # -- batched compute ---------------------------------------------------

    def compute_batched(self, bstate, value: np.ndarray) -> None:
        """Compute all members for a (B, cols, N) head stack.

        A group hoisted out of the time loop (``ReplayPlan.hoists``)
        only advances its cursor over the outputs :class:`BatchedReplay`
        computed for every occurrence at the start of the run. Otherwise
        the shared stacked operands go through one batched GEMM
        (:meth:`apply_rows`), or in float64/exact mode one MVM per
        request.
        """
        hoisted = bstate._hoisted.get(self)
        if hoisted is not None:
            occurrence = hoisted[1]
            hoisted[1] = occurrence + 1
            self.outputs = hoisted[0][occurrence]
            return
        sim = bstate.sim
        if self.mode == _MODE_F64:
            blocks = self._bound_operands(sim)
            rows = self.members[0][1]
            self.outputs = np.stack([
                self._f64_member(sim, value[b], blocks, rows)
                for b in range(bstate.batch)])
            return
        self.outputs = self.apply_rows(sim, value)

    def start_members(self, bstate, exact: bool) -> None:
        """Run the fused pieces over the stacked outputs and leave each
        member's (B, rows, N) starting value in :attr:`values`.

        A piece covers the leading ``count`` members; a member outside
        it keeps the value it had, and its step runs the rest.
        """
        out, n = self.outputs, self.n
        if not self.fused:
            self.values = [
                out[:, start:start + rows * n].reshape(len(out), rows, n)
                for (_, rows), start in zip(self.members, self.starts)]
            return
        ro = self.row_offsets
        live = len(self.members)
        value = out[:, :ro[live] * n].reshape(len(out), ro[live], n)
        values = [None] * live
        for piece, count in self.fused:
            if count < live:
                for m in range(count, live):
                    values[m] = value[:, ro[m]:ro[m + 1]]
                live = count
                value = value[:, :ro[count]]
            value = _run_piece(bstate, piece, value, exact)
        for m in range(live):
            values[m] = value[:, ro[m]:ro[m + 1]]
        self.values = values

    def apply_rows(self, sim, value: np.ndarray) -> np.ndarray:
        """Every member's outputs for an (R, cols, N) stack of inputs, as
        one (R, columns) float32 array (member m from ``starts[m]``).

        Rows are requests on the per-step path and (occurrence, request)
        pairs for a hoisted group. A row whose input is all +-0.0 — an
        RNN's first step reads the zero state h0 — reads no weights: the
        reference starts every dot at +0.0, and with finite weights each
        term is a signed zero, so its output is +0.0. The other rows go
        through :meth:`_multiply`. Last, every row's outputs on the
        members' NaN-weight rows are NaN (:func:`window_operands`), as
        the reference makes them for any input. Packed/mantissa modes
        only.
        """
        operands = self._bound_operands(sim)
        live = value.any(axis=(1, 2))
        count = int(np.count_nonzero(live))
        if count == len(value):
            out = self._multiply(sim, value, operands)
        else:
            self.elided_rows += len(value) - count
            out = np.zeros((len(value), self.width), dtype=np.float32)
            if count:
                out[live] = self._multiply(sim, value[live], operands)
        if self._nan_columns.size:
            out[:, self._nan_columns] = np.nan
        return out

    def _multiply(self, sim, value: np.ndarray, operands: tuple
                  ) -> np.ndarray:
        """:meth:`apply_rows` for rows that are not all zero.

        One decomposition covers all R rows, then one GEMM per segment —
        the GEMMs batch rows along the GEMM's N dimension, which is what
        amortizes the weight traffic — or, up to :data:`_GEMV_MAX_ROWS`
        rows, one GEMV per row and segment. The unpack/scale/float16
        epilogue then runs in chunks of :data:`_EPILOGUE_ROWS` rows
        through fixed scratch. Every dot product is an exact integer, so
        the results equal per-row GEMVs bit for bit; scale products and
        the segment summation keep the reference operation order.

        Over a trimmed stack (:func:`_trim`) the GEMMs read each
        segment's live input columns and the epilogue runs over the live
        lanes. A trimmed row's reference dots sum ``0 * x`` terms to
        +0.0, or to NaN where an input mantissa is NaN; such an input
        makes every dot of its request row NaN, so the row is NaN
        throughout.
        """
        w_stack, w_scales, selectors, live_rows = operands
        mant, exps = decompose(value, sim._bfp)
        total = value.shape[0]
        segs = self.segs
        mant = mant.reshape(total, segs, self.seg_width)
        x_scales = scales_of(exps, sim._bfp).reshape(total, segs, 1)
        lanes = w_stack[0].shape[0]
        chunk = _EPILOGUE_ROWS
        if self.mode == _MODE_PACKED:
            scratch = self._packed_scratch(w_scales, sim._pack_slots,
                                           sim._pack_width)
            gemm = scratch[1][:, :total] if total <= chunk else \
                np.empty((segs, total, lanes))
            _gemm(mant.astype(np.float64), selectors, w_stack, gemm)
            parts = [self._unpack_chunk(gemm[:, r0:r0 + chunk],
                                        x_scales[r0:r0 + chunk], scratch,
                                        sim._pack_width)
                     for r0 in range(0, total, chunk)]
        else:
            gemm = np.empty((segs, total, lanes), dtype=np.float32)
            _gemm(mant, selectors, w_stack, gemm)
            parts = []
            for r0 in range(0, total, chunk):
                part, xs = gemm[:, r0:r0 + chunk], x_scales[r0:r0 + chunk]
                acc = part[0].astype(np.float64) * (w_scales[0] * xs[:, 0])
                for s in range(1, segs):
                    acc += (part[s].astype(np.float64)
                            * (w_scales[s] * xs[:, s]))
                parts.append(round_float16(acc.astype(np.float32)))
        out = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if live_rows is None:
            return out
        full = np.zeros((total, self.width), dtype=np.float32)
        full[:, live_rows] = out
        nan = np.isnan(mant).reshape(total, -1)
        bad = np.flatnonzero(nan.any(axis=1))
        if bad.size:
            # Each dot of such a row carries the input's NaN to the
            # output, as the interpreter's do: its first NaN mantissa,
            # rounded like every output.
            first = mant.reshape(total, -1)[bad, nan[bad].argmax(axis=1)]
            full[bad] = round_float16(first)[:, np.newaxis]
        return full

    def _unpack_chunk(self, gemm: np.ndarray, x_scales: np.ndarray,
                      scratch: tuple, width: int) -> np.ndarray:
        """Packed epilogue for one row chunk: (segs, c, groups) packed
        dots and (c, segs, 1) input scales to (c, groups*k) float16
        values, through the :meth:`_packed_scratch` buffers."""
        c = gemm.shape[1]
        segs = self.segs
        ws_kgp, _, pref, dots, accb, inv = scratch
        pref, dots, accb = pref[:, :c], dots[:, :c], accb[:c]
        # Unpack the k slot dots per lane in (.., k, groups) layout
        # (one transposing copy at the very end instead of one per
        # column block): dots[t] = pref[t] - pref[t-1] * 2^w.  Slot 0
        # adds +0.0 as it copies: a negative lane whose top-slot dot is
        # 0 rounds to -0.0, and the integer dot is +0.0.
        np.multiply(gemm[:, :, np.newaxis, :], inv[:, np.newaxis], out=pref)
        np.rint(pref, out=pref)
        two_w = float(2 ** width)
        np.add(pref[:, :, 0], 0.0, out=dots[:, :, 0])
        np.multiply(pref[:, :, :-1], two_w, out=dots[:, :, 1:])
        np.subtract(pref[:, :, 1:], dots[:, :, 1:], out=dots[:, :, 1:])
        # terms = dots * (w_scales * x_scales). Both scale factors are
        # exact powers of two, so the two in-place multiplies equal the
        # reference's dots * (ws * xs) bit for bit.
        np.multiply(dots, ws_kgp[:, np.newaxis], out=dots)
        np.multiply(dots, x_scales.transpose(1, 0, 2)[..., np.newaxis],
                    out=dots)
        if segs == 1:
            acc = dots[0]
        else:
            np.add(dots[0], dots[1], out=accb)
            for s in range(2, segs):
                np.add(accb, dots[s], out=accb)
            acc = accb
        # (c, k, groups) -> (c, groups, k) -> rows g*k + t.
        return round_float16(
            acc.transpose(0, 2, 1).astype(np.float32).reshape(c, -1))


def _gemm(x: np.ndarray, selectors: tuple, w_stack,
          out: np.ndarray) -> None:
    """``out[s] = x[:, s, selectors[s]] @ w_stack[s].T`` for every
    segment ``s``: one GEMM per segment, or one GEMV per row and segment
    for at most :data:`_GEMV_MAX_ROWS` rows (exact integer dots either
    way)."""
    rows = x.shape[0]
    for s, (sel, w, o) in enumerate(zip(selectors, w_stack, out)):
        xs = x[:, s, sel]
        if rows <= _GEMV_MAX_ROWS:
            for r in range(rows):
                np.matmul(w, xs[r], out=o[r])
        else:
            np.matmul(xs, w.T, out=o)


def _trim(w_stack: np.ndarray, scales: np.ndarray, k: int,
          previous: Optional[tuple]) -> tuple:
    """A group's operands, ``(w_stack, scales, selectors, live_rows)``,
    from its padded (segs, lanes, block) stack and (segs, lanes*k)
    scales.

    Native-tile padding leaves weight lanes (k output rows each) that
    are zero in every segment, and per segment input columns that are
    zero in every lane. Their dot terms are ``0 * x``, so dropping them
    changes no live dot. When that leaves at most
    :data:`_TRIM_MAX_BYTES` of weights, the stack becomes one
    (live lanes, live columns) array per segment, the scales keep the
    live lanes' rows, ``selectors`` picks each segment's live input
    columns (a slice where they are contiguous) and ``live_rows`` are
    the output columns the live lanes fill. Otherwise the padded stack
    stays whole: ``selectors`` take every column and ``live_rows`` is
    ``None``. A ``previous`` trimmed stack of the same shape takes the
    new values in place.
    """
    segs, lanes_total, width = w_stack.shape
    lanes = np.flatnonzero(w_stack.any(axis=(0, 2)))
    columns = [np.flatnonzero(c) for c in w_stack.any(axis=1)]
    live = len(lanes) * sum(len(c) for c in columns)
    if (live == lanes_total * segs * width
            or live * w_stack.itemsize > _TRIM_MAX_BYTES):
        return w_stack, scales, (slice(None),) * segs, None
    live_rows = (lanes[:, np.newaxis] * k + np.arange(k)).reshape(-1)
    shapes = [(len(lanes), len(c)) for c in columns]
    if (previous is not None and previous[3] is not None
            and [w.shape for w in previous[0]] == shapes):
        w_live, s_live = previous[:2]
    else:
        w_live = tuple(np.empty(shape, dtype=w_stack.dtype)
                       for shape in shapes)
        s_live = np.empty((segs, len(live_rows)))
    for w, seg, c in zip(w_live, w_stack, columns):
        w[...] = seg[lanes][:, c]
    np.take(scales, live_rows, axis=1, out=s_live)
    selectors = tuple(
        slice(int(c[0]), int(c[-1]) + 1)
        if len(c) and c[-1] - c[0] + 1 == len(c) else c for c in columns)
    return w_live, s_live, selectors, live_rows


# ---------------------------------------------------------------------------
# Compiled steps
# ---------------------------------------------------------------------------

class _ScalarStep:
    """A folded ``s_wr``: no run-time work — the final register state
    and the instruction/tick tallies are precomputed on the plan."""

    __slots__ = ("ticks",)
    #: Not a chain (no chain span around its tick); see :func:`_retire`.
    matrix = None

    def __init__(self, reg: ScalarReg, value: int):
        self.ticks = (("set_scalar", {"reg": reg.name, "value": value},
                       None, 0),)

    def run(self, bstate) -> None:
        pass


class _MatrixStep:
    """A compiled ``m_rd`` → ``m_wr(Dram)`` tile move (a plan that
    writes the MRF is not compiled: see :func:`_compile_matrix_step`)."""

    __slots__ = ("src_netq", "src_index", "dst_index", "count", "ticks")
    matrix = True

    def __init__(self, src_netq, src_index, dst_index, count, ticks):
        self.src_netq = src_netq
        self.src_index = src_index
        self.dst_index = dst_index
        self.count = count
        self.ticks = ticks

    def run(self, bstate) -> None:
        if self.src_netq:
            tiles = bstate._pop_input_tiles(self.count)  # (B, count, N, N)
        else:
            tiles = bstate._read_dram_tiles(self.src_index, self.count)
        for i in range(self.count):
            bstate._dram_tiles[self.dst_index + i] = \
                np.ascontiguousarray(tiles[:, i])


class _VectorStep:
    """A compiled vector chain: resolved head, flat piece list."""

    __slots__ = ("head_kind", "head_mem", "head_index", "width_in",
                 "pieces", "ticks")
    matrix = False

    def __init__(self, head_kind, head_mem, head_index, width_in, pieces,
                 ticks):
        self.head_kind = head_kind
        self.head_mem = head_mem
        self.head_index = head_index
        self.width_in = width_in
        self.pieces = pieces
        self.ticks = ticks

    def run(self, bstate) -> None:
        kind = self.head_kind
        if kind == _H_VRF:
            value = bstate._vrf[self.head_mem][
                :, self.head_index:self.head_index + self.width_in]
        elif kind == _H_NETQ:
            value = bstate._pop_input(self.width_in)
        else:
            value = bstate._read_dram_vectors(self.head_index,
                                              self.width_in)
        exact = bstate.sim.exact
        for p in self.pieces:
            value = _run_piece(bstate, p, value, exact)


def _run_piece(bstate, p: tuple, value: np.ndarray,
               exact: bool) -> np.ndarray:
    """Run one compiled piece on the (B, rows, N) chain value; returns
    the value the next piece sees."""
    kind = p[0]
    if kind == _MV:
        group, member = p[1], p[2]
        if member == 0:
            group.compute_batched(bstate, value)
            group.start_members(bstate, exact)
        return group.values[member]
    if kind == _BIN:
        return p[1](value, bstate._vrf[p[2]][:, p[3]:p[3] + p[4]],
                    exact=exact)
    if kind == _UN:
        return p[1](value, exact=exact)
    if kind == _WR_VRF:
        if p[4]:
            value = value.copy()
        bstate._vrf[p[1]][:, p[2]:p[2] + p[3]] = value
    elif kind == _WR_NETQ:
        bstate._push_outputs(value)
    else:
        # A copy, never a view: at B=1 a slice of a VRF head
        # is contiguous and would alias the register file.
        for i in range(value.shape[1]):
            bstate._dram_vectors[p[1] + i] = value[:, i].copy()
    return value


def _event_kind(event) -> str:
    """Human-readable kind tag for an event the plan cannot compile
    (``ReplayPlan.fallback_step_kinds``)."""
    if isinstance(event, SetScalar):
        return f"s_wr:{event.reg.name}"
    return ">".join(i.opcode.name.lower() for i in event.instructions)


def _retire(sim, steps) -> None:
    """Retire a committed plan's instructions on an observed simulator.

    Walks each step's static ``ticks`` — (name, attrs, counter, amount)
    per instruction — through ``sim._tick``, with the interpreter's
    chain span, ``end_chain`` tick, and ``executor.chains`` count around
    every chain, so the spans, the counters, and the trace clock come
    out as an interpreted run's.
    """
    tracer, metrics = sim.tracer, sim.metrics
    for step in steps:
        chain = step.matrix is not None
        if chain:
            span = tracer.begin("chain", float(sim._trace_clock),
                                track="executor", matrix=step.matrix,
                                instructions=len(step.ticks) + 1)
        for name, attrs, counter, amount in step.ticks:
            if counter is not None:
                metrics.counter(counter).inc(amount)
            sim._tick(name, **attrs)
        if chain:
            sim._tick("end_chain")
            tracer.end(span, float(sim._trace_clock))
            metrics.counter("executor.chains").inc()


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------

class ReplayPlan:
    """A flat, pre-resolved execution plan for one program binding.

    Immutable after compilation apart from the generation-checked
    operand caches inside its :class:`_MvGroup` objects. Bound to the
    simulator it was compiled for (its register files, counters, and
    weight windows); :meth:`FunctionalSimulator.plan_for` caches plans
    per (program uid, bindings, entry scalar registers).
    """

    __slots__ = ("program", "bindings_key", "entry_scalars",
                 "final_scalars", "steps", "batchable", "chains",
                 "instructions", "mv_muls", "macs", "pointwise_flops",
                 "ticks", "vrf_reads", "vrf_writes", "mrf_reads",
                 "dram_bytes", "vrf_footprints",
                 "fallback_steps", "fallback_step_kinds",
                 "groups", "fused_groups", "hoists", "hoisted_groups",
                 "hoisted_inputs")

    def __init__(self, program, bindings_key, entry_scalars, final_scalars,
                 steps, batchable, chains, instructions, mv_muls, macs,
                 pointwise_flops, ticks, vrf_reads, vrf_writes, mrf_reads,
                 dram_bytes, vrf_footprints, fallback_steps,
                 fallback_step_kinds, groups, fused_groups, hoists,
                 hoisted_inputs):
        self.program = program
        self.bindings_key = bindings_key
        self.entry_scalars = entry_scalars
        self.final_scalars = final_scalars
        self.steps = steps
        self.batchable = batchable
        self.chains = chains
        self.instructions = instructions
        self.mv_muls = mv_muls
        self.macs = macs
        self.pointwise_flops = pointwise_flops
        self.ticks = ticks
        self.vrf_reads = vrf_reads
        self.vrf_writes = vrf_writes
        #: MRF tiles read by ``mv_mul``.
        self.mrf_reads = mrf_reads
        #: DRAM traffic as (bytes read, bytes written).
        self.dram_bytes = dram_bytes
        #: Per-VRF high-water mark of static accesses (MemId -> rows).
        #: Batched replay replicates only this prefix of each register
        #: file instead of the full (often mostly idle) depth.
        self.vrf_footprints = vrf_footprints
        self.fallback_steps = fallback_steps
        #: Kind tags of every event from the first statically invalid
        #: one or MRF write onward, in plan order — the diagnostic
        #: payload of :class:`UnbatchablePlanError`.
        self.fallback_step_kinds = fallback_step_kinds
        self.groups = groups
        self.fused_groups = fused_groups
        #: ``(group, positions)`` per ``mv_mul`` group that batched replay
        #: computes for every timestep up front (:func:`_plan_hoists`);
        #: ``positions`` is (occurrences, cols): the network-queue index,
        #: counted from the start of the run, of each input vector.
        self.hoists = hoists
        self.hoisted_groups = len(hoists)
        #: Queued input vectors hoisting reads (max position + 1).
        self.hoisted_inputs = hoisted_inputs


class _ChainTemplate:
    """Compile-time description of one vector chain at fixed (rows, cols).

    Turned into one or more `_VectorStep` objects once mv_mul grouping
    is decided (the same template may appear in several loop
    iterations, always with the same group assignment pattern)."""

    __slots__ = ("head_kind", "head_mem", "head_index", "width_in", "rows",
                 "cols", "raw_pieces", "ticks", "mv_base", "vrf_reads",
                 "vrf_writes", "vrf_extents", "flops",
                 "writes_head_overlap")

    def __init__(self):
        self.raw_pieces = []
        self.ticks = []
        self.vrf_reads = []
        self.vrf_writes = []
        self.vrf_extents = []  # (MemId, index + extent) per static access
        self.flops = 0
        self.mv_base = None
        self.writes_head_overlap = False


def _compile_vector_chain(sim, chain: InstructionChain, rows: int,
                          cols: int) -> Optional[_ChainTemplate]:
    """Compile one vector chain, or return None for fallback."""
    n = sim.config.native_dim
    t = _ChainTemplate()
    t.rows, t.cols = rows, cols
    width_in = cols if chain.has_mv_mul else rows
    t.width_in = width_in

    head = chain.source
    t.head_mem = head.mem_id
    t.head_index = head.index
    if head.mem_id is MemId.NetQ:
        t.head_kind = _H_NETQ
    elif head.mem_id is MemId.Dram:
        t.head_kind = _H_DRAM
    else:
        vrf = sim.vrfs.get(head.mem_id)
        if vrf is None or not isinstance(head.index, int) \
                or head.index < 0 or head.index + width_in > vrf.depth:
            return None
        t.head_kind = _H_VRF
        t.vrf_reads.append((vrf, width_in))
        t.vrf_extents.append((head.mem_id, head.index + width_in))
    t.ticks.append((head.opcode.name.lower(),
                    {"mem": head.mem_id.name if head.mem_id else None,
                     "index": head.index, "vectors": width_in},
                    None, 0))

    # Alias window of the zero-copy VRF head (mem, index, width), using
    # the interpreter's exact overlap test for the copy-on-write flag.
    alias = (head.mem_id, head.index, width_in) \
        if t.head_kind == _H_VRF else None

    for instr in chain.instructions[1:]:
        op = instr.opcode
        tick = (op.name.lower(),
                {"mem": instr.mem_id.name if instr.mem_id else None,
                 "index": instr.index})
        if op is Opcode.MV_MUL:
            base = instr.index
            if not isinstance(base, int) or base < 0 \
                    or base + rows * cols > sim.config.mrf_address_space:
                return None
            t.mv_base = base
            t.raw_pieces.append((_MV, None, None))
            t.ticks.append(tick + ("executor.macs", rows * cols * n * n))
            alias = None
        elif op in ops.BINARY_KERNELS:
            op_mem = MemId.MultiplyVrf if op is Opcode.VV_MUL \
                else MemId.AddSubVrf
            vrf = sim.vrfs[op_mem]
            idx = instr.index
            if not isinstance(idx, int) or idx < 0 \
                    or idx + rows > vrf.depth:
                return None
            t.raw_pieces.append((_BIN, ops.BINARY_KERNELS[op], op_mem, idx,
                                 rows))
            t.ticks.append(tick + ("executor.pointwise_flops", rows * n))
            t.vrf_reads.append((vrf, rows))
            t.vrf_extents.append((op_mem, idx + rows))
            t.flops += rows * n
            alias = None
        elif op in ops.UNARY_KERNELS:
            t.raw_pieces.append((_UN, ops.UNARY_KERNELS[op]))
            t.ticks.append(tick + ("executor.pointwise_flops", rows * n))
            t.flops += rows * n
            alias = None
        elif op is Opcode.V_WR:
            mem = instr.mem_id
            if mem is MemId.NetQ:
                t.raw_pieces.append((_WR_NETQ,))
            elif mem is MemId.Dram:
                if not isinstance(instr.index, int):
                    return None
                t.raw_pieces.append((_WR_DRAM, instr.index))
            else:
                vrf = sim.vrfs.get(mem)
                idx = instr.index
                if vrf is None or not isinstance(idx, int) or idx < 0 \
                        or idx + rows > vrf.depth:
                    return None
                copy_first = False
                if (alias is not None and mem is alias[0]
                        and idx < alias[1] + alias[2]
                        and alias[1] < idx + width_in):
                    copy_first = True
                    alias = None
                t.raw_pieces.append((_WR_VRF, mem, idx, rows, copy_first))
                t.vrf_writes.append((vrf, rows))
                t.vrf_extents.append((mem, idx + rows))
                if (t.head_kind == _H_VRF and mem is t.head_mem
                        and idx < t.head_index + width_in
                        and t.head_index < idx + rows):
                    t.writes_head_overlap = True
            t.ticks.append(tick + (None, 0))
        else:  # pragma: no cover - chain validation prevents this
            return None
    return t


def compile_plan(sim, program: NpuProgram,
                 bindings: Optional[Dict[str, int]] = None) -> ReplayPlan:
    """Compile ``program`` against ``sim``'s current scalar state.

    Walks the (loop-unrolled) event stream with compile-time scalar
    tracking, compiles every chain once per (rows, cols) context, fuses
    runs of same-head ``mv_mul`` chains, and precomputes the run's
    statistic/counter/clock totals.
    """
    rows = sim.scalar_regs[ScalarReg.Rows]
    cols = sim.scalar_regs[ScalarReg.Columns]
    iters = sim.scalar_regs[ScalarReg.Iterations]
    entry_scalars = (rows, cols, iters)

    # Pass 1: unroll and compile chain templates (dedup per context).
    # records: ("scalar", event) | ("chain", template or _MatrixStep)
    # | ("fb", event), "fb" from the first statically invalid event or
    # MRF write onward.
    records = []
    template_cache: Dict[tuple, object] = {}
    broken = False
    for event in program.events(bindings):
        if broken:
            records.append(("fb", event))
            continue
        if isinstance(event, SetScalar):
            if event.reg in (ScalarReg.Rows, ScalarReg.Columns) \
                    and event.value < 1:
                records.append(("fb", event))
                broken = True
                continue
            if event.reg is ScalarReg.Rows:
                rows = event.value
            elif event.reg is ScalarReg.Columns:
                cols = event.value
            else:
                iters = event.value
            records.append(("scalar", event))
            continue
        key = (id(event), rows, cols)
        if key in template_cache:
            template = template_cache[key]
        else:
            if event.is_matrix_chain:
                # Matrix chains skip MFU validation (as interpreted);
                # only an MRF write makes one fall back.
                template = _compile_matrix_step(event, rows, cols)
            else:
                try:
                    event.assign_function_units(sim.config.mfus)
                except ChainCapacityError:
                    template = None
                else:
                    template = _compile_vector_chain(sim, event, rows, cols)
            template_cache[key] = template
        if template is None:
            records.append(("fb", event))
            broken = True
        else:
            records.append(("chain", template))

    # Pass 2: group consecutive same-head mv_mul chains, emit steps,
    # and accumulate the plan's static totals.
    n = sim.config.native_dim
    steps: List[object] = []
    group_cache: Dict[tuple, _MvGroup] = {}
    step_cache: Dict[tuple, object] = {}
    groups: List[_MvGroup] = []
    chains = instructions = mv_muls = macs = flops = ticks = 0
    mrf_reads = dram_read = dram_written = 0
    fallback_kinds: List[str] = []
    reads: Dict[int, list] = {}
    writes: Dict[int, list] = {}
    footprints: Dict[MemId, int] = {}

    vector_bytes = n * np.dtype(np.float32).itemsize
    single_member = sim._pack_slots == 0 and not sim._mantissa_gemv
    open_run: List[_ChainTemplate] = []

    def flush_run():
        nonlocal open_run
        if not open_run:
            return
        key = tuple(id(t) for t in open_run)
        group = group_cache.get(key)
        if group is None:
            group = _MvGroup(sim, [(t.mv_base, t.rows) for t in open_run],
                             open_run[0].cols)
            group.fused = _plan_fusion(group, open_run)
            group_cache[key] = group
            groups.append(group)
        # Pieces a fused piece covers run in member 0's step.
        done = [0] * len(open_run)
        for _, count in group.fused:
            for member in range(count):
                done[member] += 1
        for member, t in enumerate(open_run):
            skey = (id(t), id(group), member)
            step = step_cache.get(skey)
            if step is None:
                pieces = ((_MV, group, member),) \
                    + tuple(t.raw_pieces[1 + done[member]:])
                step = _VectorStep(t.head_kind, t.head_mem, t.head_index,
                                   t.width_in, pieces, tuple(t.ticks))
                step_cache[skey] = step
            steps.append(step)
        open_run = []

    def add_tally(t: _ChainTemplate):
        nonlocal chains, instructions, mv_muls, macs, flops, ticks
        nonlocal mrf_reads, dram_read, dram_written
        chains += 1
        instructions += len(t.ticks) + 1
        ticks += len(t.ticks) + 1
        flops += t.flops
        if t.mv_base is not None:
            mv_muls += 1
            macs += t.rows * t.cols * n * n
            mrf_reads += t.rows * t.cols
        if t.head_kind == _H_DRAM:
            dram_read += t.width_in * vector_bytes
        for p in t.raw_pieces:
            if p[0] == _WR_DRAM:
                dram_written += t.rows * vector_bytes
        for vrf, count in t.vrf_reads:
            reads.setdefault(id(vrf), [vrf, 0])[1] += count
        for vrf, count in t.vrf_writes:
            writes.setdefault(id(vrf), [vrf, 0])[1] += count
        for mem, end in t.vrf_extents:
            if end > footprints.get(mem, 0):
                footprints[mem] = end

    for record in records:
        kind = record[0]
        if kind == "chain":
            t = record[1]
            if isinstance(t, _ChainTemplate) and t.mv_base is not None:
                fusable = (t.head_kind == _H_VRF and not single_member)
                if open_run and not (
                        fusable
                        and t.head_mem is open_run[0].head_mem
                        and t.head_index == open_run[0].head_index
                        and t.cols == open_run[0].cols):
                    flush_run()
                open_run.append(t)
                add_tally(t)
                if not fusable or t.writes_head_overlap:
                    flush_run()
                continue
            flush_run()
            if isinstance(t, _MatrixStep):
                step = t
                steps.append(step)
                chains += 1
                instructions += 3
                ticks += 3
                tile_bytes = step.count * n * vector_bytes
                if not step.src_netq:
                    dram_read += tile_bytes
                dram_written += tile_bytes
            else:
                step = step_cache.get(id(t))
                if step is None:
                    step = _VectorStep(t.head_kind, t.head_mem, t.head_index,
                                       t.width_in, tuple(t.raw_pieces),
                                       tuple(t.ticks))
                    step_cache[id(t)] = step
                steps.append(step)
                add_tally(t)
            continue
        flush_run()
        if kind == "scalar":
            event = record[1]
            steps.append(_ScalarStep(event.reg, event.value))
            instructions += 1
            ticks += 1
        else:
            fallback_kinds.append(_event_kind(record[1]))
    flush_run()

    final_scalars = {ScalarReg.Rows: rows, ScalarReg.Columns: cols,
                     ScalarReg.Iterations: iters}
    # Hoisting needs static queue consumption (weights are fixed: a
    # plan that writes the MRF falls back).
    hoists, hoisted_inputs = ((), 0) if fallback_kinds \
        else _plan_hoists(steps)
    return ReplayPlan(
        program=program,
        bindings_key=tuple(sorted((bindings or {}).items())),
        entry_scalars=entry_scalars,
        final_scalars=final_scalars,
        steps=tuple(steps),
        batchable=not fallback_kinds,
        chains=chains,
        instructions=instructions,
        mv_muls=mv_muls,
        macs=macs,
        pointwise_flops=flops,
        ticks=ticks,
        vrf_reads=tuple((v, c) for v, c in reads.values()),
        vrf_writes=tuple((v, c) for v, c in writes.values()),
        mrf_reads=mrf_reads,
        dram_bytes=(dram_read, dram_written),
        vrf_footprints=footprints,
        fallback_steps=len(fallback_kinds),
        fallback_step_kinds=tuple(fallback_kinds),
        groups=tuple(groups),
        fused_groups=sum(1 for g in groups if len(g.members) > 1),
        hoists=hoists,
        hoisted_inputs=hoisted_inputs,
    )


def _plan_fusion(group: _MvGroup, templates: List[_ChainTemplate]) -> tuple:
    """The pointwise pieces member 0's step runs for a leading run of
    the group's members at once; ``((piece, count), ...)``.

    Position k after the ``mv_mul`` fuses the leading ``count >= 2``
    members (at most the previous position's count) whose k-th pieces
    run the same kernel, or write the same VRF, over row ranges laid
    out in member order: member m's range starts ``row_offsets[m]``
    rows after member 0's, so the wide piece covers them back to back
    over the stacked output. Only ``vv_*``, ``v_*`` and VRF ``v_wr``
    pieces fuse; network and DRAM writes stay in member order.

    The fused pieces run before any member's remaining pieces, which
    reorders VRF accesses across members. A static alias check drops
    trailing positions until no access of member i (i < j) that
    follows, in the fused order, a fused access of member j conflicts
    with it (same VRF row, one of them a write); the chains' original
    order is member i's pieces before member j's.
    """
    if len(templates) < 2 or group.starts != group.offsets:
        return ()
    ro = group.row_offsets
    # An mv_mul directly follows a chain's head (ISA rule), so it is
    # every member's first piece.
    tails = [t.raw_pieces[1:] for t in templates]
    fused = []
    live = len(templates)
    for k, first in enumerate(tails[0]):
        if first[0] not in (_BIN, _UN, _WR_VRF):
            break
        count = 1
        while count < live and k < len(tails[count]) and _continues(
                first, tails[count][k], ro[count]):
            count += 1
        if count < 2:
            break
        if first[0] == _UN:
            wide = first
        elif first[0] == _BIN:
            wide = first[:4] + (ro[count],)
        else:
            wide = (_WR_VRF, first[1], first[2], ro[count], False)
        fused.append((wide, count))
        live = count
    while fused and _fusion_conflicts(tails, fused):
        fused.pop()
    return tuple(fused)


def _continues(first: tuple, piece: tuple, rows_before: int) -> bool:
    """Whether ``piece`` does what member 0's ``first`` does, on the
    rows ``rows_before`` rows further on."""
    if piece[0] != first[0]:
        return False
    if first[0] == _UN:
        return piece[1] is first[1]
    if first[0] == _BIN:
        return (piece[1] is first[1] and piece[2] is first[2]
                and piece[3] == first[3] + rows_before)
    return (piece[1] is first[1] and piece[2] == first[2] + rows_before
            and not piece[4])


def _fusion_conflicts(tails: list, fused: list) -> bool:
    """True if running ``fused`` first reorders two conflicting VRF
    accesses of different members (see :func:`_plan_fusion`)."""
    # Per member: (position, mem, lo, hi, writes); a piece left to the
    # member's own step runs after every fused one (position inf).
    accesses = []
    for m, tail in enumerate(tails):
        fused_here = sum(1 for _, count in fused if count > m)
        mine = []
        for k, p in enumerate(tail):
            pos = k if k < fused_here else float("inf")
            if p[0] == _BIN:
                mine.append((pos, p[2], p[3], p[3] + p[4], False))
            elif p[0] == _WR_VRF:
                mine.append((pos, p[1], p[2], p[2] + p[3], True))
        accesses.append(mine)
    for i in range(len(tails)):
        for j in range(i + 1, len(tails)):
            for pos_i, mem_i, lo_i, hi_i, w_i in accesses[i]:
                for pos_j, mem_j, lo_j, hi_j, w_j in accesses[j]:
                    if (pos_j < pos_i and (w_i or w_j) and mem_i is mem_j
                            and lo_i < hi_j and lo_j < hi_i):
                        return True
    return False


def _plan_hoists(steps) -> Tuple[tuple, int]:
    """Find the ``mv_mul`` groups batched replay may hoist out of the
    unrolled time loop; returns ``(hoists, hoisted_inputs)``.

    A group is hoisted when its input never depends on the recurrence:

    * its mode is packed or mantissa (exact integer dot products, so
      one GEMM over many rows equals the per-step GEMVs bit for bit);
    * it occurs at least twice (otherwise nothing is saved);
    * at every occurrence each of its input rows is a known slot of
      the network input queue — popped by the chain head itself, or
      written into the VRF head window by a pure copy chain (a head
      followed only by ``v_wr``s) with nothing overwriting it before
      the read;
    * the plan is batchable, so the queue consumption is static and
      the weights are fixed for the whole run (checked by the caller).

    Walks the steps once, tracking the queue cursor and, per VRF row,
    the queue slot its current contents came from (absent: unknown).
    """
    cursor = 0
    source: Dict[Tuple[MemId, int], int] = {}
    occurrences: Dict[_MvGroup, list] = {}
    for step in steps:
        if not isinstance(step, _VectorStep):
            continue
        width = step.width_in
        if step.head_kind == _H_NETQ:
            value = tuple(range(cursor, cursor + width))
            cursor += width
        elif step.head_kind == _H_VRF:
            value = tuple(source.get((step.head_mem, step.head_index + i))
                          for i in range(width))
            if None in value:
                value = None
        else:
            value = None
        for p in step.pieces:
            kind = p[0]
            if kind == _MV:
                if p[2] == 0:
                    occurrences.setdefault(p[1], []).append(value)
                    for piece, _ in p[1].fused:
                        if piece[0] == _WR_VRF:
                            for i in range(piece[3]):
                                source.pop((piece[1], piece[2] + i), None)
                value = None
            elif kind == _BIN or kind == _UN:
                value = None
            elif kind == _WR_VRF:
                mem, index, rows = p[1], p[2], p[3]
                known = value is not None and len(value) == rows
                for i in range(rows):
                    if known:
                        source[(mem, index + i)] = value[i]
                    else:
                        source.pop((mem, index + i), None)
    hoists = []
    inputs = 0
    for group, occ in occurrences.items():
        if group.mode == _MODE_F64 or len(occ) < 2 or None in occ:
            continue
        positions = np.array(occ, dtype=np.intp)
        hoists.append((group, positions))
        inputs = max(inputs, int(positions.max()) + 1)
    return tuple(hoists), inputs


def _compile_matrix_step(chain: InstructionChain, rows: int,
                         cols: int) -> Optional[_MatrixStep]:
    """Compile a tile move, or return None for an MRF write: plans share
    one MRF across requests (the paper's pinned weights), so a plan
    that rewrites matrix registers is interpreted."""
    rd, wr = chain.instructions
    if wr.mem_id is MemId.MatrixRf:
        return None
    count = rows * cols
    src_netq = rd.mem_id is MemId.NetQ
    ticks = ((rd.opcode.name.lower(),
              {"mem": rd.mem_id.name, "index": rd.index, "tiles": count},
              None, 0),
             (wr.opcode.name.lower(),
              {"mem": wr.mem_id.name, "index": wr.index, "tiles": count},
              "executor.tiles_moved", count))
    return _MatrixStep(src_netq, rd.index, wr.index, count, ticks)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

class BatchedReplay:
    """B independent requests stepped through one compiled plan.

    All architectural state gains a leading batch axis: VRFs become
    (B, footprint, N) arrays (only the statically reachable prefix of
    each register file is replicated), DRAM entries (B, ...) arrays,
    the network input queue a stream of (B, N) stacks. The MRF is
    *shared*: weights are per-model, not per-request, and a batchable
    plan never writes them. On the exact-integer mantissa paths every
    batched kernel is bit-identical to B sequential runs — the
    invariant the three-way differential fuzzer asserts.

    Unbatchable plans (``plan.batchable`` is False: a statically invalid
    event or an MRF write) are rejected with
    :class:`~repro.errors.UnbatchablePlanError` — run those
    sequentially. :meth:`run` keeps no statistics or metric counters
    and never writes the base simulator; outputs and architectural
    state are the contract (via :meth:`snapshot`). Hoisted ``mv_mul``
    groups (``plan.hoists``) are computed for every timestep at the
    start of :meth:`run`. At B=1, :meth:`commit` writes the request
    back into the base simulator: that is how
    ``FunctionalSimulator.run(compiled=True)`` executes.
    """

    def __init__(self, sim, program: NpuProgram, batch: int,
                 bindings: Optional[Dict[str, int]] = None):
        if batch < 1:
            raise ExecutionError("batch size must be >= 1")
        self.sim = sim
        self.batch = batch
        self.plan = sim.plan_for(program, bindings)
        if not self.plan.batchable:
            kinds = self.plan.fallback_step_kinds
            raise UnbatchablePlanError(
                f"plan is not batchable: {self.plan.fallback_steps} "
                "interpreted fallback step(s) from a statically invalid "
                "event or MRF write onward (step kinds: "
                f"{', '.join(kinds)}); run requests sequentially",
                step_kinds=kinds)
        b = batch
        # Replicate only each register file's static footprint — the
        # prefix the plan can actually touch. The untouched tail stays
        # shared with the base simulator and is grafted back on in
        # :meth:`snapshot`. (Full replication of a 4K-deep VRF times
        # B=16 costs ~100 MB and dominated batched setup time.)
        fp = self.plan.vrf_footprints
        self._vrf = {
            mem: np.repeat(vrf._data[np.newaxis, :fp.get(mem, 0)], b,
                           axis=0)
            for mem, vrf in sim.vrfs.items()}
        self._dram_vectors = {k: np.repeat(v[np.newaxis], b, axis=0)
                              for k, v in sim.dram._vectors.items()}
        self._dram_tiles = {k: np.repeat(v[np.newaxis], b, axis=0)
                            for k, v in sim.dram._tiles.items()}
        self._pending_vectors = collections.deque(
            np.repeat(v[np.newaxis], b, axis=0)
            for v in sim.netq._in_vectors)
        self._pending_tiles = collections.deque(
            np.repeat(t[np.newaxis], b, axis=0)
            for t in sim.netq._in_tiles)
        self._outputs: List[np.ndarray] = [
            np.repeat(v[np.newaxis], b, axis=0)
            for v in sim.netq._out_vectors]
        self._scalars = dict(sim.scalar_regs)
        #: Hoisted group -> [(occurrences, B, columns) outputs, next
        #: occurrence]; filled only while :meth:`run` runs.
        self._hoisted: Dict[_MvGroup, list] = {}

    # -- request-side I/O --------------------------------------------------

    def push_input(self, vectors: np.ndarray) -> None:
        """Queue one (B, N) stack: request b's next input vector."""
        arr = np.asarray(vectors, dtype=np.float32)
        n = self.sim.config.native_dim
        if arr.shape != (self.batch, n):
            raise MemoryError_(
                f"batched input shape {arr.shape} != ({self.batch}, {n})")
        self._pending_vectors.append(arr.copy())

    def pop_outputs(self) -> List[List[np.ndarray]]:
        """Drain the output queue: per-request lists of (N,) vectors."""
        outs = self._outputs
        self._outputs = []
        return [[v[b].copy() for v in outs] for b in range(self.batch)]

    # -- execution ---------------------------------------------------------

    def run(self) -> "BatchedReplay":
        try:
            self._hoist()
            for step in self.plan.steps:
                step.run(self)
        finally:
            # Member values may view a whole hoisted output block.
            self._hoisted = {}
            for group in self.plan.groups:
                group.outputs = group.values = None
        self._scalars.update(self.plan.final_scalars)
        return self

    def _hoist(self) -> None:
        """Compute every hoisted group (``plan.hoists``) for all of its
        occurrences at once, before the first step.

        Each group's inputs are gathered from the pending input queue at
        the positions the plan recorded, as (occurrence, request) rows,
        and go through one :meth:`_MvGroup.apply_rows` — one GEMM per
        segment for the whole sequence instead of one per timestep. The
        per-step ``compute_batched`` calls then read the results in
        order. With too few queued inputs nothing is hoisted, so the
        per-step path raises the same error at the same step as an
        unhoisted run.
        """
        plan = self.plan
        pending = self._pending_vectors
        if not plan.hoists or len(pending) < plan.hoisted_inputs:
            return
        queue = list(itertools.islice(pending, plan.hoisted_inputs))
        batch, n = self.batch, self.sim.config.native_dim
        for group, positions in plan.hoists:
            occurrences, cols = positions.shape
            rows = np.empty((occurrences, batch, cols, n), dtype=np.float32)
            for o in range(occurrences):
                for c in range(cols):
                    rows[o, :, c] = queue[positions[o, c]]
            out = group.apply_rows(
                self.sim, rows.reshape(occurrences * batch, cols, n))
            self._hoisted[group] = [
                out.reshape(occurrences, batch, out.shape[1]), 0]

    # -- plan-facing state helpers -----------------------------------------

    def _pop_input(self, count: int) -> np.ndarray:
        pending = self._pending_vectors
        if len(pending) < count:
            raise NetworkQueueEmptyError(
                f"v_rd(NetQ) needs {count} vector(s), only "
                f"{len(pending)} pending")
        return np.stack([pending.popleft() for _ in range(count)], axis=1)

    def _pop_input_tiles(self, count: int) -> np.ndarray:
        pending = self._pending_tiles
        if len(pending) < count:
            raise NetworkQueueEmptyError(
                f"m_rd(NetQ) needs {count} tile(s), only "
                f"{len(pending)} pending")
        return np.stack([pending.popleft() for _ in range(count)], axis=1)

    def _push_outputs(self, value: np.ndarray) -> None:
        # Copies: a view would keep a whole hoisted output block alive.
        for r in range(value.shape[1]):
            self._outputs.append(value[:, r].copy())

    def _read_dram_vectors(self, index: int, count: int) -> np.ndarray:
        parts = []
        for i in range(count):
            part = self._dram_vectors.get(index + i)
            if part is None:
                raise MemoryError_(f"DRAM vector {index + i} never written")
            parts.append(part)
        return np.stack(parts, axis=1)

    def _read_dram_tiles(self, index: int, count: int) -> np.ndarray:
        parts = []
        for i in range(count):
            part = self._dram_tiles.get(index + i)
            if part is None:
                raise MemoryError_(f"DRAM tile {index + i} never written")
            parts.append(part)
        return np.stack(parts, axis=1)

    # -- inspection and write-back -----------------------------------------

    def snapshot(self, b: int) -> Dict[str, object]:
        """Request ``b``'s architectural state, in the same schema as
        :meth:`FunctionalSimulator.snapshot` (outputs not drained)."""
        if not 0 <= b < self.batch:
            raise ExecutionError(
                f"request {b} out of range for a batch of {self.batch}")
        vrf_state = {}
        for mem, data in self._vrf.items():
            full = self.sim.vrfs[mem]._data.copy()
            full[:data.shape[1]] = data[b]
            vrf_state[mem.name] = full
        return {
            "vrf": vrf_state,
            "mrf": self.sim.mrf.snapshot(),
            "dram_vectors": {k: v[b].copy()
                             for k, v in self._dram_vectors.items()},
            "dram_tiles": {k: v[b].copy()
                           for k, v in self._dram_tiles.items()},
            "outputs": [v[b].copy() for v in self._outputs],
            "netq_pending_inputs": len(self._pending_vectors),
            "netq_pending_tiles": len(self._pending_tiles),
            "scalar_regs": dict(self._scalars),
        }

    def commit(self) -> None:
        """Write the request of a B=1 replay back into the base simulator.

        The mirror of :meth:`snapshot`, and what makes
        ``FunctionalSimulator.run(compiled=True)`` a sequential run: the
        VRF footprints, DRAM, the network queues, and the scalar
        registers take the request's
        values, and the plan's static totals are applied —
        ``ExecutionStats``, register-file, DRAM and queue counters, and
        the trace clock. With a tracer or metrics sink attached the
        clock advances through :func:`_retire` instead, which emits the
        interpreter's spans and counters. Call once, after a successful
        :meth:`run`; a run that raised leaves the simulator untouched.
        """
        if self.batch != 1:
            raise ExecutionError(
                f"commit needs a batch of 1, not {self.batch}")
        sim, plan = self.sim, self.plan
        for mem, data in self._vrf.items():
            sim.vrfs[mem]._data[:data.shape[1]] = data[0]
        sim.mrf.reads += plan.mrf_reads
        dram = sim.dram
        dram._vectors = {k: v[0] for k, v in self._dram_vectors.items()}
        dram._tiles = {k: v[0] for k, v in self._dram_tiles.items()}
        dram.bytes_read += plan.dram_bytes[0]
        dram.bytes_written += plan.dram_bytes[1]
        netq = sim.netq
        netq.vectors_received += (len(netq._in_vectors)
                                  - len(self._pending_vectors))
        netq.vectors_sent += len(self._outputs) - len(netq._out_vectors)
        netq._in_vectors = collections.deque(
            v[0] for v in self._pending_vectors)
        netq._in_tiles = collections.deque(
            t[0] for t in self._pending_tiles)
        netq._out_vectors = [v[0] for v in self._outputs]
        sim.scalar_regs.update(self._scalars)
        stats = sim.stats
        stats.chains_executed += plan.chains
        stats.instructions_executed += plan.instructions
        stats.mv_mul_count += plan.mv_muls
        stats.macs += plan.macs
        stats.pointwise_flops += plan.pointwise_flops
        for vrf, delta in plan.vrf_reads:
            vrf.reads += delta
        for vrf, delta in plan.vrf_writes:
            vrf.writes += delta
        if sim._observing:
            _retire(sim, plan.steps)
        else:
            sim._trace_clock += plan.ticks
