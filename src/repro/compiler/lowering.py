"""Lowering DNN models onto the BW NPU ISA.

Produces :class:`CompiledModel` objects that bundle an
:class:`~repro.isa.program.NpuProgram` with its memory layout and a weight
loader. The recurrent lowerings mirror the hand-tuned, parameterized
programs of the paper (the ~100-line LSTM of Section IV-C): one chain per
gate matmul with the point-wise tail fused into the same chain, scalar
``rows``/``columns`` registers configuring mega-SIMD tiling, and
``h_prev``/``c_prev`` state pinned in the VRFs between timesteps.

Convolutions are linearized onto matrix-vector multiplication via im2col
(Section IV-B); the im2col unfold itself runs on the host, standing in
for the CPU sub-graphs of the federated runtime.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional

import numpy as np

from ..config import NpuConfig
from ..errors import CompileError
from ..functional.executor import FunctionalSimulator
from ..functional.replay import BatchedReplay
from ..isa.memspace import MemId
from ..isa.program import NpuProgram, ProgramBuilder
from ..models.cnn import ConvSpec, im2col
from ..models.gru import GruReference
from ..models.lstm import LstmReference
from .allocator import RegisterAllocator


@dataclasses.dataclass
class CompiledModel:
    """A model lowered onto a specific NPU configuration.

    Attributes:
        name: Model name.
        kind: One of ``"lstm"``, ``"gru"``, ``"conv"``.
        config: Target NPU configuration.
        program: The lowered NPU program.
        allocator: Memory layout (named slots in MRF and VRFs).
        loader: Callable that loads weights/constants into a simulator.
        input_length: Logical input elements consumed per step/invocation.
        output_length: Logical output elements produced per step/invocation.
        input_vectors_per_step: Native vectors read from NetQ per step.
        output_vectors_per_step: Native vectors written to NetQ per step.
        steps_binding: Name of the run-time loop-count binding.
        ops_per_step: Nominal (unpadded) operations per step/invocation.
    """

    name: str
    kind: str
    config: NpuConfig
    program: NpuProgram
    allocator: RegisterAllocator
    loader: Callable[[FunctionalSimulator], None]
    input_length: int
    output_length: int
    input_vectors_per_step: int
    output_vectors_per_step: int
    steps_binding: str = "steps"
    ops_per_step: int = 0

    def new_simulator(self, exact: bool = False, tracer=None,
                      metrics=None) -> FunctionalSimulator:
        """Create a simulator with this model's weights pinned on chip.

        ``tracer``/``metrics`` are optional :mod:`repro.obs` hooks
        passed through to the :class:`FunctionalSimulator`.
        """
        sim = FunctionalSimulator(self.config, exact=exact,
                                  tracer=tracer, metrics=metrics)
        self.loader(sim)
        return sim

    @property
    def mrf_tiles_used(self) -> int:
        return self.allocator.used(MemId.MatrixRf)

    def run_sequence(self, xs: List[np.ndarray], exact: bool = False,
                     sim: Optional[FunctionalSimulator] = None,
                     compiled: bool = False) -> List[np.ndarray]:
        """Run a recurrent model over a sequence of input vectors.

        ``compiled=True`` executes through the simulator's compiled
        replay plan (bit-identical; see
        :mod:`repro.functional.replay`).
        """
        if sim is None:
            sim = self.new_simulator(exact=exact)
        for x in xs:
            self._push_padded(sim, x)
        sim.run(self.program, bindings={self.steps_binding: len(xs)},
                compiled=compiled)
        return self._collect_outputs(sim, len(xs))

    def run_sequence_batched(self, xs_batch: List[List[np.ndarray]],
                             sim: Optional[FunctionalSimulator] = None
                             ) -> List[List[np.ndarray]]:
        """Run B independent input sequences through one batched replay.

        All sequences must have the same length (they step in lockstep
        through one compiled plan). Returns one output list per request,
        each bit-identical to a sequential
        ``run_sequence(xs_batch[b], compiled=True)`` on a fresh
        simulator — the batched-execution contract asserted by the
        three-way differential fuzzer and the perf benchmarks. No state
        is written back to ``sim`` (only its plan cache fills), so every
        call starts from the same state and a long-lived simulator can
        serve any number of calls.
        """
        batch = len(xs_batch)
        if batch == 0:
            return []
        steps = len(xs_batch[0])
        if any(len(xs) != steps for xs in xs_batch):
            raise CompileError(
                f"{self.name}: batched sequences must share one length")
        if sim is None:
            sim = self.new_simulator()
        replay = BatchedReplay(sim, self.program, batch,
                               bindings={self.steps_binding: steps})
        n = self.config.native_dim
        entries = self.input_vectors_per_step
        for t in range(steps):
            padded = np.zeros((batch, entries * n), dtype=np.float32)
            for r, xs in enumerate(xs_batch):
                x = np.asarray(xs[t], dtype=np.float32).reshape(-1)
                if x.shape[0] != self.input_length:
                    raise CompileError(
                        f"{self.name}: input length {x.shape[0]} != "
                        f"expected {self.input_length}")
                padded[r, :x.shape[0]] = x
            for i in range(entries):
                replay.push_input(padded[:, i * n:(i + 1) * n])
        replay.run()
        per_step = self.output_vectors_per_step
        results = []
        for vectors in replay.pop_outputs():
            if len(vectors) != steps * per_step:
                raise CompileError(
                    f"{self.name}: expected {steps * per_step} output "
                    f"vector(s), got {len(vectors)}")
            results.append([
                np.concatenate(vectors[t * per_step:(t + 1) * per_step]
                               )[:self.output_length]
                for t in range(steps)])
        return results

    def _push_padded(self, sim: FunctionalSimulator, x: np.ndarray) -> None:
        n = self.config.native_dim
        x = np.asarray(x, dtype=np.float32).reshape(-1)
        if x.shape[0] != self.input_length:
            raise CompileError(
                f"{self.name}: input length {x.shape[0]} != expected "
                f"{self.input_length}")
        padded = np.zeros(self.input_vectors_per_step * n, dtype=np.float32)
        padded[:x.shape[0]] = x
        for i in range(self.input_vectors_per_step):
            sim.netq.push_input(padded[i * n:(i + 1) * n])

    def _collect_outputs(self, sim: FunctionalSimulator,
                         steps: int) -> List[np.ndarray]:
        vectors = sim.netq.pop_outputs()
        per_step = self.output_vectors_per_step
        if len(vectors) != steps * per_step:
            raise CompileError(
                f"{self.name}: expected {steps * per_step} output "
                f"vector(s), got {len(vectors)}")
        outputs = []
        for t in range(steps):
            flat = np.concatenate(vectors[t * per_step:(t + 1) * per_step])
            outputs.append(flat[:self.output_length])
        return outputs


class _DimTracker:
    """Emits ``s_wr`` only when rows/columns actually change."""

    def __init__(self, builder: ProgramBuilder):
        self._builder = builder
        self._rows: Optional[int] = None
        self._cols: Optional[int] = None

    def set(self, rows: int, cols: Optional[int] = None) -> None:
        if rows != self._rows:
            self._builder.set_rows(rows)
            self._rows = rows
        if cols is not None and cols != self._cols:
            self._builder.set_columns(cols)
            self._cols = cols


def _vector_count(length: int, native_dim: int) -> int:
    return max(1, math.ceil(length / native_dim))


def _padded(vector: np.ndarray, entries: int, native_dim: int) -> np.ndarray:
    out = np.zeros(entries * native_dim, dtype=np.float32)
    flat = np.asarray(vector, dtype=np.float32).reshape(-1)
    out[:flat.shape[0]] = flat
    return out.reshape(entries, native_dim)


@dataclasses.dataclass(frozen=True)
class LstmShapeOnly:
    """Shape stand-in accepted by :func:`compile_lstm` for timing-only
    compilation (no weights materialized; the loader raises)."""

    hidden_dim: int
    input_dim: int

    def shape(self, time_steps: int = 1):
        from ..models.lstm import LstmShape
        return LstmShape(self.hidden_dim, self.input_dim, time_steps)


@dataclasses.dataclass(frozen=True)
class GruShapeOnly:
    """Shape stand-in accepted by :func:`compile_gru` (timing-only)."""

    hidden_dim: int
    input_dim: int

    def shape(self, time_steps: int = 1):
        from ..models.gru import GruShape
        return GruShape(self.hidden_dim, self.input_dim, time_steps)


def compile_rnn_shape(kind: str, hidden_dim: int, config: NpuConfig,
                      input_dim: Optional[int] = None) -> CompiledModel:
    """Compile an LSTM/GRU program from shapes alone.

    The returned model supports timing simulation and program inspection;
    creating a functional simulator raises :class:`CompileError` because
    no weights exist. Avoids materializing hundreds of megabytes of
    random weights when only performance is being measured.
    """
    x = input_dim if input_dim is not None else hidden_dim
    if kind == "lstm":
        return compile_lstm(LstmShapeOnly(hidden_dim, x), config,
                            name=f"lstm{hidden_dim}")
    if kind == "gru":
        return compile_gru(GruShapeOnly(hidden_dim, x), config,
                           name=f"gru{hidden_dim}")
    raise CompileError(f"unknown RNN kind {kind!r}")


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

def compile_lstm(model: LstmReference, config: NpuConfig,
                 name: str = "lstm") -> CompiledModel:
    """Lower an LSTM onto the NPU (the Section IV-C program)."""
    n = config.native_dim
    h, x_dim = model.hidden_dim, model.input_dim
    rows = _vector_count(h, n)
    cols = _vector_count(h, n)
    cols_x = _vector_count(x_dim, n)

    alloc = RegisterAllocator(config)
    for gate in ("f", "i", "o", "c"):
        alloc.alloc_matrix(h, x_dim, f"W_{gate}")
        alloc.alloc_matrix(h, h, f"U_{gate}")
    ivrf_xt = alloc.alloc(MemId.InitialVrf, cols_x, "xt")
    ivrf_h_prev = alloc.alloc(MemId.InitialVrf, cols, "h_prev")
    ivrf_ct = alloc.alloc(MemId.InitialVrf, rows, "ct")
    bias = {g: alloc.alloc(MemId.AddSubVrf, rows, f"b_{g}")
            for g in ("f", "i", "o", "c")}
    xw = {g: alloc.alloc(MemId.AddSubVrf, rows, f"xW_{g}")
          for g in ("f", "i", "o", "c")}
    asvrf_ft_mod = alloc.alloc(MemId.AddSubVrf, rows, "ft_mod")
    mul_c_prev = alloc.alloc(MemId.MultiplyVrf, rows, "c_prev")
    mul_it = alloc.alloc(MemId.MultiplyVrf, rows, "it")
    mul_ot = alloc.alloc(MemId.MultiplyVrf, rows, "ot")

    b = ProgramBuilder(name)
    dims = _DimTracker(b)
    with b.loop("steps"):
        # xt = next network input.
        dims.set(rows=cols_x)
        b.v_rd(MemId.NetQ)
        b.v_wr(MemId.InitialVrf, ivrf_xt.base)
        # xW_g = xt * W_g + b_g for each gate.
        dims.set(rows=rows, cols=cols_x)
        for gate in ("f", "i", "o", "c"):
            b.v_rd(MemId.InitialVrf, ivrf_xt.base)
            b.mv_mul(alloc.slot(f"W_{gate}").base)
            b.vv_add(bias[gate].base)
            b.v_wr(MemId.AddSubVrf, xw[gate].base)
        dims.set(rows=rows, cols=cols)
        # f gate -> multiply by c_prev.
        b.v_rd(MemId.InitialVrf, ivrf_h_prev.base)
        b.mv_mul(alloc.slot("U_f").base)
        b.vv_add(xw["f"].base)
        b.v_sigm()
        b.vv_mul(mul_c_prev.base)
        b.v_wr(MemId.AddSubVrf, asvrf_ft_mod.base)
        # i gate.
        b.v_rd(MemId.InitialVrf, ivrf_h_prev.base)
        b.mv_mul(alloc.slot("U_i").base)
        b.vv_add(xw["i"].base)
        b.v_sigm()
        b.v_wr(MemId.MultiplyVrf, mul_it.base)
        # o gate.
        b.v_rd(MemId.InitialVrf, ivrf_h_prev.base)
        b.mv_mul(alloc.slot("U_o").base)
        b.vv_add(xw["o"].base)
        b.v_sigm()
        b.v_wr(MemId.MultiplyVrf, mul_ot.base)
        # c gate -> store ct and c_prev.
        b.v_rd(MemId.InitialVrf, ivrf_h_prev.base)
        b.mv_mul(alloc.slot("U_c").base)
        b.vv_add(xw["c"].base)
        b.v_tanh()
        b.vv_mul(mul_it.base)
        b.vv_add(asvrf_ft_mod.base)
        b.v_wr(MemId.MultiplyVrf, mul_c_prev.base)
        b.v_wr(MemId.InitialVrf, ivrf_ct.base)
        # produce ht, store and send to network.
        dims.set(rows=rows)
        b.v_rd(MemId.InitialVrf, ivrf_ct.base)
        b.v_tanh()
        b.vv_mul(mul_ot.base)
        b.v_wr(MemId.InitialVrf, ivrf_h_prev.base)
        b.v_wr(MemId.NetQ)
    program = b.build()

    def loader(sim: FunctionalSimulator) -> None:
        if not hasattr(model, "W"):
            raise CompileError(
                f"{name} was compiled from shapes only (timing use); "
                "compile from a reference model to execute functionally")
        for gate in ("f", "i", "o", "c"):
            sim.load_matrix(alloc.slot(f"W_{gate}").base, model.W[gate])
            sim.load_matrix(alloc.slot(f"U_{gate}").base, model.U[gate])
            sim.vrfs[MemId.AddSubVrf].write(
                bias[gate].base, _padded(model.b[gate], rows, n))

    return CompiledModel(
        name=name, kind="lstm", config=config, program=program,
        allocator=alloc, loader=loader,
        input_length=x_dim, output_length=h,
        input_vectors_per_step=cols_x, output_vectors_per_step=rows,
        ops_per_step=model.shape(1).ops_per_step,
    )


# ---------------------------------------------------------------------------
# GRU (DeepBench / cuDNN variant)
# ---------------------------------------------------------------------------

def compile_gru(model: GruReference, config: NpuConfig,
                name: str = "gru") -> CompiledModel:
    """Lower a GRU onto the NPU.

    Per step: three ``xW`` chains, the r and z gate chains, a ``1 - z``
    chain, a ``z * h_prev`` chain, and a fused candidate/output chain
    computing ``h' = (1-z) * tanh(xW_h + r*(U_h h)) + z * h``.
    """
    n = config.native_dim
    h, x_dim = model.hidden_dim, model.input_dim
    rows = _vector_count(h, n)
    cols = _vector_count(h, n)
    cols_x = _vector_count(x_dim, n)

    alloc = RegisterAllocator(config)
    for gate in ("r", "z", "h"):
        alloc.alloc_matrix(h, x_dim, f"W_{gate}")
        alloc.alloc_matrix(h, h, f"U_{gate}")
    ivrf_xt = alloc.alloc(MemId.InitialVrf, cols_x, "xt")
    ivrf_h_prev = alloc.alloc(MemId.InitialVrf, cols, "h_prev")
    bias = {g: alloc.alloc(MemId.AddSubVrf, rows, f"b_{g}")
            for g in ("r", "z", "h")}
    xw = {g: alloc.alloc(MemId.AddSubVrf, rows, f"xW_{g}")
          for g in ("r", "z", "h")}
    asvrf_ones = alloc.alloc(MemId.AddSubVrf, rows, "ones")
    asvrf_zh = alloc.alloc(MemId.AddSubVrf, rows, "zh")
    mul_r = alloc.alloc(MemId.MultiplyVrf, rows, "rt")
    mul_z = alloc.alloc(MemId.MultiplyVrf, rows, "zt")
    mul_zbar = alloc.alloc(MemId.MultiplyVrf, rows, "zbar")

    b = ProgramBuilder(name)
    dims = _DimTracker(b)
    with b.loop("steps"):
        dims.set(rows=cols_x)
        b.v_rd(MemId.NetQ)
        b.v_wr(MemId.InitialVrf, ivrf_xt.base)
        dims.set(rows=rows, cols=cols_x)
        for gate in ("r", "z", "h"):
            b.v_rd(MemId.InitialVrf, ivrf_xt.base)
            b.mv_mul(alloc.slot(f"W_{gate}").base)
            b.vv_add(bias[gate].base)
            b.v_wr(MemId.AddSubVrf, xw[gate].base)
        dims.set(rows=rows, cols=cols)
        # r gate.
        b.v_rd(MemId.InitialVrf, ivrf_h_prev.base)
        b.mv_mul(alloc.slot("U_r").base)
        b.vv_add(xw["r"].base)
        b.v_sigm()
        b.v_wr(MemId.MultiplyVrf, mul_r.base)
        # z gate.
        b.v_rd(MemId.InitialVrf, ivrf_h_prev.base)
        b.mv_mul(alloc.slot("U_z").base)
        b.vv_add(xw["z"].base)
        b.v_sigm()
        b.v_wr(MemId.MultiplyVrf, mul_z.base)
        dims.set(rows=rows)
        # zbar = 1 - z.
        b.v_rd(MemId.MultiplyVrf, mul_z.base)
        b.vv_b_sub_a(asvrf_ones.base)
        b.v_wr(MemId.MultiplyVrf, mul_zbar.base)
        # zh = z * h_prev.
        b.v_rd(MemId.InitialVrf, ivrf_h_prev.base)
        b.vv_mul(mul_z.base)
        b.v_wr(MemId.AddSubVrf, asvrf_zh.base)
        dims.set(rows=rows, cols=cols)
        # h' = (1-z) * tanh(xW_h + r * (U_h h_prev)) + z*h_prev.
        b.v_rd(MemId.InitialVrf, ivrf_h_prev.base)
        b.mv_mul(alloc.slot("U_h").base)
        b.vv_mul(mul_r.base)
        b.vv_add(xw["h"].base)
        b.v_tanh()
        b.vv_mul(mul_zbar.base)
        b.vv_add(asvrf_zh.base)
        b.v_wr(MemId.InitialVrf, ivrf_h_prev.base)
        b.v_wr(MemId.NetQ)
    program = b.build()

    def loader(sim: FunctionalSimulator) -> None:
        if not hasattr(model, "W"):
            raise CompileError(
                f"{name} was compiled from shapes only (timing use); "
                "compile from a reference model to execute functionally")
        for gate in ("r", "z", "h"):
            sim.load_matrix(alloc.slot(f"W_{gate}").base, model.W[gate])
            sim.load_matrix(alloc.slot(f"U_{gate}").base, model.U[gate])
            sim.vrfs[MemId.AddSubVrf].write(
                bias[gate].base, _padded(model.b[gate], rows, n))
        sim.vrfs[MemId.AddSubVrf].write(
            asvrf_ones.base, np.ones((rows, n), dtype=np.float32))

    return CompiledModel(
        name=name, kind="gru", config=config, program=program,
        allocator=alloc, loader=loader,
        input_length=x_dim, output_length=h,
        input_vectors_per_step=cols_x, output_vectors_per_step=rows,
        ops_per_step=model.shape(1).ops_per_step,
    )


# ---------------------------------------------------------------------------
# Convolution (im2col-linearized, Section IV-B)
# ---------------------------------------------------------------------------

def compile_conv(spec: ConvSpec, weights: np.ndarray, config: NpuConfig,
                 bias: Optional[np.ndarray] = None, relu: bool = False,
                 name: str = "conv") -> "CompiledConv":
    """Lower one conv layer: a GEMV per output pixel over im2col patches.

    Patch vectors stream in over the network queue (one per output pixel);
    the kernel matrix ``K x (R*S*C)`` is pinned in the MRF. The host-side
    im2col stands in for the CPU sub-graph of the federated runtime.
    """
    n = config.native_dim
    k, patch = spec.as_matrix_shape()
    rows = _vector_count(k, n)
    cols = _vector_count(patch, n)

    alloc = RegisterAllocator(config)
    alloc.alloc_matrix(k, patch, "kernel")
    bias_slot = alloc.alloc(MemId.AddSubVrf, rows, "bias")

    b = ProgramBuilder(name)
    dims = _DimTracker(b)
    dims.set(rows=rows, cols=cols)
    with b.loop("steps"):
        b.v_rd(MemId.NetQ)
        b.mv_mul(alloc.slot("kernel").base)
        b.vv_add(bias_slot.base)
        if relu:
            b.v_relu()
        b.v_wr(MemId.NetQ)
    program = b.build()

    weights = np.asarray(weights, dtype=np.float32)
    matrix = weights.reshape(k, patch)
    bias_vec = (np.zeros(k, dtype=np.float32) if bias is None
                else np.asarray(bias, dtype=np.float32))

    def loader(sim: FunctionalSimulator) -> None:
        sim.load_matrix(alloc.slot("kernel").base, matrix)
        sim.vrfs[MemId.AddSubVrf].write(
            bias_slot.base, _padded(bias_vec, rows, n))

    compiled = CompiledConv(
        name=name, kind="conv", config=config, program=program,
        allocator=alloc, loader=loader,
        input_length=patch, output_length=k,
        input_vectors_per_step=cols, output_vectors_per_step=rows,
        ops_per_step=2 * k * patch,
    )
    compiled.spec = spec
    return compiled


@dataclasses.dataclass
class CompiledConv(CompiledModel):
    """A compiled conv layer with an image-level convenience API."""

    spec: ConvSpec = None  # set by compile_conv

    def run_image(self, activations: np.ndarray,
                  exact: bool = False) -> np.ndarray:
        """Convolve a full (H, W, C) activation map; returns
        (out_h, out_w, K)."""
        patches = im2col(activations, self.spec)
        outputs = self.run_sequence(list(patches), exact=exact)
        stacked = np.stack(outputs)
        return stacked.reshape(self.spec.out_height, self.spec.out_width,
                               self.spec.kernels)
