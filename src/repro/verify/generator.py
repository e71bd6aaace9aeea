"""Seeded random generator of well-formed NPU programs.

Produces :class:`ProgramCase` objects — a small NPU configuration, a
validated :class:`~repro.isa.program.NpuProgram`, and the initial
architectural state it runs against — suitable for differential
execution on the reference interpreter and both functional-simulator
paths.

Generation is constraint-tracking rather than generate-and-filter: the
generator knows the live ``rows``/``columns`` values, the network-queue
balance, the populated DRAM regions, and the MFU routing capacity, so
every emitted program executes without errors by construction. Opcode
mix is steered by a :class:`FuzzProfile` (Table II opcode weights).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import NpuConfig
from ..isa import instructions as ins
from ..isa.chain import InstructionChain
from ..isa.memspace import MemId, ScalarReg
from ..isa.opcodes import FuCategory, Opcode
from ..isa.program import Loop, NpuProgram, SetScalar

def _fuzz_config(name: str, dim: int, mb: int, **kw) -> NpuConfig:
    return NpuConfig(name=name, tile_engines=2, lanes=4, native_dim=dim,
                     mrf_size=48, mfus=2, initial_vrf_depth=32,
                     addsub_vrf_depth=32, multiply_vrf_depth=32,
                     mantissa_bits=mb, **kw)


#: Pool of small configurations the fuzzer draws from: BFP-quantized at
#: both Table IV mantissa widths, exact mode, a wider native dimension,
#: the Microscaling-style format family (sub-native scale blocks,
#: E8M0 power-of-two scales, per-tile granularity) and one format too
#: wide to pack (``fuzz16_m7``: a 16-wide block of 7-bit mantissas
#: leaves room for two slots per float64 lane, so its ``mv_mul`` runs
#: the unpacked mantissa GEMV). All are tiny so the pure-python
#: reference stays fast, but ``fuzz128_m2``: the served format and
#: native dimension, whose batched arrays reach the float16 kernel.
FUZZ_CONFIGS: Dict[str, NpuConfig] = {
    cfg.name: cfg for cfg in [
        _fuzz_config("fuzz8_m2", 8, 2),
        _fuzz_config("fuzz8_m5", 8, 5),
        _fuzz_config("fuzz8_exact", 8, 0),
        _fuzz_config("fuzz16_m2", 16, 2),
        # -- format-family configs (the ``formats`` profile pool) --------
        _fuzz_config("fuzz16_mx8", 16, 7, exponent_bits=8,
                     bfp_block_size=4, scale_encoding="e8m0"),
        _fuzz_config("fuzz16_mx4", 16, 3, exponent_bits=8,
                     bfp_block_size=8, scale_encoding="e8m0"),
        _fuzz_config("fuzz8_b4", 8, 2, bfp_block_size=4),
        _fuzz_config("fuzz8_b2m5", 8, 5, bfp_block_size=2),
        _fuzz_config("fuzz8_tile", 8, 3, bfp_block_size=4,
                     scale_granularity="tile"),
        _fuzz_config("fuzz16_tile_mx", 16, 5, exponent_bits=8,
                     bfp_block_size=4, scale_granularity="tile",
                     scale_encoding="e8m0"),
        _fuzz_config("fuzz16_m7", 16, 7),
        _fuzz_config("fuzz128_m2", 128, 2),
    ]
}

#: Configuration names a profile without a ``config_pool`` draws from:
#: all but ``fuzz16_m7``, which only the ``recurrent`` profile draws,
#: and ``fuzz128_m2``, which none does, so adding them moved no cases.
DEFAULT_POOL = tuple(sorted(set(FUZZ_CONFIGS) - {"fuzz16_m7", "fuzz128_m2"}))

#: Configuration names the format-family profile cycles through: every
#: scale-block size, encoding, and granularity variant plus one classic
#: whole-row format as the nb == 1 control.
FORMAT_POOL = ("fuzz16_mx8", "fuzz16_mx4", "fuzz8_b4", "fuzz8_b2m5",
               "fuzz8_tile", "fuzz16_tile_mx", "fuzz8_m2")


@dataclasses.dataclass(frozen=True)
class FuzzProfile:
    """Opcode/shape weights steering program generation."""

    name: str = "default"
    #: Relative weight of a matrix-chain event (scalar writes weigh
    #: :data:`_W_SCALAR_WRITE`, vector chains :data:`_W_VECTOR_CHAIN`).
    w_matrix_chain: float = 1.5
    #: Probability a vector chain carries an ``mv_mul``.
    p_mv_mul: float = 0.55
    #: Probability a chain head / terminal touches the network queue.
    p_netq: float = 0.25
    #: Mean number of point-wise ops per vector chain.
    mean_pointwise: float = 2.0
    #: Probability of a multicast (second ``v_wr``) terminal.
    p_multicast: float = 0.2
    #: Restrict the per-seed configuration draw to these
    #: :data:`FUZZ_CONFIGS` names (``None`` = :data:`DEFAULT_POOL`).
    config_pool: Optional[Sequence[str]] = None
    #: Probability the MRF window is pinned before the program runs
    #: (``ProgramCase.mrf_tiles``, the serving model's resident weights)
    #: instead of written by an in-program ``m_rd``/``m_wr`` prologue.
    #: A pinned case models a serving node: its matrix chains write
    #: DRAM, never the MRF, so its plan is batchable. Unpinned cases
    #: keep ``m_wr(MatrixRf)`` coverage through the interpreters.
    p_pinned_mrf: float = 0.5
    #: Probability a vector-chain event becomes an input projection: a
    #: counted loop of a pure ``v_rd NetQ -> v_wr`` copy chain and one
    #: or two ``mv_mul`` chains reading the copied window (the RNN
    #: lowerings' ``x_t * W`` pattern, which batched replay hoists).
    p_projection: float = 0.0
    #: Probability a vector-chain event becomes a fusable ``mv_mul``
    #: group: 2-4 chains reading one VRF head, each running the same
    #: pointwise ops over operand rows laid out in member order (the
    #: RNN gate pattern, whose shared ops batched replay fuses).
    p_fused_group: float = 0.0
    #: Probability an initial VRF row or queued network-input vector is
    #: all +0.0 or, with even odds, all -0.0: an ``mv_mul`` reading only
    #: such rows (an RNN's first step on the zero state) is answered
    #: without its weights by batched replay.
    p_zero_row: float = 0.0
    #: Probability a pinned MRF window holds one NaN weight, which makes
    #: its output row NaN for any input, zero rows included.
    p_nan_weight: float = 0.0
    #: Probability a pinned MRF window takes the compiler's padding
    #: pattern: the trailing rows and columns of every tile all zero
    #: (a NaN weight there kept), so batched replay keeps its operand
    #: stacks without those lanes and columns.
    p_padded_window: float = 0.0
    #: Probability an initial VRF row or queued network-input vector
    #: holds a NaN, which makes every ``mv_mul`` output of a row reading
    #: it NaN, trimmed lanes included.
    p_nan_input: float = 0.0


#: Named opcode-weight profiles for the CLI.
PROFILES: Dict[str, FuzzProfile] = {
    "default": FuzzProfile(),
    "mvm": FuzzProfile(name="mvm", p_mv_mul=0.95, w_matrix_chain=3.0,
                       mean_pointwise=1.0, p_fused_group=0.3,
                       p_zero_row=0.15, p_nan_weight=0.25,
                       p_padded_window=0.5, p_nan_input=0.02),
    "pointwise": FuzzProfile(name="pointwise", p_mv_mul=0.1,
                             w_matrix_chain=0.5, mean_pointwise=3.5,
                             p_multicast=0.35),
    "memory": FuzzProfile(name="memory", p_mv_mul=0.3, w_matrix_chain=4.0,
                          p_netq=0.5, mean_pointwise=0.8),
    "formats": FuzzProfile(name="formats", p_mv_mul=0.9,
                           w_matrix_chain=2.5, mean_pointwise=1.0,
                           config_pool=FORMAT_POOL),
    "recurrent": FuzzProfile(name="recurrent", w_matrix_chain=0.3,
                             p_netq=0.35, p_pinned_mrf=1.0,
                             p_projection=0.35, p_fused_group=0.25,
                             p_zero_row=0.15, p_nan_weight=0.25,
                             p_padded_window=0.5, p_nan_input=0.02,
                             config_pool=DEFAULT_POOL + ("fuzz16_m7",)),
}

#: Relative weights of scalar-write and vector-chain events.
_W_SCALAR_WRITE = 2.0
_W_VECTOR_CHAIN = 8.0
#: Maximum mega-SIMD rows/columns multiplier.
_MAX_DIM = 3
#: Events per program (before loop folding), inclusive.
_MIN_EVENTS, _MAX_EVENTS = 4, 14

#: Point-wise opcodes (Table II PWV rows), drawn with equal odds.
_POINTWISE = (Opcode.VV_ADD, Opcode.VV_A_SUB_B, Opcode.VV_B_SUB_A,
              Opcode.VV_MAX, Opcode.VV_MUL, Opcode.V_RELU, Opcode.V_SIGM,
              Opcode.V_TANH)
_POINTWISE_P = np.full(len(_POINTWISE), 1.0 / len(_POINTWISE))

_FU_OF = {Opcode.VV_ADD: FuCategory.ADD_SUB,
          Opcode.VV_A_SUB_B: FuCategory.ADD_SUB,
          Opcode.VV_B_SUB_A: FuCategory.ADD_SUB,
          Opcode.VV_MAX: FuCategory.ADD_SUB,
          Opcode.VV_MUL: FuCategory.MULTIPLY,
          Opcode.V_RELU: FuCategory.ACTIVATION,
          Opcode.V_SIGM: FuCategory.ACTIVATION,
          Opcode.V_TANH: FuCategory.ACTIVATION}


@dataclasses.dataclass
class ProgramCase:
    """One fuzz case: configuration, program, and initial state."""

    config: NpuConfig
    program: NpuProgram
    #: Initial VRF contents, full arrays of shape (depth, N).
    vrf_init: Dict[MemId, np.ndarray]
    #: Pre-populated DRAM vector region starting at index 0, (D, N).
    dram_vectors: np.ndarray
    #: Pre-populated DRAM tile region starting at index 0, (T, N, N).
    dram_tiles: np.ndarray
    #: Vectors queued on the network input, (Q, N).
    netq_vectors: np.ndarray
    #: Matrix tiles queued on the network input, (QT, N, N).
    netq_tiles: np.ndarray
    #: Provenance note (seed, profile, shrink history).
    note: str = ""
    #: MRF tiles pinned from slot 0 before the program runs, (W, N, N),
    #: quantized on write like ``m_wr``; ``None``: the MRF starts zeroed.
    mrf_tiles: Optional[np.ndarray] = None

    def instruction_count(self) -> int:
        """Chain instructions plus scalar writes (``end_chain`` markers
        excluded) — the size metric used for shrink reporting."""
        count = 0
        for item in _walk(self.program.items):
            if isinstance(item, SetScalar):
                count += 1
            else:
                count += len(item)
        return count


def _walk(items):
    for item in items:
        if isinstance(item, Loop):
            yield from _walk(item.body)
        else:
            yield item


class _GenState:
    """Constraint-tracking state threaded through generation."""

    def __init__(self, rng: np.random.Generator, config: NpuConfig,
                 profile: FuzzProfile):
        self.rng = rng
        self.config = config
        self.profile = profile
        self.rows = 1
        self.cols = 1
        n = config.native_dim
        self.dram_vec_count = 16
        self.dram_tile_count = 16
        #: MRF window the program initializes and mv_mul may address.
        self.mrf_window = min(12, config.mrf_address_space)
        self.netq_vectors = int(rng.integers(0, 12))
        self.netq_tiles = int(rng.integers(0, 8))
        self.netq_vec_left = self.netq_vectors
        self.netq_tile_left = self.netq_tiles
        self.native_dim = n
        #: Weights pinned before the run: no event writes the MRF.
        self.pinned = False

    def rand_values(self, shape) -> np.ndarray:
        """Random float32 values with a wide but finite dynamic range."""
        base = self.rng.standard_normal(shape)
        scale = np.exp2(self.rng.integers(-4, 5, size=shape).astype(
            np.float64))
        return (base * scale).astype(np.float32)


def generate_case(seed: int, profile: Optional[FuzzProfile] = None,
                  config: Optional[NpuConfig] = None) -> ProgramCase:
    """Generate one deterministic, well-formed fuzz case for ``seed``."""
    profile = profile or PROFILES["default"]
    rng = np.random.default_rng(seed)
    if config is None:
        names = list(profile.config_pool or DEFAULT_POOL)
        config = FUZZ_CONFIGS[names[int(rng.integers(len(names)))]]
    state = _GenState(rng, config, profile)

    events: List[object] = []
    pinned = (profile.p_pinned_mrf > 0
              and rng.random() < profile.p_pinned_mrf)
    state.pinned = pinned
    if not pinned:
        _emit_mrf_init(state, events)
    n_events = int(rng.integers(_MIN_EVENTS, _MAX_EVENTS + 1))
    weights = np.array([_W_SCALAR_WRITE, profile.w_matrix_chain,
                        _W_VECTOR_CHAIN], dtype=np.float64)
    weights /= weights.sum()
    for _ in range(n_events):
        kind = rng.choice(3, p=weights)
        if kind == 0:
            _emit_scalar_write(state, events)
        elif kind == 1:
            _emit_matrix_chain(state, events)
        elif (profile.p_projection > 0
              and rng.random() < profile.p_projection):
            _emit_projection(state, events)
        elif (profile.p_fused_group > 0
              and rng.random() < profile.p_fused_group):
            _emit_fused_group(state, events)
        else:
            _emit_vector_chain(state, events)

    items = _fold_loops(state, events)
    program = NpuProgram(tuple(items), name=f"fuzz-{seed}")
    depths = {MemId.InitialVrf: config.initial_vrf_depth,
              MemId.AddSubVrf: config.addsub_vrf_depth,
              MemId.MultiplyVrf: config.multiply_vrf_depth}
    case = ProgramCase(
        config=config,
        program=program,
        vrf_init={mem: state.rand_values((depth, config.native_dim))
                  for mem, depth in depths.items()},
        dram_vectors=state.rand_values(
            (state.dram_vec_count, config.native_dim)),
        dram_tiles=state.rand_values(
            (state.dram_tile_count, config.native_dim, config.native_dim)),
        netq_vectors=state.rand_values(
            (state.netq_vectors, config.native_dim)),
        netq_tiles=state.rand_values(
            (state.netq_tiles, config.native_dim, config.native_dim)),
        note=f"seed={seed} profile={profile.name} config={config.name}",
        mrf_tiles=(state.rand_values((state.mrf_window, config.native_dim,
                                      config.native_dim))
                   if pinned else None),
    )
    # Drawn last, so a profile without them keeps its cases, and one
    # with them differs from that only in the rows and weights set here.
    if profile.p_zero_row > 0:
        for rows in (*case.vrf_init.values(), case.netq_vectors):
            _zero_rows(rng, rows, profile.p_zero_row)
    if (pinned and profile.p_nan_weight > 0
            and rng.random() < profile.p_nan_weight):
        tiles = case.mrf_tiles
        at = tuple(int(rng.integers(size)) for size in tiles.shape)
        tiles[at] = -np.nan if rng.random() < 0.5 else np.nan
    if (pinned and profile.p_padded_window > 0
            and rng.random() < profile.p_padded_window):
        _pad_tiles(rng, case.mrf_tiles)
    if profile.p_nan_input > 0:
        for rows in (*case.vrf_init.values(), case.netq_vectors):
            _nan_rows(rng, rows, profile.p_nan_input)
    return case


def _pad_tiles(rng: np.random.Generator, tiles: np.ndarray) -> None:
    """Zero the trailing rows and columns of every (N, N) tile, as
    padding a smaller matrix to whole tiles does, keeping NaN weights."""
    n = tiles.shape[-1]
    live_rows, live_cols = (int(v) for v in rng.integers(1, n, size=2))
    pad = np.zeros(tiles.shape[1:], dtype=bool)
    pad[live_rows:] = True
    pad[:, live_cols:] = True
    tiles[pad & ~np.isnan(tiles)] = 0.0


def _zero_rows(rng: np.random.Generator, rows: np.ndarray,
               p: float) -> None:
    """Set each row of ``rows`` to all +0.0 or all -0.0 with odds ``p``."""
    chosen = np.flatnonzero(rng.random(len(rows)) < p)
    negative = rng.random(len(chosen)) < 0.5
    rows[chosen] = np.where(negative, np.float32(-0.0),
                            np.float32(0.0))[:, np.newaxis]


def _nan_rows(rng: np.random.Generator, rows: np.ndarray, p: float) -> None:
    """Put a NaN at one position of each row of ``rows`` with odds
    ``p``. Always +NaN, which every kernel keeps as it is: ``tanh``
    and ``sigm`` turn a -NaN into +NaN, and where the two meet in one
    ``vv_*`` op the batched and the per-request numpy loops may keep
    different ones."""
    chosen = np.flatnonzero(rng.random(len(rows)) < p)
    rows[chosen, rng.integers(rows.shape[1], size=len(chosen))] = np.nan


# -- event emitters --------------------------------------------------------

def _emit_mrf_init(state: _GenState, events: List[object]) -> None:
    """Program prologue: initialize the MRF window via matrix chains so
    ``mv_mul`` reads quantized-on-write weights, exercising m_rd/m_wr."""
    rng = state.rng
    window = state.mrf_window
    rows = int(rng.integers(1, 4))
    cols = max(1, window // rows // 2)
    if rows != state.rows:
        events.append(SetScalar(ScalarReg.Rows, rows))
        state.rows = rows
    if cols != state.cols:
        events.append(SetScalar(ScalarReg.Columns, cols))
        state.cols = cols
    count = rows * cols
    filled = 0
    while filled < window:
        count = min(count, window - filled)
        if count != state.rows * state.cols:
            # Trailing partial group: drop to single-tile moves.
            if state.rows != 1:
                events.append(SetScalar(ScalarReg.Rows, 1))
                state.rows = 1
            if state.cols != 1:
                events.append(SetScalar(ScalarReg.Columns, 1))
                state.cols = 1
            count = 1
        src = int(rng.integers(0, state.dram_tile_count - count + 1))
        events.append(InstructionChain([
            ins.m_rd(MemId.Dram, src),
            ins.m_wr(MemId.MatrixRf, filled)]))
        filled += count


def _emit_scalar_write(state: _GenState, events: List[object]) -> None:
    rng = state.rng
    reg = ScalarReg(int(rng.choice(
        [ScalarReg.Rows, ScalarReg.Columns, ScalarReg.Iterations],
        p=[0.45, 0.45, 0.1])))
    if reg is ScalarReg.Iterations:
        value = int(rng.integers(0, 16))
    else:
        value = int(rng.integers(1, _MAX_DIM + 1))
        if reg is ScalarReg.Rows:
            state.rows = value
        else:
            state.cols = value
    events.append(SetScalar(reg, value))


def _emit_matrix_chain(state: _GenState, events: List[object]) -> None:
    rng = state.rng
    count = state.rows * state.cols
    if count > state.dram_tile_count:
        return  # current mega-SIMD group too large for the tile region
    sources = [MemId.Dram]
    if state.netq_tile_left >= count:
        sources.append(MemId.NetQ)
    src = sources[int(rng.integers(len(sources)))]
    if src is MemId.NetQ and rng.random() < state.profile.p_netq:
        state.netq_tile_left -= count
        rd = ins.m_rd(MemId.NetQ)
    else:
        rd = ins.m_rd(MemId.Dram, int(rng.integers(
            0, state.dram_tile_count - count + 1)))
    if (rng.random() < 0.7 and not state.pinned
            and count <= state.config.mrf_address_space):
        wr = ins.m_wr(MemId.MatrixRf, int(rng.integers(
            0, state.config.mrf_address_space - count + 1)))
    else:
        wr = ins.m_wr(MemId.Dram, int(rng.integers(
            0, state.dram_tile_count - count + 1)))
    events.append(InstructionChain([rd, wr]))


def _emit_vector_chain(state: _GenState, events: List[object]) -> None:
    rng = state.rng
    profile = state.profile
    rows, cols = state.rows, state.cols
    has_mvm = (rng.random() < profile.p_mv_mul
               and rows * cols <= state.mrf_window)
    width_in = cols if has_mvm else rows

    instrs: List[object] = [_head_read(state, width_in)]
    if has_mvm:
        base = int(rng.integers(0, state.mrf_window - rows * cols + 1))
        instrs.append(ins.mv_mul(base))
    instrs.extend(_pointwise_run(state))
    instrs.append(_terminal_write(state, rows))
    if rng.random() < profile.p_multicast:
        instrs.append(_terminal_write(state, rows))
    events.append(InstructionChain(instrs))


def _emit_projection(state: _GenState, events: List[object]) -> None:
    """An input projection as a counted loop: a pure copy chain from the
    network queue into a VRF window, then one or two ``mv_mul`` chains
    reading (part of) that window. Their terminal writes may overwrite
    the window, which batched replay must then refuse to hoist."""
    rng = state.rng
    if state.rows < state.cols:
        events.append(SetScalar(ScalarReg.Rows, state.cols))
        state.rows = state.cols
    rows, cols = state.rows, state.cols
    if rows * cols > state.mrf_window:
        _emit_vector_chain(state, events)
        return
    mem = (MemId.InitialVrf, MemId.AddSubVrf,
           MemId.MultiplyVrf)[int(rng.integers(3))]
    index = int(rng.integers(0, _vrf_depth(state.config, mem) - rows + 1))
    count = int(rng.integers(2, 4))
    state.netq_vectors += count * rows
    body = [InstructionChain([ins.v_rd(MemId.NetQ), ins.v_wr(mem, index)])]
    for _ in range(int(rng.integers(1, 3))):
        offset = int(rng.integers(0, rows - cols + 1))
        base = int(rng.integers(0, state.mrf_window - rows * cols + 1))
        body.append(InstructionChain(
            [ins.v_rd(mem, index + offset), ins.mv_mul(base)]
            + _pointwise_run(state) + [_terminal_write(state, rows)]))
    events.append(Loop(count, tuple(body)))


def _emit_fused_group(state: _GenState, events: List[object]) -> None:
    """2-4 ``mv_mul`` chains on one VRF head, each running the same
    pointwise ops, member m's operand rows ``m * rows`` after member
    0's; with even odds their terminal writes to one VRF are laid out
    the same way (otherwise each member writes where it likes).

    Rows are set to ``_MAX_DIM``: three 8- or 16-lane rows fill whole
    packed lanes at 3, 4 or 6 slots per lane, which fusing a packed
    group needs. A write may land on the head or on another member's
    operands; the plan must then fuse less or not at all."""
    rng = state.rng
    config = state.config
    rows = _MAX_DIM
    if state.rows != rows:
        events.append(SetScalar(ScalarReg.Rows, rows))
        state.rows = rows
    cols = state.cols
    count = int(rng.integers(2, 5))
    if rows * cols > state.mrf_window:
        _emit_vector_chain(state, events)
        return
    mem = (MemId.InitialVrf, MemId.AddSubVrf,
           MemId.MultiplyVrf)[int(rng.integers(3))]
    head = ins.v_rd(mem, int(rng.integers(
        0, _vrf_depth(config, mem) - cols + 1)))
    # (opcode, member 0's operand row or None) per pointwise op.
    ops = []
    for op in _pointwise_run(state) or [ins.Instruction(Opcode.V_TANH)]:
        index = None
        if op.operand1 is not None:
            depth = (config.multiply_vrf_depth if op.opcode is Opcode.VV_MUL
                     else config.addsub_vrf_depth)
            index = int(rng.integers(0, depth - count * rows + 1))
        ops.append((op.opcode, index))
    out_mem = None
    if rng.random() < 0.5:
        out_mem = (MemId.InitialVrf, MemId.AddSubVrf,
                   MemId.MultiplyVrf)[int(rng.integers(3))]
        out_index = int(rng.integers(
            0, _vrf_depth(config, out_mem) - count * rows + 1))
    for m in range(count):
        base = int(rng.integers(0, state.mrf_window - rows * cols + 1))
        instrs = [head, ins.mv_mul(base)]
        for opcode, index in ops:
            instrs.append(ins.Instruction(opcode) if index is None
                          else ins.Instruction(opcode, index + m * rows))
        instrs.append(_terminal_write(state, rows) if out_mem is None
                      else ins.v_wr(out_mem, out_index + m * rows))
        events.append(InstructionChain(instrs))


def _head_read(state: _GenState, width_in: int):
    rng = state.rng
    sources = [MemId.InitialVrf, MemId.AddSubVrf, MemId.MultiplyVrf,
               MemId.Dram]
    if (state.netq_vec_left >= width_in
            and rng.random() < state.profile.p_netq):
        state.netq_vec_left -= width_in
        return ins.v_rd(MemId.NetQ)
    mem = sources[int(rng.integers(len(sources)))]
    limit = (state.dram_vec_count if mem is MemId.Dram
             else _vrf_depth(state.config, mem))
    if width_in > limit:
        mem = MemId.InitialVrf
        limit = state.config.initial_vrf_depth
    return ins.v_rd(mem, int(rng.integers(0, limit - width_in + 1)))


def _pointwise_run(state: _GenState) -> List[object]:
    """Sample point-wise ops under the MFU routing capacity (greedy
    placement mirroring ``InstructionChain.assign_function_units``)."""
    rng = state.rng
    target = rng.poisson(state.profile.mean_pointwise)
    ops: List[object] = []
    mfu, used = 0, set()
    for _ in range(target):
        op = _POINTWISE[int(rng.choice(len(_POINTWISE), p=_POINTWISE_P))]
        category = _FU_OF[op]
        trial_mfu, trial_used = mfu, set(used)
        while category in trial_used:
            trial_mfu += 1
            trial_used = set()
        if trial_mfu >= state.config.mfus:
            break
        mfu, used = trial_mfu, trial_used
        used.add(category)
        if op in (Opcode.V_RELU, Opcode.V_SIGM, Opcode.V_TANH):
            ops.append(ins.Instruction(op))
        else:
            mem_depth = (state.config.multiply_vrf_depth
                         if op is Opcode.VV_MUL
                         else state.config.addsub_vrf_depth)
            index = int(rng.integers(0, mem_depth - state.rows + 1))
            ops.append(ins.Instruction(op, index))
    return ops


def _terminal_write(state: _GenState, rows: int):
    rng = state.rng
    if rng.random() < state.profile.p_netq:
        return ins.v_wr(MemId.NetQ)
    targets = [MemId.InitialVrf, MemId.AddSubVrf, MemId.MultiplyVrf,
               MemId.Dram]
    mem = targets[int(rng.integers(len(targets)))]
    limit = (state.dram_vec_count if mem is MemId.Dram
             else _vrf_depth(state.config, mem))
    if rows > limit:
        mem = MemId.InitialVrf
        limit = state.config.initial_vrf_depth
    return ins.v_wr(mem, int(rng.integers(0, limit - rows + 1)))


def _vrf_depth(config: NpuConfig, mem: MemId) -> int:
    return {MemId.InitialVrf: config.initial_vrf_depth,
            MemId.AddSubVrf: config.addsub_vrf_depth,
            MemId.MultiplyVrf: config.multiply_vrf_depth}[mem]


def _fold_loops(state: _GenState, events: List[object]) -> List[object]:
    """Fold eligible spans of the flat event list into counted loops.

    A span is loopable only if it contains no scalar writes (the first
    iteration would otherwise run under different ``rows``/``columns``
    than later ones) and no loop. Network-queue reads inside a folded
    span repeat every iteration, so the queued input supply grows by
    the span's consumption times the extra iterations.
    """
    rng = state.rng
    if len(events) < 2 or rng.random() < 0.4:
        return events
    attempts = int(rng.integers(1, 3))
    items = list(events)
    for _ in range(attempts):
        if len(items) < 2:
            break
        start = int(rng.integers(0, len(items) - 1))
        length = int(rng.integers(1, min(4, len(items) - start) + 1))
        span = items[start:start + length]
        if not all(_loopable(item) for item in span):
            continue
        count = int(rng.integers(2, 4))
        vectors, tiles = _netq_demand(items[:start], span)
        state.netq_vectors += (count - 1) * vectors
        state.netq_tiles += (count - 1) * tiles
        items[start:start + length] = [Loop(count, tuple(span))]
    return items


def _loopable(item) -> bool:
    return not isinstance(item, (SetScalar, Loop))


def _netq_demand(prefix: List[object], span: List[object]) -> tuple:
    """Network-queue (vectors, tiles) one pass over ``span`` pops, under
    the ``rows``/``columns`` the scalar writes in ``prefix`` leave."""
    rows = cols = 1
    for item in prefix:
        if isinstance(item, SetScalar):
            if item.reg is ScalarReg.Rows:
                rows = item.value
            elif item.reg is ScalarReg.Columns:
                cols = item.value
    vectors = tiles = 0
    for chain in span:
        if chain.instructions[0].mem_id is not MemId.NetQ:
            continue
        if chain.is_matrix_chain:
            tiles += rows * cols
        else:
            vectors += cols if chain.has_mv_mul else rows
    return vectors, tiles
