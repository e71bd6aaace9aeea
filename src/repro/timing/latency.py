"""Pipeline latency model of the BW NPU microarchitecture.

Derives per-chain timing from the configuration's structural parameters
(native dimension, lanes, tile engines, MFUs) plus a small set of
calibrated pipeline-depth constants.

Structural terms (exact functions of the configuration):

* **MVM issue occupancy** — ``ceil(R*C / tile_engines) * (N / lanes)``
  cycles per ``mv_mul``: each dot-product engine consumes a native row in
  ``N/lanes`` cycles and the ``R*C`` native tiles round-robin over the
  tile engines. For GRU h=2816 on BW_S10 this gives 6 x 110 = 660
  cycles/step, matching the measured 662 (Table V).
* **Accumulation depth** — ``log2(lanes)`` for the in-lane adder tree,
  ``log2(N/lanes)`` for the row accumulator, ``log2(C)`` for the
  inter-column reduction.

Calibrated constants (:class:`LatencyConstants`): fixed pipeline fill of
the MVM, per-function-unit depth, MFU crossbar transit, vector
arbitration network hop, write-back depth, and per-invocation overhead.
They are least-squares fitted against the eleven measured per-step cycle
counts of Table V and then frozen (see DESIGN.md Section 5); the fit is
reproduced by ``benchmarks/test_table5_deepbench_rnn.py``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple

from ..config import NpuConfig
from ..isa.chain import InstructionChain


@dataclasses.dataclass(frozen=True)
class LatencyConstants:
    """Calibrated pipeline-depth constants (cycles).

    Defaults were fitted against the Table V per-step latencies of the
    BW_S10 instance (see module docstring); they are structural depths,
    not model-dependent fudge factors, so the same values apply across
    configurations.
    """

    #: Vector arbitration network hop: register-file read + route-in.
    arb_depth: float = 12.0
    #: Fixed MVM pipeline fill beyond the structural tree depths
    #: (operand registering, BFP alignment, output format conversion).
    mvm_fixed: float = 40.0
    #: Depth of one point-wise function unit pass.
    fu_depth: float = 8.0
    #: MFU input/output crossbar transit per MFU traversed.
    mfu_transit: float = 8.0
    #: Write-back: route-out + register-file write.
    wb_depth: float = 24.0
    #: Producer-to-consumer forwarding delay (cycles): the vector
    #: arbitration network routes produced entries toward consumers as
    #: both streams advance, so a dependent chain trails its producer's
    #: *start* by this delay rather than by the full pipeline depth —
    #: the paper's "dataflow manner so vectors can flow directly from one
    #: functional unit to another to minimize pipeline bubbles" (§I).
    forward_delay: float = 30.0
    #: Scalar processor dispatch interval: one compound instruction
    #: enters the top-level scheduler every 4 cycles (Section V-C).
    dispatch_interval: float = 4.0
    #: Per-chain setup at the top-level scheduler: decode, hazard
    #: interlock, and configuration of the MFU crossbars and the vector
    #: arbitration network. Buffering at each HDD stage lets this stream
    #: run ahead of execution, so it bounds throughput (chains per
    #: second) rather than serializing with compute; it is the dominant
    #: term of the dimension-independent per-step latency floor the
    #: paper reports for small/medium RNNs (Section VII-B2).
    chain_setup_cycles: float = 72.0
    #: Per-invocation overhead: program launch plus network queue
    #: entry/exit (calibrated on the GRU h=512 t=1 row of Table V).
    invocation_overhead: float = 2450.0


@dataclasses.dataclass(frozen=True)
class ChainLatency:
    """Latency decomposition of one chain execution."""

    #: Cycles the chain occupies the issue pipeline (MVM or MFU stream).
    issue: float
    #: Cycles from chain start until its first output element is written.
    depth_first: float
    #: Pipeline offset (from chain start) at which each point-wise
    #: operand register file is read, in chain order.
    operand_offsets: Tuple[float, ...]

    @property
    def completion(self) -> float:
        """Cycles from start until the last output element is written."""
        return self.depth_first + self.issue


class LatencyModel:
    """Computes per-chain latencies for a configuration."""

    def __init__(self, config: NpuConfig,
                 constants: Optional[LatencyConstants] = None):
        self.config = config
        self.constants = constants if constants is not None \
            else LatencyConstants()

    def mvm_issue_cycles(self, rows: int, cols: int) -> float:
        """MVM occupancy of an ``mv_mul`` over an R x C tile grid."""
        tiles = rows * cols
        passes = math.ceil(tiles / self.config.tile_engines)
        return passes * self.config.cycles_per_native_row

    def pointwise_issue_cycles(self, rows: int) -> float:
        """Issue occupancy of a chain without an ``mv_mul``."""
        return rows * self.config.cycles_per_native_row

    def accumulation_depth(self, cols: int) -> float:
        """Structural depth of the MVM reduction network."""
        lanes = self.config.lanes
        per_row = self.config.cycles_per_native_row
        return (math.ceil(math.log2(max(lanes, 2)))
                + math.ceil(math.log2(max(per_row, 2)))
                + math.ceil(math.log2(max(cols, 2))))

    def chain_latency(self, chain: InstructionChain,
                      rows: int, cols: int) -> ChainLatency:
        """Latency decomposition for one vector chain execution."""
        c = self.constants
        depth = c.arb_depth
        if chain.has_mv_mul:
            issue = self.mvm_issue_cycles(rows, cols)
            # Pipe depth through the reduction network. The C-native-block
            # input streaming time is issue occupancy, not handoff depth:
            # a consumer's input stream overlaps with its producer's
            # output stream (both move at lanes elements/cycle), which is
            # why the paper measures an essentially dimension-independent
            # per-step latency floor (Section VII-B2).
            depth += self.accumulation_depth(cols)
            depth += c.mvm_fixed
        else:
            issue = self.pointwise_issue_cycles(rows)

        offsets: List[float] = []
        slots = chain.assign_function_units(self.config.mfus)
        last_mfu = -1
        for slot in slots:
            if slot.mfu_index != last_mfu:
                depth += c.mfu_transit
                last_mfu = slot.mfu_index
            offsets.append(depth)
            depth += c.fu_depth
        depth += c.wb_depth
        return ChainLatency(issue=issue, depth_first=depth,
                            operand_offsets=tuple(offsets))

    def matrix_chain_cycles(self, tiles: int,
                            bytes_per_element: float) -> float:
        """Cycles for an ``m_rd``/``m_wr`` chain moving ``tiles`` native
        tiles through the DRAM/network interface."""
        n = self.config.native_dim
        nbytes = tiles * n * n * bytes_per_element
        # Model the DRAM/network port at 64 bytes per cycle.
        return nbytes / 64.0
