"""Multi-FPGA model partitioning (Sections II-A, II-B).

"In latency-sensitive real-time scenarios, the toolflow can often
partition large graphs that exceed the capacity of a single FPGA into
sub-graphs whose parameters can be pinned individually into accelerators'
on-chip memory."

The partitioner packs a model's weight matrices into per-accelerator
bins under the packed MRF capacity, preserving layer order so that a
pipeline of accelerators evaluates the model with vectors flowing over
the datacenter network between stages. The paper's production
bidirectional-RNN split runs as two services
(:class:`repro.system.runtime.BidirectionalRnnService`).
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from ..config import NpuConfig
from ..errors import PartitionError


@dataclasses.dataclass(frozen=True)
class WeightBlock:
    """One weight matrix to place: a named (rows, cols) block."""

    name: str
    rows: int
    cols: int
    #: Index of the pipeline stage this block belongs to; blocks of the
    #: same stage must land on the same accelerator.
    stage: int = 0

    @property
    def elements(self) -> int:
        return self.rows * self.cols


@dataclasses.dataclass
class Partition:
    """Weight blocks assigned to one accelerator."""

    accelerator: int
    blocks: List[WeightBlock]


def capacity_elements(config: NpuConfig) -> int:
    """Packed on-chip weight capacity of one accelerator."""
    return config.mrf_capacity_elements


def partition_blocks(blocks: Sequence[WeightBlock], config: NpuConfig,
                     max_accelerators: int = 64) -> List[Partition]:
    """Pack stages onto accelerators in order, opening a new accelerator
    when the next stage no longer fits.

    Raises:
        PartitionError: if a single stage exceeds one accelerator's
            capacity, or more than ``max_accelerators`` are needed.
    """
    capacity = capacity_elements(config)
    stage_ids = sorted({b.stage for b in blocks})
    stage_elements = {
        s: sum(b.elements for b in blocks if b.stage == s)
        for s in stage_ids
    }
    for stage, elements in stage_elements.items():
        if elements > capacity:
            raise PartitionError(
                f"stage {stage} needs {elements} weight elements but one "
                f"{config.name} holds only {capacity}; split the stage "
                "or use a larger device")

    partitions: List[Partition] = []
    current = Partition(accelerator=0, blocks=[])
    used = 0
    for stage in stage_ids:
        elements = stage_elements[stage]
        if used + elements > capacity and current.blocks:
            partitions.append(current)
            current = Partition(accelerator=len(partitions), blocks=[])
            used = 0
        current.blocks.extend(b for b in blocks if b.stage == stage)
        used += elements
    if current.blocks:
        partitions.append(current)
    if len(partitions) > max_accelerators:
        raise PartitionError(
            f"model needs {len(partitions)} accelerators, limit is "
            f"{max_accelerators}")
    return partitions


def accelerators_needed(blocks: Sequence[WeightBlock],
                        config: NpuConfig) -> int:
    """Number of accelerators the partitioner uses for ``blocks``."""
    return len(partition_blocks(blocks, config))


def rnn_weight_blocks(kind: str, hidden_dim: int, input_dim: int = None,
                      layers: int = 1) -> List[WeightBlock]:
    """Weight blocks of a (possibly stacked) LSTM/GRU, one stage per
    layer."""
    gates = {"lstm": ("f", "i", "o", "c"), "gru": ("r", "z", "h")}
    if kind not in gates:
        raise PartitionError("kind must be 'lstm' or 'gru'")
    x = input_dim if input_dim is not None else hidden_dim
    blocks: List[WeightBlock] = []
    for layer in range(layers):
        in_dim = x if layer == 0 else hidden_dim
        for gate in gates[kind]:
            blocks.append(WeightBlock(f"L{layer}.W_{gate}", hidden_dim,
                                      in_dim, stage=layer))
            blocks.append(WeightBlock(f"L{layer}.U_{gate}", hidden_dim,
                                      hidden_dim, stage=layer))
    return blocks
