"""Hierarchical decode and dispatch (HDD) tree model (Section V-C, Fig. 6).

The top-level scheduler expands each compound instruction into thousands
of primitive operations through a tree of schedulers and decoders: for
the BW_S10 instance, 6 top-level decoders plus 4 second-level schedulers
which dispatch to a further 41 decoders, whose control signals fan out to
hundreds of dot-product engines.

This model reconstructs the decoder tree from the configuration and
answers the two questions the paper uses it for: how many primitive
operations a single compound instruction dispatches (over 7 million for
the largest GRU's ``mv_mul``), and whether the scalar processor's
dispatch rate (one compound instruction per ~4 cycles) sustains the
compute pipeline.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List

from ..config import NpuConfig


@dataclasses.dataclass
class DecoderNode:
    """One scheduler or decoder in the HDD tree."""

    name: str
    kind: str  # "scheduler" or "decoder"
    children: List["DecoderNode"] = dataclasses.field(default_factory=list)
    #: Data-plane fanout of a leaf decoder (control signals driven).
    fanout: int = 0

    def walk(self) -> Iterator["DecoderNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclasses.dataclass
class HddTree:
    """The full decode/dispatch hierarchy for one configuration."""

    config: NpuConfig
    root: DecoderNode

    @property
    def second_level_schedulers(self) -> List[DecoderNode]:
        return [n for n in self.root.children if n.kind == "scheduler"]

    @property
    def top_level_decoders(self) -> List[DecoderNode]:
        return [n for n in self.root.children if n.kind == "decoder"]

    @property
    def third_level_decoders(self) -> List[DecoderNode]:
        out: List[DecoderNode] = []
        for sched in self.second_level_schedulers:
            out.extend(n for n in sched.walk()
                       if n is not sched and n.kind == "decoder")
        return out

    @property
    def total_nodes(self) -> int:
        return sum(1 for _ in self.root.walk())

    @property
    def data_plane_fanout(self) -> int:
        """Total control signals driven into the data plane."""
        return sum(n.fanout for n in self.root.walk())

    def mv_mul_primitive_ops(self, rows: int, cols: int) -> int:
        """Primitive MAC operations dispatched by one ``mv_mul`` with the
        mega-SIMD registers set to (rows, cols)."""
        n = self.config.native_dim
        return rows * cols * n * n

    def annotate(self, metrics, rows: int = 1, cols: int = 1) -> None:
        """Publish the tree's structural facts into a
        :class:`~repro.obs.Metrics` registry: node counts, data-plane
        fanout, and the primitive-op expansion of one ``mv_mul`` at the
        given mega-SIMD setting (Section V-C's "one compound
        instruction dispatches millions of primitive ops")."""
        metrics.gauge("hdd.total_nodes").set(self.total_nodes)
        metrics.gauge("hdd.top_level_decoders").set(
            len(self.top_level_decoders))
        metrics.gauge("hdd.second_level_schedulers").set(
            len(self.second_level_schedulers))
        metrics.gauge("hdd.third_level_decoders").set(
            len(self.third_level_decoders))
        metrics.gauge("hdd.data_plane_fanout").set(self.data_plane_fanout)
        metrics.counter("hdd.mv_mul_primitive_ops").inc(
            self.mv_mul_primitive_ops(rows, cols))


def build_hdd_tree(config: NpuConfig) -> HddTree:
    """Construct the decoder hierarchy for ``config``.

    The shape follows Fig. 6: the MVM has a second-level scheduler that
    expands operations over matrix rows and columns onto per-tile-engine
    decoder groups (tile-engine dispatcher, MRF bank, input feed,
    accumulation unit, output queue) plus one monolithic add-reduction
    decoder; each MFU has a scheduler over its function-unit and operand
    register-file decoders; network/DRAM movement has its own scheduler.
    For BW_S10 (6 tile engines, 2 MFUs) this yields 6 top-level decoders,
    4 second-level schedulers, and 41 third-level decoders — the counts
    reported in Section V-C.
    """
    root = DecoderNode("top-level scheduler", "scheduler")

    # Direct top-level decoders for globally-shared structures.
    for name in ("InitialVrf", "scalar control", "chain sequencer",
                 "NetQ ingress", "NetQ egress", "DRAM port"):
        root.children.append(DecoderNode(name, "decoder", fanout=1))

    # MVM second-level scheduler: expands along matrix rows and columns.
    mvm = DecoderNode("MVM scheduler", "scheduler")
    for e in range(config.tile_engines):
        group = [
            DecoderNode(f"tile engine {e} dispatcher", "decoder",
                        fanout=config.dot_product_engines),
            DecoderNode(f"tile engine {e} MRF bank", "decoder",
                        fanout=config.dot_product_engines * config.lanes),
            DecoderNode(f"tile engine {e} input feed", "decoder",
                        fanout=config.lanes),
            DecoderNode(f"tile engine {e} accumulator", "decoder",
                        fanout=config.dot_product_engines),
            DecoderNode(f"tile engine {e} output queue", "decoder",
                        fanout=1),
        ]
        mvm.children.extend(group)
    mvm.children.append(DecoderNode("add-reduction unit", "decoder",
                                    fanout=config.native_dim))
    root.children.append(mvm)

    # One scheduler per MFU over its function units and operand VRFs.
    for m in range(config.mfus):
        mfu = DecoderNode(f"MFU {m} scheduler", "scheduler")
        mfu.children.extend([
            DecoderNode(f"MFU {m} add/sub unit", "decoder",
                        fanout=config.lanes),
            DecoderNode(f"MFU {m} multiply unit", "decoder",
                        fanout=config.lanes),
            DecoderNode(f"MFU {m} activation unit", "decoder",
                        fanout=config.lanes),
            DecoderNode(f"MFU {m} AddSubVrf", "decoder", fanout=1),
            DecoderNode(f"MFU {m} MultiplyVrf", "decoder", fanout=1),
        ])
        root.children.append(mfu)

    # Data-movement scheduler (vector arbitration network); it drives the
    # switch fabric directly rather than through child decoders.
    move = DecoderNode("vector arbitration scheduler", "scheduler",
                       fanout=config.mfus + 3)
    root.children.append(move)

    return HddTree(config=config, root=root)
