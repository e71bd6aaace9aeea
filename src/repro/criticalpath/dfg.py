"""Dataflow graphs for critical-path analysis (paper Section III).

The UDM/SDM methodology models a DNN evaluation as a dataflow graph whose
nodes are primitive operations with unit functional-unit latencies; dot
products additionally carry their adder-tree depth. Graphs are built at
vector-operator granularity — each node records its total work (MAC and
point-wise operation counts) and its intrinsic depth on unconstrained
hardware — which keeps graphs small while preserving exact critical-path
lengths and op counts.

Builders are provided for the paper's Table I workloads: an LSTM step, a
GRU step (classic reset-before-matmul dataflow, which reproduces the
paper's UDM depth of 31 for the 2800-dim GRU), and a convolution layer.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..models.cnn import ConvSpec


@dataclasses.dataclass(frozen=True)
class DfgNode:
    """One vector-operator node.

    Attributes:
        name: Unique node name.
        kind: Operator kind (``"dot"``, ``"add"``, ``"mul"``, ``"sigm"``,
            ``"tanh"``, ``"relu"``, ``"input"``).
        depth: Critical-path latency of the node itself in FU cycles
            (1 for point-wise ops; ``1 + ceil(log2 n)`` for an n-input
            dot product: one multiply plus the adder tree).
        macs: Multiply-accumulate work of the node.
        pointwise_ops: Point-wise operation work of the node.
        deps: Names of predecessor nodes.
    """

    name: str
    kind: str
    depth: int
    macs: int = 0
    pointwise_ops: int = 0
    deps: Tuple[str, ...] = ()

    @property
    def total_ops(self) -> int:
        return 2 * self.macs + self.pointwise_ops


def dot_depth(n: int) -> int:
    """Critical path of an n-element dot product: multiply + adder tree."""
    if n <= 0:
        raise ValueError("dot product length must be positive")
    return 1 + math.ceil(math.log2(n)) if n > 1 else 1


class Dfg:
    """An immutable-after-build dataflow graph."""

    def __init__(self, name: str = "dfg"):
        self.name = name
        self._nodes: Dict[str, DfgNode] = {}
        self._order: List[str] = []

    def add(self, name: str, kind: str, depth: int, macs: int = 0,
            pointwise_ops: int = 0,
            deps: Sequence[str] = ()) -> DfgNode:
        """Add a node; dependencies must already exist (topological)."""
        if name in self._nodes:
            raise ValueError(f"duplicate node {name!r}")
        for dep in deps:
            if dep not in self._nodes:
                raise ValueError(f"{name!r} depends on unknown {dep!r}")
        node = DfgNode(name=name, kind=kind, depth=depth, macs=macs,
                       pointwise_ops=pointwise_ops, deps=tuple(deps))
        self._nodes[name] = node
        self._order.append(name)
        return node

    def add_input(self, name: str) -> DfgNode:
        return self.add(name, "input", depth=0)

    def add_dot(self, name: str, length: int, outputs: int,
                deps: Sequence[str]) -> DfgNode:
        """A matrix-vector product: ``outputs`` dot products of ``length``."""
        return self.add(name, "dot", depth=dot_depth(length),
                        macs=length * outputs, deps=deps)

    def add_pointwise(self, name: str, kind: str, width: int,
                      deps: Sequence[str]) -> DfgNode:
        return self.add(name, kind, depth=1, pointwise_ops=width, deps=deps)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> DfgNode:
        return self._nodes[name]

    def nodes(self) -> Iterable[DfgNode]:
        return (self._nodes[n] for n in self._order)

    @property
    def total_macs(self) -> int:
        return sum(n.macs for n in self.nodes())

    @property
    def total_pointwise_ops(self) -> int:
        return sum(n.pointwise_ops for n in self.nodes())

    @property
    def total_ops(self) -> int:
        return sum(n.total_ops for n in self.nodes())

    def critical_path(self, sinks: Optional[Sequence[str]] = None,
                      sources: Optional[Sequence[str]] = None) -> int:
        """Longest path length in FU cycles.

        Args:
            sinks: Restrict to paths ending at these nodes (default: all).
            sources: Restrict to paths starting at these nodes (default:
                any node; sources' own depth is excluded so a register
                read costs nothing).
        """
        finish: Dict[str, int] = {}
        source_set = set(sources) if sources is not None else None
        for name in self._order:
            node = self._nodes[name]
            if source_set is not None:
                reachable = name in source_set or any(
                    dep in finish for dep in node.deps)
                if not reachable:
                    continue
                base = max((finish.get(dep, 0) for dep in node.deps),
                           default=0)
                finish[name] = base + (0 if name in source_set
                                       else node.depth)
            else:
                base = max((finish.get(dep, 0) for dep in node.deps),
                           default=0)
                finish[name] = base + node.depth
        if not finish:
            return 0
        if sinks is not None:
            return max(finish.get(s, 0) for s in sinks)
        return max(finish.values())


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------

def lstm_step_dfg(hidden_dim: int,
                  input_dim: Optional[int] = None) -> Dfg:
    """One LSTM timestep.

    Gate pre-activations are ``x W + b`` then ``+ U h`` (two add stages),
    matching the paper's Table I depth of 19 for the 2000-dim LSTM:
    dot(12) + add + add + tanh + mul + add + tanh + mul = 19.
    """
    x_dim = input_dim if input_dim is not None else hidden_dim
    h = hidden_dim
    g = Dfg(f"lstm{h}_step")
    g.add_input("x")
    g.add_input("h_prev")
    g.add_input("c_prev")
    for gate in ("f", "i", "o", "c"):
        g.add_dot(f"xW_{gate}", x_dim, h, deps=["x"])
        g.add_pointwise(f"bias_{gate}", "add", h, deps=[f"xW_{gate}"])
        g.add_dot(f"hU_{gate}", h, h, deps=["h_prev"])
        g.add_pointwise(f"pre_{gate}", "add", h,
                        deps=[f"bias_{gate}", f"hU_{gate}"])
    for gate in ("f", "i", "o"):
        g.add_pointwise(f"act_{gate}", "sigm", h, deps=[f"pre_{gate}"])
    g.add_pointwise("c_tilde", "tanh", h, deps=["pre_c"])
    g.add_pointwise("f_c", "mul", h, deps=["act_f", "c_prev"])
    g.add_pointwise("i_ctilde", "mul", h, deps=["act_i", "c_tilde"])
    g.add_pointwise("c_t", "add", h, deps=["f_c", "i_ctilde"])
    g.add_pointwise("tanh_c", "tanh", h, deps=["c_t"])
    g.add_pointwise("h_t", "mul", h, deps=["act_o", "tanh_c"])
    return g


def gru_step_dfg(hidden_dim: int, input_dim: Optional[int] = None,
                 variant: str = "classic") -> Dfg:
    """One GRU timestep.

    ``variant="classic"`` applies the reset gate *before* the recurrent
    matmul (``h~ = tanh(xW + b + U (r*h))``) — the production dataflow
    whose serial chain reproduces the paper's Table I UDM depth of 31 at
    dimension 2800. ``variant="cudnn"`` applies it after
    (``h~ = tanh(xW + b + r*(U h))``), matching the DeepBench kernels and
    this library's GRU lowering.
    """
    if variant not in ("classic", "cudnn"):
        raise ValueError("variant must be 'classic' or 'cudnn'")
    x_dim = input_dim if input_dim is not None else hidden_dim
    h = hidden_dim
    g = Dfg(f"gru{h}_step_{variant}")
    g.add_input("x")
    g.add_input("h_prev")
    for gate in ("r", "z", "h"):
        g.add_dot(f"xW_{gate}", x_dim, h, deps=["x"])
        g.add_pointwise(f"bias_{gate}", "add", h, deps=[f"xW_{gate}"])
    for gate in ("r", "z"):
        g.add_dot(f"hU_{gate}", h, h, deps=["h_prev"])
        g.add_pointwise(f"pre_{gate}", "add", h,
                        deps=[f"bias_{gate}", f"hU_{gate}"])
        g.add_pointwise(f"act_{gate}", "sigm", h, deps=[f"pre_{gate}"])
    if variant == "classic":
        g.add_pointwise("r_h", "mul", h, deps=["act_r", "h_prev"])
        g.add_dot("hU_h", h, h, deps=["r_h"])
        g.add_pointwise("pre_h", "add", h, deps=["bias_h", "hU_h"])
    else:
        g.add_dot("hU_h", h, h, deps=["h_prev"])
        g.add_pointwise("r_Uh", "mul", h, deps=["act_r", "hU_h"])
        g.add_pointwise("pre_h", "add", h, deps=["bias_h", "r_Uh"])
    g.add_pointwise("h_tilde", "tanh", h, deps=["pre_h"])
    g.add_pointwise("one_minus_z", "add", h, deps=["act_z"])
    g.add_pointwise("zb_ht", "mul", h, deps=["one_minus_z", "h_tilde"])
    g.add_pointwise("z_h", "mul", h, deps=["act_z", "h_prev"])
    g.add_pointwise("h_t", "add", h, deps=["zb_ht", "z_h"])
    return g


def conv_layer_dfg(spec: ConvSpec, include_bias: bool = True) -> Dfg:
    """One convolution layer: a dot product per (pixel, kernel) pair,
    aggregated per pixel into one node."""
    g = Dfg(f"conv_{spec.describe()}")
    g.add_input("activations")
    length = spec.patch_length
    for p in range(spec.output_pixels):
        deps = ["activations"]
        g.add_dot(f"pix{p}", length, spec.kernels, deps=deps)
        if include_bias:
            g.add_pointwise(f"pix{p}_bias", "add", spec.kernels,
                            deps=[f"pix{p}"])
    return g


def recurrent_cycle_depth(step_dfg: Dfg, output: str = "h_t",
                          state_inputs: Sequence[str] = ("h_prev",)) -> int:
    """Critical path from the recurrent state inputs to the step output —
    the depth each additional timestep adds on an unconstrained machine."""
    return step_dfg.critical_path(sinks=[output], sources=list(state_inputs))
