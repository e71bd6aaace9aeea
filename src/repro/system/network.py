"""Datacenter network model (Section II-A, Fig. 1).

Accelerators sit bump-in-the-wire between the server NIC and the TOR
switch and speak an RDMA-like lossless protocol point-to-point. The
latency model uses per-hop constants consistent with published Catapult
LTL figures (single-digit microseconds within a rack, a few more across
the datacenter fabric) plus serialization time at the NIC line rate.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import FrozenSet, Optional, Set


class Locality(enum.Enum):
    """Relative placement of two endpoints."""

    SAME_NODE = "same_node"
    SAME_RACK = "same_rack"
    SAME_POD = "same_pod"
    SAME_DATACENTER = "same_datacenter"


@dataclasses.dataclass(frozen=True)
class NetworkModel:
    """Point-to-point latency/bandwidth model."""

    line_rate_gbps: float = 40.0
    base_latency_us: float = 0.8      # NIC + protocol engine
    rack_hop_us: float = 1.7          # one TOR traversal
    pod_hop_us: float = 6.0           # aggregation layer
    datacenter_hop_us: float = 18.0   # spine traversal

    def propagation_us(self, locality: Locality) -> float:
        """One-way latency excluding serialization."""
        if locality is Locality.SAME_NODE:
            return self.base_latency_us
        if locality is Locality.SAME_RACK:
            return self.base_latency_us + self.rack_hop_us
        if locality is Locality.SAME_POD:
            return self.base_latency_us + self.pod_hop_us
        return self.base_latency_us + self.datacenter_hop_us

    def serialization_us(self, nbytes: float) -> float:
        """Time to put ``nbytes`` on the wire."""
        return nbytes * 8 / (self.line_rate_gbps * 1e3)

    def transfer_us(self, nbytes: float,
                    locality: Locality = Locality.SAME_RACK) -> float:
        """One-way message latency for a payload of ``nbytes``."""
        return self.propagation_us(locality) + self.serialization_us(nbytes)

    def round_trip_us(self, request_bytes: float, response_bytes: float,
                      locality: Locality = Locality.SAME_RACK) -> float:
        """Request/response round trip."""
        return (self.transfer_us(request_bytes, locality)
                + self.transfer_us(response_bytes, locality))


class NetworkFabric:
    """Mutable reachability overlay on a :class:`NetworkModel`.

    The latency model is immutable; what changes during a chaos
    scenario is *connectivity* — a TOR failure or a spine partition
    severs whole localities from each other.  A fabric tracks severed
    domain pairs (domains are caller-chosen labels: ``"frontend"``,
    ``"rack3"``, ...) so scenario runners can cut and heal links
    between failure domains while reusing one latency model.
    """

    def __init__(self, model: Optional[NetworkModel] = None):
        self.model = model if model is not None else NetworkModel()
        self._cuts: Set[FrozenSet[str]] = set()

    def cut(self, a: str, b: str) -> None:
        """Sever connectivity between domains ``a`` and ``b``."""
        if a == b:
            raise ValueError(
                f"cannot partition domain {a!r} from itself")
        self._cuts.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        """Restore connectivity between ``a`` and ``b`` (idempotent)."""
        self._cuts.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        self._cuts.clear()

    def connected(self, a: str, b: str) -> bool:
        """Whether ``a`` can currently reach ``b`` (symmetric)."""
        return frozenset((a, b)) not in self._cuts
