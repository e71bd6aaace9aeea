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

