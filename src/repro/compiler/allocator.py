"""Register allocation for compiled NPU programs.

The toolflow pins model parameters into the MRF and assigns named slots
in the vector register files (Section II-B: parameters "pinned
individually into accelerators' on-chip memory"). The allocator hands out
contiguous index ranges per memory structure, enforces capacity, and
keeps a symbol table so generated programs remain debuggable.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..config import NpuConfig
from ..errors import CapacityError
from ..isa.memspace import MemId


@dataclasses.dataclass(frozen=True)
class Slot:
    """A named, contiguous allocation in one memory structure."""

    name: str
    mem: MemId
    base: int
    count: int


class RegisterAllocator:
    """Bump allocator over the MRF and the three VRFs of a config."""

    def __init__(self, config: NpuConfig):
        self.config = config
        self._next: Dict[MemId, int] = {
            MemId.MatrixRf: 0,
            MemId.InitialVrf: 0,
            MemId.AddSubVrf: 0,
            MemId.MultiplyVrf: 0,
        }
        self._capacity: Dict[MemId, int] = {
            MemId.MatrixRf: config.mrf_address_space,
            MemId.InitialVrf: config.initial_vrf_depth,
            MemId.AddSubVrf: config.addsub_vrf_depth,
            MemId.MultiplyVrf: config.multiply_vrf_depth,
        }
        #: Physical matrix elements pinned (packed storage; see
        #: NpuConfig.mrf_capacity_elements).
        self._mrf_elements = 0
        self._slots: Dict[str, Slot] = {}

    def alloc(self, mem: MemId, count: int, name: str) -> Slot:
        """Allocate ``count`` consecutive entries in ``mem``."""
        if mem not in self._next:
            raise CapacityError(f"cannot allocate in {mem.name}")
        if count <= 0:
            raise CapacityError(f"slot {name!r}: count must be positive")
        if name in self._slots:
            raise CapacityError(f"slot {name!r} allocated twice")
        base = self._next[mem]
        if base + count > self._capacity[mem]:
            raise CapacityError(
                f"{mem.name} exhausted allocating {name!r}: need "
                f"{base + count} entries, capacity "
                f"{self._capacity[mem]} ({self._describe_pressure(mem)})")
        self._next[mem] = base + count
        slot = Slot(name, mem, base, count)
        self._slots[name] = slot
        return slot

    def alloc_matrix(self, rows: int, cols: int, name: str) -> Slot:
        """Allocate MRF tiles for a ``rows x cols`` matrix (row-major by
        native tile, matching ``mv_mul``'s mega-SIMD layout).

        Address slots are charged for the padded tile grid; physical
        capacity is charged for the real (packed) element count.
        """
        elements = rows * cols
        if self._mrf_elements + elements > self.config.mrf_capacity_elements:
            raise CapacityError(
                f"MRF physical capacity exhausted allocating {name!r}: "
                f"{self._mrf_elements + elements} elements > "
                f"{self.config.mrf_capacity_elements} "
                f"({self._describe_pressure(MemId.MatrixRf)})")
        count = self.config.native_tiles_for(rows, cols)
        slot = self.alloc(MemId.MatrixRf, count, name)
        self._mrf_elements += elements
        return slot

    @property
    def mrf_elements_used(self) -> int:
        """Physical matrix elements pinned so far."""
        return self._mrf_elements

    def slot(self, name: str) -> Slot:
        """Look up an allocation by name."""
        if name not in self._slots:
            raise KeyError(f"no slot named {name!r}")
        return self._slots[name]

    def __contains__(self, name: str) -> bool:
        return name in self._slots

    def used(self, mem: MemId) -> int:
        """Entries consumed so far in ``mem``."""
        return self._next[mem]

    def _describe_pressure(self, mem: MemId) -> str:
        owned = [s.name for s in self._slots.values() if s.mem is mem]
        head = ", ".join(owned[:6])
        suffix = ", ..." if len(owned) > 6 else ""
        return f"already holds: {head}{suffix}" if owned else "empty"
