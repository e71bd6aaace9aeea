"""Tests for the register allocator."""

import pytest

from repro.compiler.allocator import RegisterAllocator
from repro.errors import CapacityError
from repro.isa import MemId


@pytest.fixture
def alloc(small_config):
    return RegisterAllocator(small_config)


class TestBasicAllocation:
    def test_sequential_bases(self, alloc):
        a = alloc.alloc(MemId.InitialVrf, 4, "a")
        b = alloc.alloc(MemId.InitialVrf, 2, "b")
        assert (a.base, a.count) == (0, 4)
        assert (b.base, b.count) == (4, 2)

    def test_independent_memories(self, alloc):
        alloc.alloc(MemId.InitialVrf, 4, "a")
        b = alloc.alloc(MemId.AddSubVrf, 4, "b")
        assert b.base == 0

    def test_duplicate_name_rejected(self, alloc):
        alloc.alloc(MemId.InitialVrf, 1, "x")
        with pytest.raises(CapacityError):
            alloc.alloc(MemId.AddSubVrf, 1, "x")

    def test_capacity_exhaustion(self, small_config):
        alloc = RegisterAllocator(small_config)
        alloc.alloc(MemId.AddSubVrf, small_config.addsub_vrf_depth, "big")
        with pytest.raises(CapacityError, match="AddSubVrf"):
            alloc.alloc(MemId.AddSubVrf, 1, "one_more")

    def test_error_mentions_existing_slots(self, small_config):
        alloc = RegisterAllocator(small_config)
        alloc.alloc(MemId.AddSubVrf, small_config.addsub_vrf_depth,
                    "hog")
        with pytest.raises(CapacityError, match="hog"):
            alloc.alloc(MemId.AddSubVrf, 1, "z")

    def test_zero_count_rejected(self, alloc):
        with pytest.raises(CapacityError):
            alloc.alloc(MemId.InitialVrf, 0, "nothing")

    def test_lookup_and_contains(self, alloc):
        alloc.alloc(MemId.InitialVrf, 2, "state")
        assert "state" in alloc
        assert alloc.slot("state").count == 2
        with pytest.raises(KeyError):
            alloc.slot("missing")

    def test_usage_tracking(self, alloc):
        alloc.alloc(MemId.InitialVrf, 8, "a")
        assert alloc.used(MemId.InitialVrf) == 8


class TestVectorAndMatrixHelpers:
    def test_alloc_matrix_row_major_layout(self, alloc):
        slot = alloc.alloc_matrix(30, 40, "W")  # 2x3 tile grid at N=16
        assert slot.count == 6

    def test_matrix_physical_capacity_packed(self, small_config):
        """Physical accounting uses real elements, not padded tiles:
        the paper's GRU-2816 fits BW_S10's 306-slot MRF only packed."""
        alloc = RegisterAllocator(small_config)
        capacity = small_config.mrf_capacity_elements
        # A matrix with massive padding waste: 17x17 pads to 32x32.
        n_fit = capacity // (17 * 17)
        for i in range(min(n_fit, 12)):
            alloc.alloc_matrix(17, 17, f"W{i}")
        assert alloc.mrf_elements_used == min(n_fit, 12) * 289

    def test_matrix_over_physical_capacity(self, small_config):
        alloc = RegisterAllocator(small_config)
        side = small_config.native_dim * small_config.mrf_size
        with pytest.raises(CapacityError, match="physical"):
            alloc.alloc_matrix(side, side, "huge")

    def test_bw_s10_fits_largest_deepbench_gru(self):
        from repro.config import BW_S10
        alloc = RegisterAllocator(BW_S10)
        for gate in ("r", "z", "h"):
            alloc.alloc_matrix(2816, 2816, f"W_{gate}")
            alloc.alloc_matrix(2816, 2816, f"U_{gate}")
        assert alloc.mrf_elements_used == 6 * 2816 * 2816
