"""Tests for register files, DRAM, and the network queues."""

import numpy as np
import pytest

from repro.errors import MemoryError_, NetworkQueueEmptyError
from repro.memory import (
    Dram,
    MatrixRegisterFile,
    NetworkQueues,
    VectorRegisterFile,
)


class TestVectorRegisterFile:
    def test_read_after_write(self):
        vrf = VectorRegisterFile("v", depth=8, native_dim=4)
        vec = np.arange(4, dtype=np.float32)
        vrf.write(3, vec)
        assert np.array_equal(vrf.read(3)[0], vec)

    def test_multi_entry_write_and_read(self):
        vrf = VectorRegisterFile("v", depth=8, native_dim=4)
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        vrf.write(2, data)
        assert np.array_equal(vrf.read(2, 3), data)

    def test_out_of_bounds(self):
        vrf = VectorRegisterFile("v", depth=4, native_dim=4)
        with pytest.raises(MemoryError_):
            vrf.read(4)
        with pytest.raises(MemoryError_):
            vrf.read(2, 3)
        with pytest.raises(MemoryError_):
            vrf.write(-1, np.zeros(4))

    def test_wrong_vector_length(self):
        vrf = VectorRegisterFile("v", depth=4, native_dim=4)
        with pytest.raises(MemoryError_):
            vrf.write(0, np.zeros(5))

    def test_reads_return_copies(self):
        vrf = VectorRegisterFile("v", depth=4, native_dim=4)
        vrf.write(0, np.ones(4))
        out = vrf.read(0)
        out[:] = 7
        assert np.all(vrf.read(0) == 1)

    def test_access_counters(self):
        vrf = VectorRegisterFile("v", depth=4, native_dim=4)
        vrf.write(0, np.zeros((2, 4)))
        vrf.read(0, 2)
        assert vrf.writes == 2 and vrf.reads == 2

    def test_zero_initialized(self):
        vrf = VectorRegisterFile("v", depth=4, native_dim=4)
        assert np.all(vrf.read(0, 4) == 0)

    def test_invalid_geometry(self):
        with pytest.raises(MemoryError_):
            VectorRegisterFile("v", depth=0, native_dim=4)


class TestMatrixRegisterFile:
    def make(self):
        return MatrixRegisterFile("m", capacity=12, native_dim=4)

    def test_tile_roundtrip(self):
        mrf = self.make()
        tile = np.arange(16, dtype=np.float32).reshape(4, 4)
        mrf.write_tile(5, tile)
        assert np.array_equal(mrf.read_tile(5), tile)

    def test_group_roundtrip(self):
        mrf = self.make()
        tiles = np.arange(32, dtype=np.float32).reshape(2, 4, 4)
        mrf.write_tiles(4, tiles)
        assert np.array_equal(mrf.read_tiles(4, 2), tiles)

    def test_bad_tile_shape(self):
        with pytest.raises(MemoryError_):
            self.make().write_tile(0, np.zeros((3, 4)))

    def test_out_of_bounds(self):
        mrf = self.make()
        with pytest.raises(MemoryError_):
            mrf.read_tile(12)
        with pytest.raises(MemoryError_):
            mrf.write_tiles(11, np.zeros((2, 4, 4)))


class TestDram:
    def test_vector_roundtrip(self):
        dram = Dram(native_dim=4)
        dram.write_vectors(10, np.ones((2, 4)))
        assert np.all(dram.read_vectors(10, 2) == 1)

    def test_tile_roundtrip(self):
        dram = Dram(native_dim=4)
        dram.write_tiles(3, np.full((4, 4), 2.0))
        assert np.all(dram.read_tiles(3) == 2.0)

    def test_unwritten_read_raises(self):
        dram = Dram(native_dim=4)
        with pytest.raises(MemoryError_):
            dram.read_vectors(0)
        with pytest.raises(MemoryError_):
            dram.read_tiles(0)

    def test_traffic_accounting(self):
        dram = Dram(native_dim=4)
        dram.write_vectors(0, np.zeros((3, 4)))
        dram.read_vectors(0, 3)
        assert dram.bytes_written == 3 * 4 * 4
        assert dram.bytes_read == 3 * 4 * 4


class TestNetworkQueues:
    def test_fifo_order(self):
        q = NetworkQueues(native_dim=4)
        q.push_input(np.array([1, 0, 0, 0], dtype=np.float32))
        q.push_input(np.array([2, 0, 0, 0], dtype=np.float32))
        out = q.pop_input(2)
        assert out[0][0] == 1 and out[1][0] == 2

    def test_underflow_raises(self):
        q = NetworkQueues(native_dim=4)
        with pytest.raises(NetworkQueueEmptyError):
            q.pop_input()

    def test_tile_queue(self):
        q = NetworkQueues(native_dim=4)
        q.push_input_tiles(np.ones((2, 4, 4)))
        assert q.pop_input_tiles(2).shape == (2, 4, 4)
        with pytest.raises(NetworkQueueEmptyError):
            q.pop_input_tiles(1)

    def test_output_drain(self):
        q = NetworkQueues(native_dim=4)
        q.push_output(np.ones((2, 4)))
        outs = q.pop_outputs()
        assert len(outs) == 2
        assert q.pop_outputs() == []

    def test_wrong_width_rejected(self):
        q = NetworkQueues(native_dim=4)
        with pytest.raises(MemoryError_):
            q.push_input(np.zeros(5))
        with pytest.raises(MemoryError_):
            q.push_output(np.zeros((1, 3)))

    def test_counters(self):
        q = NetworkQueues(native_dim=4)
        q.push_input(np.zeros(4))
        q.pop_input()
        q.push_output(np.zeros(4))
        assert q.vectors_received == 1
        assert q.vectors_sent == 1
