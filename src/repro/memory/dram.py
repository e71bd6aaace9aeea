"""Off-chip DRAM model.

The FPGA's local DRAM holds vectors and matrix tiles that do not fit (or
are not pinned) on chip — used by CNN-specialized instances to stream
weights, overlapping transfer with compute (Section V-A). The model
provides two sparse address spaces (vectors and tiles) with byte-traffic
accounting so the timing model can charge bandwidth.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import MemoryError_


class Dram:
    """Sparse DRAM with separate vector and matrix-tile address spaces."""

    def __init__(self, native_dim: int):
        """
        Args:
            native_dim: Native vector dimension (element counts per entry).
        """
        self.native_dim = native_dim
        self._vectors: Dict[int, np.ndarray] = {}
        self._tiles: Dict[int, np.ndarray] = {}
        self.bytes_read = 0
        self.bytes_written = 0

    # -- vectors ---------------------------------------------------------

    def read_vectors(self, index: int, count: int = 1) -> np.ndarray:
        out = np.zeros((count, self.native_dim), dtype=np.float32)
        for i in range(count):
            if index + i not in self._vectors:
                raise MemoryError_(f"DRAM vector {index + i} never written")
            out[i] = self._vectors[index + i]
        self.bytes_read += out.nbytes
        return out

    def write_vectors(self, index: int, vectors: np.ndarray) -> None:
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[1] != self.native_dim:
            raise MemoryError_(
                f"DRAM vector length {vectors.shape[1]} != native "
                f"dimension {self.native_dim}")
        self.bytes_written += vectors.nbytes
        for i, vec in enumerate(vectors):
            self._vectors[index + i] = vec.copy()

    # -- matrix tiles ------------------------------------------------------

    def read_tiles(self, index: int, count: int = 1) -> np.ndarray:
        n = self.native_dim
        out = np.zeros((count, n, n), dtype=np.float32)
        for i in range(count):
            if index + i not in self._tiles:
                raise MemoryError_(f"DRAM tile {index + i} never written")
            out[i] = self._tiles[index + i]
        self.bytes_read += out.nbytes
        return out

    def write_tiles(self, index: int, tiles: np.ndarray) -> None:
        n = self.native_dim
        tiles = np.asarray(tiles, dtype=np.float32)
        if tiles.ndim == 2:
            tiles = tiles[np.newaxis]
        if tiles.shape[1:] != (n, n):
            raise MemoryError_(f"DRAM tile shape {tiles.shape[1:]} != "
                               f"({n}, {n})")
        self.bytes_written += tiles.nbytes
        for i, tile in enumerate(tiles):
            self._tiles[index + i] = tile.copy()
