"""Register files: the independently addressable on-chip memories.

The BW NPU pins model state in distributed SRAM (Section V-A): vector
register files (VRFs) hold native vectors; the matrix register file (MRF)
holds native N x N weight tiles, banked per tile engine and sub-banked per
row so every multiplier has a dedicated read port. The functional
simulator uses these classes for architectural state; the banking
structure is exposed for the timing model and tests.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import MemoryError_
from ..numerics.bfp import BfpFormat, code_dtypes, decode, encode


class VectorRegisterFile:
    """A register file of ``depth`` native vectors of length ``native_dim``."""

    def __init__(self, name: str, depth: int, native_dim: int):
        if depth <= 0 or native_dim <= 0:
            raise MemoryError_("depth and native_dim must be positive")
        self.name = name
        self.depth = depth
        self.native_dim = native_dim
        self._data = np.zeros((depth, native_dim), dtype=np.float32)
        self.reads = 0
        self.writes = 0

    def _check(self, index: int, count: int) -> None:
        if count <= 0:
            raise MemoryError_(f"{self.name}: count must be positive")
        if index < 0 or index + count > self.depth:
            raise MemoryError_(
                f"{self.name}: access [{index}, {index + count}) out of "
                f"range (depth {self.depth})")

    def read(self, index: int, count: int = 1,
             copy: bool = True) -> np.ndarray:
        """Read ``count`` consecutive vectors; returns shape (count, N).

        ``copy=False`` returns a read-only-by-convention view into the
        register file — the fast path for internal callers that consume
        the data immediately (the executor's operand reads). The public
        API keeps the defensive copy.
        """
        self._check(index, count)
        self.reads += count
        data = self._data[index:index + count]
        return data.copy() if copy else data

    def write(self, index: int, vectors: np.ndarray) -> None:
        """Write one or more consecutive vectors starting at ``index``."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[1] != self.native_dim:
            raise MemoryError_(
                f"{self.name}: vector length {vectors.shape[1]} != native "
                f"dimension {self.native_dim}")
        count = vectors.shape[0]
        self._check(index, count)
        self.writes += count
        self._data[index:index + count] = vectors

    def clear(self) -> None:
        self._data.fill(0.0)

    @property
    def capacity_bytes(self) -> int:
        return self._data.nbytes


class MatrixRegisterFile:
    """The MRF: ``capacity`` native N x N tiles of model weights.

    Section V-A: the MRF is banked by native tiles across tile engines and
    sub-banked by rows; :meth:`bank_of` and :meth:`subbank_of` expose that
    geometry for the timing model and for tests of the port-scaling
    property (one SRAM read port per multiplier).

    With a BFP format ``fmt`` the MRF holds what the hardware pins: each
    written tile is quantized on write and kept as one sign-magnitude
    code per weight plus one biased exponent per block
    (:func:`~repro.numerics.bfp.encode`; one byte each for the paper's
    formats). :meth:`read_codes` serves them to the ``mv_mul`` operand
    builders; :meth:`read_tiles` and :meth:`snapshot` decode to float32.
    Without a format (exact mode) tiles are stored as float32.

    :attr:`generation` increments on every write, so operands derived
    from the tiles are valid exactly while their generation matches.
    """

    def __init__(self, name: str, capacity: int, native_dim: int,
                 tile_engines: int = 1, fmt: Optional[BfpFormat] = None):
        if capacity <= 0 or native_dim <= 0 or tile_engines <= 0:
            raise MemoryError_(
                "capacity, native_dim and tile_engines must be positive")
        self.name = name
        self.capacity = capacity
        self.native_dim = native_dim
        self.tile_engines = tile_engines
        self.fmt = fmt
        shape = (capacity, native_dim, native_dim)
        if fmt is None:
            self._tiles = np.zeros(shape, dtype=np.float32)
        else:
            code_dtype, exponent_dtype = code_dtypes(fmt)
            self._codes = np.zeros(shape, dtype=code_dtype)
            self._exponents = np.zeros(
                (capacity, native_dim, native_dim // fmt.block_size),
                dtype=exponent_dtype)
        self.reads = 0
        self.writes = 0
        #: Bumped on every tile write; invalidates derived operands.
        self.generation = 0

    def _check(self, index: int, count: int = 1) -> None:
        if count <= 0:
            raise MemoryError_(f"{self.name}: count must be positive")
        if index < 0 or index + count > self.capacity:
            raise MemoryError_(
                f"{self.name}: tile access [{index}, {index + count}) out "
                f"of range (capacity {self.capacity})")

    def read_tile(self, index: int) -> np.ndarray:
        return self.read_tiles(index, 1)[0]

    def read_tiles(self, index: int, count: int,
                   copy: bool = True) -> np.ndarray:
        """Float32 values of ``count`` tiles. A BFP MRF decodes them into
        a new array; an exact one returns a view with ``copy=False``."""
        self._check(index, count)
        self.reads += count
        if self.fmt is not None:
            end = index + count
            return decode(self._codes[index:end],
                          self._exponents[index:end], self.fmt)
        data = self._tiles[index:index + count]
        return data.copy() if copy else data

    def read_codes(self, index: int,
                   count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views of ``count`` tiles' codes and biased block exponents
        (BFP storage only), read-only by convention."""
        self._check(index, count)
        self.reads += count
        end = index + count
        return self._codes[index:end], self._exponents[index:end]

    def write_tile(self, index: int, tile: np.ndarray) -> None:
        self.write_tiles(index, np.asarray(tile)[np.newaxis])

    def write_tiles(self, index: int, tiles: np.ndarray) -> None:
        """Write tiles from ``index`` on, quantized to the MRF's format."""
        tiles = np.asarray(tiles, dtype=np.float32)
        if tiles.ndim != 3 or tiles.shape[1:] != (self.native_dim,
                                                  self.native_dim):
            raise MemoryError_(f"{self.name}: bad tile group shape "
                               f"{tiles.shape}")
        self._check(index, tiles.shape[0])
        self.writes += tiles.shape[0]
        self.generation += 1
        end = index + tiles.shape[0]
        if self.fmt is None:
            self._tiles[index:end] = tiles
        else:
            self._codes[index:end], self._exponents[index:end] = \
                encode(tiles, self.fmt)

    def snapshot(self) -> np.ndarray:
        """Float32 values of every tile; moves no counter."""
        if self.fmt is None:
            return self._tiles.copy()
        return decode(self._codes, self._exponents, self.fmt)

    def bank_of(self, index: int) -> int:
        """Tile-engine bank holding tile ``index`` (round-robin banking)."""
        self._check(index)
        return index % self.tile_engines

    def subbank_of(self, index: int, row: int) -> int:
        """Row sub-bank: row ``row`` of every tile lives in sub-bank
        ``row`` of its bank (feeding dot-product engine ``row``)."""
        self._check(index)
        if not 0 <= row < self.native_dim:
            raise MemoryError_(f"{self.name}: row {row} out of range")
        return row

    def read_ports(self, lanes: int) -> int:
        """Total dedicated SRAM read ports: one per multiplier."""
        return self.tile_engines * self.native_dim * lanes

    def clear(self) -> None:
        self.generation += 1
        if self.fmt is None:
            self._tiles.fill(0.0)
        else:
            self._codes.fill(0)
            self._exponents.fill(0)

    @property
    def capacity_bytes(self) -> int:
        """Bytes of weight storage: the codes and exponents of a BFP
        MRF, the float32 tiles of an exact one."""
        if self.fmt is None:
            return self._tiles.nbytes
        return self._codes.nbytes + self._exponents.nbytes
