"""The matrix register file holds BFP codes, not float32 tiles.

A BFP MRF quantizes each tile once, on write, and keeps one
sign-magnitude code per weight plus one biased exponent per block
(``bfp.encode``). Reading it back decodes to exactly the float32 words
``quantize`` returns, bit for bit: the sign of zero, NaN signs, the
saturated infinities and flushed subnormals included. Exact mode keeps
the float32 tiles themselves.
"""

import numpy as np
import pytest

from repro.compiler import compile_lstm
from repro.config import BW_S10
from repro.memory.regfile import MatrixRegisterFile
from repro.models import LstmReference
from repro.numerics.bfp import FORMAT_FAMILY, quantize

FORMATS = dict(FORMAT_FAMILY, bw_s10=BW_S10.bfp_format, exact=None)


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float32).view(np.uint32)


def _weights(count, n, seed):
    """Random weights over float32's range, with every special value."""
    rng = np.random.default_rng(seed)
    w = (rng.standard_normal((count, n, n))
         * np.exp2(rng.integers(-150, 126, (count, n, n)))
         ).astype(np.float32)
    specials = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf,
                         1e-45, -1e-45, 1e-40, -3e-39, 3e38, -3e38],
                        dtype=np.float32)
    w[0, 0, :specials.size] = specials
    w[0, 1] = -0.0                     # a whole block of negative zeros
    w[0, 2] = rng.choice(specials[6:10], n)   # subnormals only
    w[-1, 3, n // 2] = -np.nan         # a NaN in an ordinary block
    return w


@pytest.mark.tier1
@pytest.mark.parametrize("name", sorted(FORMATS))
def test_write_then_read_is_bit_exact(name):
    """``write_tiles`` then ``read_tiles``/``read_tile``/``snapshot``
    equals ``quantize`` of the written weights bit for bit (the weights
    themselves in exact mode); unwritten tiles read +0.0."""
    fmt = FORMATS[name]
    n = BW_S10.native_dim if name == "bw_s10" else 128
    mrf = MatrixRegisterFile("mrf", capacity=5, native_dim=n, fmt=fmt)
    w = _weights(3, n, seed=len(name))
    with np.errstate(over="ignore"):   # infinities saturate
        mrf.write_tiles(1, w)
        want = w if fmt is None else quantize(w, fmt)
    assert np.array_equal(_bits(mrf.read_tiles(1, 3)), _bits(want))
    assert np.array_equal(_bits(mrf.read_tile(3)), _bits(want[2]))
    snap = mrf.snapshot()
    assert np.array_equal(_bits(snap[1:4]), _bits(want))
    assert not _bits(snap[[0, 4]]).any()
    assert (mrf.reads, mrf.writes) == (4, 3)
    if fmt is not None:
        codes, exponents = mrf.read_codes(1, 3)
        assert codes.itemsize == (1 if fmt.mantissa_bits <= 6 else 2)
        assert exponents.itemsize == 1


@pytest.mark.tier1
def test_lstm_node_holds_one_byte_per_weight():
    """h=1024 LSTM on BW_S10: the MRF holds one byte per written weight
    plus one exponent byte per row, and no float array of any size."""
    compiled = compile_lstm(LstmReference(hidden_dim=1024, input_dim=1024,
                                          seed=0), BW_S10)
    mrf = compiled.new_simulator().mrf
    n = BW_S10.native_dim
    per_tile = n * n + n   # 1s.5e.2m: one exponent per native row
    assert mrf.writes == 72
    assert mrf.capacity_bytes == mrf.capacity * per_tile
    held = {k: v for k, v in vars(mrf).items() if isinstance(v, np.ndarray)}
    assert sorted(held) == ["_codes", "_exponents"]
    assert all(a.itemsize == 1 for a in held.values())
    # 72 written tiles: 11.55 MB of codes against 46.08 MB as float32.
    assert mrf.writes * per_tile == 11_548_800
