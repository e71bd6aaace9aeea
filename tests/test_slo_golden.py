"""Golden outcomes of the offline serving comparisons.

The BW-vs-GPU comparison (:func:`repro.system.compare_under_load`), the
batch-1-vs-dynamic goodput sweep (:func:`repro.system.slo_sweep`) on a
fixed curve, and the ``slo_under_load`` experiment table, pinned as
SHA-256 digests of every per-request ``(arrival, start, finish)``
triple and every payload value.  Any change to batch formation, its
float arithmetic or the arrival traces moves a digest; a refactor of
the queue that serves the same requests at the same times moves none.

To re-pin after an intended outcome change, print the digest of each
case and review the diff of ``benchmarks/results/slo_under_load.txt``
alongside.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.harness.experiments import slo_under_load
from repro.system import ServiceTimeCurve, compare_under_load, slo_sweep


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _triples(requests) -> str:
    return _sha(np.asarray(
        [(r.arrival, r.start, r.finish) for r in requests],
        dtype=np.float64).tobytes())


@pytest.mark.parametrize("seed", [3, 4])
def test_compare_under_load_golden(seed):
    comparisons = compare_under_load(
        bw_service_s=0.001,
        gpu_batch_service=lambda b: 0.05 + 0.002 * b,
        max_batch=16, timeout_s=0.02, rates_rps=(50, 100, 400),
        requests=1000, seed=seed)
    digests = {f"{c.rate_rps}:{arm}": _triples(getattr(c, arm).requests)
               for c in comparisons for arm in ("bw", "gpu")}
    assert digests == COMPARE_GOLDEN[seed]


def test_slo_sweep_golden():
    curve = ServiceTimeCurve((1, 2, 4, 8, 16),
                             (1e-3, 1.1e-3, 1.3e-3, 1.7e-3, 2.5e-3))
    payload = slo_sweep(curve, slo_s=8e-3,
                        rates_rps=[500.0, 1000.0, 2000.0, 4000.0],
                        requests=2000, max_batch=16, seed=3)
    assert _sha(json.dumps(payload, sort_keys=True).encode()) \
        == SWEEP_GOLDEN


def test_slo_under_load_rows_golden():
    rows = slo_under_load().rows
    assert _sha(json.dumps(rows).encode()) == TABLE_GOLDEN


COMPARE_GOLDEN = {
    3: {"50:bw": "c7732c98caa95274", "50:gpu": "bf867e57bdbf7ef0",
        "100:bw": "02e8aef50fbe7d49", "100:gpu": "fb6cbc176258a14b",
        "400:bw": "40a826c2daffa5ff", "400:gpu": "9b009b434202b955"},
    4: {"50:bw": "c350d95111c99119", "50:gpu": "c6f7bf217ff4d944",
        "100:bw": "7dcad784ce5a7e28", "100:gpu": "5fa75380d92bd0c0",
        "400:bw": "52365d5b8d80d8fd", "400:gpu": "03cb6988d63f0432"},
}
SWEEP_GOLDEN = "b5dc60fc483aeb9f"
TABLE_GOLDEN = "0bb06a82899a5826"
