"""Golden outcomes of both cluster event loops.

Fixed-seed ~20k-request runs through the unbatched loop (the mitigated
stack with a fleet monitor and a rack loss, under each router) and the
batched loop (autoscaled nodes with a rack loss, under p2c and
least_loaded), pinned as SHA-256 digests of every outcome the result
and the monitor expose.  Any change to the RNG draws, their order, the
routing decisions or the float arithmetic of either loop moves a
digest; a pure speed-up of the loops moves none.

To re-pin after an intended outcome change, print ``_digests(...)``
for each case and review the diff of the chaos-suite and detection
tables alongside.
"""

import hashlib

import numpy as np
import pytest

from repro.system.batching import ServiceTimeCurve
from repro.system.chaos import SCENARIOS
from repro.system.cluster import (AutoscalePolicy, BrownoutPolicy,
                                  ClusterEvent, ClusterSimulator,
                                  ClusterSpec, NodeBatching, TokenBucket)
from repro.system.loadgen import diurnal_arrivals
from repro.system.monitor import FleetMonitor

REQUESTS = 20_000


def _sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = data.tobytes()
    elif not isinstance(data, bytes):
        data = repr(data).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _store_digest(store) -> str:
    h = hashlib.sha256()
    for series in store.all_series():
        h.update(f"{series.name}{series.label_str()}:{series.kind}"
                 .encode())
        if series.kind == "quantile":
            h.update(series.counts.tobytes())
            h.update(series.sums.tobytes())
        else:
            h.update(series.values().tobytes())
    return h.hexdigest()[:16]


def _digests(result, monitor=None) -> dict:
    out = {
        "status": _sha(result.status),
        "latency_s": _sha(result.latency_s),
        "event_log": _sha(result.event_log),
        "detector_transitions": _sha(result.detector_transitions),
        "batch_log": _sha(result.batch_log),
        "active_nodes_trace": _sha(result.active_nodes_trace),
    }
    if monitor is not None:
        out["monitor_store"] = _store_digest(monitor.store)
    return out


def _unbatched(router: str):
    spec = ClusterSpec()
    scenario = SCENARIOS["rack_loss"](spec, 0, REQUESTS)
    monitor = FleetMonitor(windows=256)
    sim = ClusterSimulator(
        spec, router=router,
        admission=TokenBucket(rate_rps=0.95 * spec.capacity_rps,
                              burst=4.0 * spec.num_nodes),
        brownout=BrownoutPolicy(max_concurrent=spec.num_nodes),
        detector_threshold=8.0, shed_on_deadline=True, retries=1,
        seed=1, monitor=monitor)
    return sim.run(scenario.arrivals, scenario.events), monitor


def _batched(router: str):
    spec = ClusterSpec()
    curve = ServiceTimeCurve(
        (1, 2, 4, 8, 16),
        tuple(spec.service_time_s * k
              for k in (1.0, 1.25, 1.75, 2.75, 4.75)))
    mean = 0.5 * spec.num_nodes * 16 / curve(16)
    duration = REQUESTS / mean
    arrivals = diurnal_arrivals(0.2 * mean, 1.8 * mean, 1.15 * duration,
                                period_s=duration, seed=0)[:REQUESTS]
    events = [ClusterEvent(0.4 * float(arrivals[-1]), "rack_down", 0)]
    sim = ClusterSimulator(
        spec, router=router,
        batching=NodeBatching(curve, max_batch=16, timeout_s=1e-3),
        autoscaler=AutoscalePolicy(min_nodes=4, interval_s=0.05), seed=1)
    return sim.run(arrivals, events), None


GOLDEN = {
    "unbatched:p2c": dict(
        status="4a3fcb2ceb013406",
        latency_s="7fb3a6c4b561cd02",
        event_log="271beb2282d5e54f",
        detector_transitions="80fc7107c4b5734c",
        batch_log="dc937b59892604f5",
        active_nodes_trace="dc937b59892604f5",
        monitor_store="d74630e88bc996f2"),
    "unbatched:least_loaded": dict(
        status="a0ebe5705c9b758b",
        latency_s="4e028e0ace7c2a2e",
        event_log="271beb2282d5e54f",
        detector_transitions="80fc7107c4b5734c",
        batch_log="dc937b59892604f5",
        active_nodes_trace="dc937b59892604f5",
        monitor_store="20b677b0100cbe0f"),
    "unbatched:random": dict(
        status="3a7dfe4ca4651b42",
        latency_s="a2c70378a4f67aa0",
        event_log="271beb2282d5e54f",
        detector_transitions="80fc7107c4b5734c",
        batch_log="dc937b59892604f5",
        active_nodes_trace="dc937b59892604f5",
        monitor_store="e8647679771ce809"),
    "batched:p2c": dict(
        status="06207e5082e9df68",
        latency_s="696ec53d2c5d6bcb",
        event_log="a1c45ea2445e15e8",
        detector_transitions="b3e99cafb345f80a",
        batch_log="79c532384117faf3",
        active_nodes_trace="5ea56233d0eaab44"),
    "batched:least_loaded": dict(
        status="bbec90d9946424d2",
        latency_s="cbc58859770f866e",
        event_log="a1c45ea2445e15e8",
        detector_transitions="b3e99cafb345f80a",
        batch_log="e84c0e09fd7cff11",
        active_nodes_trace="5ea56233d0eaab44"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_outcomes(case):
    loop, router = case.split(":")
    result, monitor = (_unbatched if loop == "unbatched"
                       else _batched)(router)
    assert _digests(result, monitor) == GOLDEN[case]
