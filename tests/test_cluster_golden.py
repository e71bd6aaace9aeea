"""Golden outcomes of the cluster event loop.

Fixed-seed ~20k-request runs on the batch-1 fast path (the mitigated
stack with a fleet monitor and a rack loss, under each router) and on
batched nodes (autoscaled, with a rack loss, under each router),
pinned as SHA-256 digests of every outcome the result and the monitor
expose.  The ``unbatched_wide`` cases run the batch-1 stack on 320
nodes, past one byte of node ids: per-request attribution is a list
there, not a bytearray, and routing positions are wider than a byte.
Any change to the RNG draws, their order, the routing decisions, batch
formation or the float arithmetic of the loop moves a digest; a pure
speed-up of the loop moves none.

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
#: A fleet whose node ids do not fit a byte.
WIDE = ClusterSpec(racks=16, nodes_per_rack=20)


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


def _unbatched(router: str, spec: ClusterSpec = ClusterSpec()):
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
        status="8c820defff3e370d",
        latency_s="0069202632d5474b",
        event_log="271beb2282d5e54f",
        detector_transitions="80fc7107c4b5734c",
        batch_log="dc937b59892604f5",
        active_nodes_trace="dc937b59892604f5",
        monitor_store="8e6f598ffdc4fb61"),
    "unbatched:least_loaded": dict(
        status="ee77b1b2926cd11d",
        latency_s="9bf21534752767b6",
        event_log="271beb2282d5e54f",
        detector_transitions="80fc7107c4b5734c",
        batch_log="dc937b59892604f5",
        active_nodes_trace="dc937b59892604f5",
        monitor_store="114d8756e53b7a32"),
    "unbatched:random": dict(
        status="ea9f02df0f810ad1",
        latency_s="61bc3abeaa46a74d",
        event_log="271beb2282d5e54f",
        detector_transitions="80fc7107c4b5734c",
        batch_log="dc937b59892604f5",
        active_nodes_trace="dc937b59892604f5",
        monitor_store="504d867c5418738a"),
    "unbatched_wide:p2c": dict(
        status="b12ba449c65e3032",
        latency_s="ac3cc63f0524fb74",
        event_log="3de3f8ee881b8052",
        detector_transitions="4f53cda18c2baa0c",
        batch_log="dc937b59892604f5",
        active_nodes_trace="dc937b59892604f5",
        monitor_store="cee3af35372fdac3"),
    "unbatched_wide:random": dict(
        status="b229c7cdaa65ab44",
        latency_s="34553e8b5cdcb3c0",
        event_log="3de3f8ee881b8052",
        detector_transitions="4f53cda18c2baa0c",
        batch_log="dc937b59892604f5",
        active_nodes_trace="dc937b59892604f5",
        monitor_store="6e30f45b1255aa5c"),
    "batched:p2c": dict(
        status="8322a5c0ff55def5",
        latency_s="b566fc94c188a61e",
        event_log="a1c45ea2445e15e8",
        detector_transitions="b3e99cafb345f80a",
        batch_log="e92c548ec5b9a5dc",
        active_nodes_trace="5ea56233d0eaab44"),
    "batched:least_loaded": dict(
        status="1087da016b43b0a4",
        latency_s="89883b2154da9935",
        event_log="a1c45ea2445e15e8",
        detector_transitions="b3e99cafb345f80a",
        batch_log="c6f2faa0a7ac98d1",
        active_nodes_trace="5ea56233d0eaab44"),
    "batched:random": dict(
        status="2aa54971457bf156",
        latency_s="6018794d462d038e",
        event_log="a1c45ea2445e15e8",
        detector_transitions="b3e99cafb345f80a",
        batch_log="b9376abc3c717d96",
        active_nodes_trace="5ea56233d0eaab44"),
}


LOOPS = {
    "unbatched": _unbatched,
    "unbatched_wide": lambda router: _unbatched(router, WIDE),
    "batched": _batched,
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_outcomes(case):
    loop, router = case.split(":")
    result, monitor = LOOPS[loop](router)
    assert _digests(result, monitor) == GOLDEN[case]
