"""Golden outcomes of the cluster event loop.

Fixed-seed ~20k-request runs on the batch-1 fast path (the mitigated
stack with a fleet monitor and a rack loss, under each router) and on
batched nodes (autoscaled, with a rack loss, under each router),
pinned as SHA-256 digests of every outcome the result and the monitor
expose.  The ``unbatched_wide`` cases run the batch-1 stack on 320
nodes, past one byte of node ids: per-request attribution is a list
there, not a bytearray, and routing positions are wider than a byte.
The ``batched_mitigated`` cases run batched nodes with admission,
brownout, a fleet monitor and a ``Metrics`` registry through two node
crashes and a rack partition, each landing while the lost nodes hold
both a forming batch and dispatched work still in flight; the
``batched_unshed`` case runs without deadline shedding, so most
requests time out.  Their digests also cover the registry: the
queue-wait and occupancy samples in dispatch order, bucket counts,
count, sum and max, and every counter.
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

from repro.obs import Metrics
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


def _metrics_digest(metrics) -> str:
    h = hashlib.sha256()
    for name in sorted(metrics.counters):
        h.update(f"{name}={metrics.counters[name].value!r}".encode())
    for name in sorted(metrics.histograms):
        hist = metrics.histograms[name]
        h.update(name.encode())
        h.update(np.asarray(hist.samples, dtype=np.float64).tobytes())
        h.update(repr((hist.counts, hist.count, hist.total, hist._max))
                 .encode())
    return h.hexdigest()[:16]


def _digests(result, monitor=None, metrics=None) -> dict:
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
    if metrics is not None:
        out["metrics"] = _metrics_digest(metrics)
    return out


def _unbatched_setup(router: str, spec: ClusterSpec = ClusterSpec()):
    scenario = SCENARIOS["rack_loss"](spec, 0, REQUESTS)
    monitor = FleetMonitor(windows=256)
    sim = ClusterSimulator(
        spec, router=router,
        admission=TokenBucket(rate_rps=0.95 * spec.capacity_rps,
                              burst=4.0 * spec.num_nodes),
        brownout=BrownoutPolicy(max_concurrent=spec.num_nodes),
        detector_threshold=8.0, shed_on_deadline=True, retries=1,
        seed=1, monitor=monitor)
    return sim, scenario.arrivals, scenario.events, monitor


def _unbatched(router: str, spec: ClusterSpec = ClusterSpec()):
    sim, arrivals, events, monitor = _unbatched_setup(router, spec)
    return sim.run(arrivals, events), monitor


def _diurnal(spec: ClusterSpec, load: float):
    """The batch curve and a diurnal trace whose mean is ``load`` times
    the fleet's batched capacity."""
    curve = ServiceTimeCurve(
        (1, 2, 4, 8, 16),
        tuple(spec.service_time_s * k
              for k in (1.0, 1.25, 1.75, 2.75, 4.75)))
    mean = load * spec.num_nodes * 16 / curve(16)
    duration = REQUESTS / mean
    arrivals = diurnal_arrivals(0.2 * mean, 1.8 * mean, 1.15 * duration,
                                period_s=duration, seed=0)[:REQUESTS]
    return curve, arrivals


def _batched_setup(router: str):
    spec = ClusterSpec()
    curve, arrivals = _diurnal(spec, 0.5)
    events = [ClusterEvent(0.4 * float(arrivals[-1]), "rack_down", 0)]
    sim = ClusterSimulator(
        spec, router=router,
        batching=NodeBatching(curve, max_batch=16, timeout_s=1e-3),
        autoscaler=AutoscalePolicy(min_nodes=4, interval_s=0.05), seed=1)
    return sim, arrivals, events, None


def _batched(router: str):
    sim, arrivals, events, _ = _batched_setup(router)
    return sim.run(arrivals, events), None


def _batched_mitigated(router: str):
    spec = ClusterSpec()
    curve, arrivals = _diurnal(spec, 0.7)
    span = float(arrivals[-1])
    events = [ClusterEvent(0.45 * span, "crash", 3),
              ClusterEvent(0.5 * span, "crash", 10),
              ClusterEvent(0.55 * span, "partition", 3),
              ClusterEvent(0.6 * span, "repair", 3),
              ClusterEvent(0.7 * span, "heal", 3)]
    monitor = FleetMonitor(windows=64)
    metrics = Metrics()
    sim = ClusterSimulator(
        spec, router=router,
        admission=TokenBucket(rate_rps=0.9 * spec.num_nodes * 16
                              / curve(16), burst=4.0 * spec.num_nodes),
        brownout=BrownoutPolicy(max_concurrent=4),
        batching=NodeBatching(curve, max_batch=16, timeout_s=1e-3),
        metrics=metrics, monitor=monitor, seed=1)
    return sim.run(arrivals, events), monitor, metrics


def _batched_unshed(router: str):
    spec = ClusterSpec(deadline_s=6e-3)
    curve, arrivals = _diurnal(spec, 0.7)
    span = float(arrivals[-1])
    events = [ClusterEvent(0.45 * span, "crash", 3),
              ClusterEvent(0.6 * span, "repair", 3)]
    metrics = Metrics()
    sim = ClusterSimulator(
        spec, router=router, shed_on_deadline=False,
        batching=NodeBatching(curve, max_batch=16, timeout_s=1e-3),
        metrics=metrics, seed=1)
    return sim.run(arrivals, events), None, metrics


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
    "batched_mitigated:p2c": dict(
        status="26aaa3a51040beda",
        latency_s="fcb619816ffbe37b",
        event_log="e8b281d327bfd762",
        detector_transitions="ddb00c42b9d5c70a",
        batch_log="63b252e66cff5950",
        active_nodes_trace="dc937b59892604f5",
        monitor_store="7f59d3a51c18c162",
        metrics="342625c1424618ce"),
    "batched_mitigated:least_loaded": dict(
        status="d7ebbbe8c5b54f49",
        latency_s="3d1fc54b5212607e",
        event_log="e8b281d327bfd762",
        detector_transitions="ddb00c42b9d5c70a",
        batch_log="3bb6c39a48fd274d",
        active_nodes_trace="dc937b59892604f5",
        monitor_store="8b80537e4daff9d8",
        metrics="be82787353682f0a"),
    "batched_unshed:p2c": dict(
        status="0be96ea52f37f6b4",
        latency_s="1b08ee168795e42f",
        event_log="a844853c95937673",
        detector_transitions="4f53cda18c2baa0c",
        batch_log="373de703c312e003",
        active_nodes_trace="dc937b59892604f5",
        metrics="1a07d486ee8cd193"),
}


LOOPS = {
    "unbatched": _unbatched,
    "unbatched_wide": lambda router: _unbatched(router, WIDE),
    "batched": _batched,
    "batched_mitigated": _batched_mitigated,
    "batched_unshed": _batched_unshed,
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_outcomes(case):
    loop, router = case.split(":")
    assert _digests(*LOOPS[loop](router)) == GOLDEN[case]


@pytest.mark.parametrize("setup", [_unbatched_setup, _batched_setup],
                         ids=["unbatched", "batched"])
def test_second_run_of_one_simulator_repeats_the_first(setup):
    """``run()`` starts from a healthy fleet every time: the failure
    detector forgets the last run's silences, evictions and
    transitions, so a rack lost in the first run is not still evicted
    in the second, and the transition log does not double."""
    sim, arrivals, events, _ = setup("p2c")
    first = _digests(sim.run(arrivals, events))
    assert sim.detector.transitions
    assert _digests(sim.run(arrivals, events)) == first
