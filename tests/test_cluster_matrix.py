"""Configuration matrix of ``ClusterSimulator``.

A bounded, derandomized ``hypothesis`` sweep over the cluster knobs:
router, node batching (none, batch-1 ``NodeBatching``, 16 requests or
1 ms), autoscaler (batched only), admission, brownout, the fleet
monitor, retries, the failure detector, deadline shedding, and one
control event of each action.  Every cell either finishes with its
invariants holding or, if it matches an entry of ``EXPECTED_REJECT``,
raises a ``ClusterError`` at construction.

Invariants of a finished cell: status counts sum to the request count;
SERVED, BROWNOUT and TIMEOUT latencies are finite (within the deadline
for the first two, past it for TIMEOUT) and every other latency is
NaN; a same-seed rerun gives the same digest; a monitored run is
bit-identical to the same run unmonitored.

Traces hold at most 2,000 requests on a 2x3-node cluster, so the
whole matrix runs in seconds.
"""

import dataclasses
import hashlib
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.system.batching import ServiceTimeCurve
from repro.system.cluster import (
    BROWNOUT,
    SERVED,
    STATUS_NAMES,
    TIMEOUT,
    AutoscalePolicy,
    BrownoutPolicy,
    ClusterError,
    ClusterEvent,
    ClusterSimulator,
    ClusterSpec,
    NodeBatching,
    TokenBucket,
)
from repro.system.monitor import FleetMonitor

SPEC = ClusterSpec(racks=2, nodes_per_rack=3)
MAX_REQUESTS = 2000

_CURVE = ServiceTimeCurve((1, 2, 4, 8, 16),
                          tuple(SPEC.service_time_s * k
                                for k in (1.0, 1.25, 1.75, 2.75, 4.75)))
_BATCHINGS = {
    "none": None,
    "b1": NodeBatching(lambda b: b * SPEC.service_time_s, 1, 0.0),
    "b16": NodeBatching(_CURVE, max_batch=16, timeout_s=1e-3),
}
#: A recovery action runs after the fault it undoes.
_UNDOES = {"repair": "crash", "rack_up": "rack_down", "heal": "partition",
           "unslow": "slow"}
_NODE_ACTIONS = ("crash", "repair", "slow", "unslow")
_ACTIONS = ("crash", "repair", "rack_down", "rack_up", "partition",
            "heal", "slow", "unslow")


@dataclasses.dataclass(frozen=True)
class Cell:
    router: str
    batching: str
    autoscale: bool
    admission: bool
    brownout: bool
    monitor: bool
    retries: int
    detector: Optional[float]
    shed_on_deadline: bool
    load: float
    requests: int
    seed: int
    action: str


#: Cells that must raise ``ClusterError`` at construction, each with
#: the reason.
EXPECTED_REJECT = [
    ("retries > 1: the router has one alternate candidate",
     lambda c: c.retries > 1),
]

cells = st.builds(
    Cell,
    router=st.sampled_from(("p2c", "least_loaded", "random")),
    batching=st.sampled_from(sorted(_BATCHINGS)),
    autoscale=st.booleans(),
    admission=st.booleans(),
    brownout=st.booleans(),
    monitor=st.booleans(),
    retries=st.sampled_from((0, 1, 3)),
    detector=st.sampled_from((None, 8.0)),
    shed_on_deadline=st.booleans(),
    load=st.sampled_from((0.3, 0.9, 1.6)),
    requests=st.sampled_from((0, 9, 400, MAX_REQUESTS)),
    seed=st.integers(0, 3),
    action=st.sampled_from(_ACTIONS),
).filter(lambda c: c.batching != "none" or not c.autoscale)


def _simulator(cell: Cell, monitor: bool) -> ClusterSimulator:
    spec = SPEC
    return ClusterSimulator(
        spec, router=cell.router,
        admission=(TokenBucket(rate_rps=0.8 * spec.capacity_rps,
                               burst=2.0 * spec.num_nodes)
                   if cell.admission else None),
        brownout=(BrownoutPolicy(max_concurrent=spec.num_nodes)
                  if cell.brownout else None),
        detector_threshold=cell.detector,
        shed_on_deadline=cell.shed_on_deadline, retries=cell.retries,
        seed=cell.seed + 1,
        monitor=FleetMonitor(windows=32) if monitor else None,
        batching=_BATCHINGS[cell.batching],
        autoscaler=(AutoscalePolicy(min_nodes=1, interval_s=0.02)
                    if cell.autoscale else None))


def _scenario(cell: Cell):
    rate = cell.load * SPEC.capacity_rps
    rng = np.random.default_rng(cell.seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, cell.requests))
    span = float(arrivals[-1]) if cell.requests else 0.05
    action = cell.action
    target = 1 if action in _NODE_ACTIONS else 0
    events = [ClusterEvent(0.6 * span, action, target, 4.0)]
    if action in _UNDOES:
        events.insert(0, ClusterEvent(0.3 * span, _UNDOES[action],
                                      target, 4.0))
    return arrivals, events


def _sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = data.tobytes()
    else:
        data = repr(data).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _digest(res) -> tuple:
    return (_sha(res.status), _sha(res.latency_s), _sha(res.event_log),
            _sha(res.detector_transitions), _sha(res.batch_log),
            _sha(res.active_nodes_trace))


def _check_invariants(res, n: int) -> None:
    assert res.total == n
    assert set(np.unique(res.status)) <= set(STATUS_NAMES)
    assert sum(res.counts().values()) == n
    lat = res.latency_s
    completed = np.isin(res.status, (SERVED, BROWNOUT, TIMEOUT))
    assert np.isfinite(lat[completed]).all()
    assert np.isnan(lat[~completed]).all()
    in_time = np.isin(res.status, (SERVED, BROWNOUT))
    assert (lat[in_time] <= SPEC.deadline_s).all()
    assert (lat[res.status == TIMEOUT] > SPEC.deadline_s).all()


def _expected_reject(cell: Cell) -> list:
    return [why for why, match in EXPECTED_REJECT if match(cell)]


@settings(max_examples=240, derandomize=True, deadline=None,
          database=None, suppress_health_check=list(HealthCheck))
@given(cell=cells)
def test_cell_finishes_or_raises_structured_error(cell):
    reasons = _expected_reject(cell)
    if reasons:
        with pytest.raises(ClusterError):
            _simulator(cell, cell.monitor)
        return
    arrivals, events = _scenario(cell)
    res = _simulator(cell, cell.monitor).run(arrivals, events)
    _check_invariants(res, cell.requests)
    rerun = _simulator(cell, cell.monitor).run(arrivals, events)
    assert _digest(rerun) == _digest(res)
    if cell.monitor:
        bare = _simulator(cell, False).run(arrivals, events)
        assert _digest(bare) == _digest(res)
