"""Trace synthesis and the monitor's post-run tally without n-sized
temporaries.

``bursty_arrivals``, ``diurnal_arrivals`` and ``_homogeneous_times``
must return exactly the bytes of the straightforward formulas kept
below as the oracle: one binary search per candidate arrival, a rate
array and its quotient. And the two O(n) passes of a million-request
cluster run, synthesizing its trace and ``FleetMonitor.finish``, must
stay within traced-allocation bounds that those formulas exceed.
"""

import tracemalloc

import numpy as np
import pytest

from repro.system.chaos import SCENARIOS, _simulator
from repro.system.cluster import ClusterSpec
from repro.system.loadgen import (_homogeneous_times, bursty_arrivals,
                                  diurnal_arrivals)
from repro.system.monitor import FleetMonitor


# -- the oracle: the formulas as first written ------------------------------

def _oracle_homogeneous(rate_rps, duration_s, rng):
    """Event times and the number of exponential blocks drawn."""
    times = []
    t = 0.0
    chunk = max(int(rate_rps * duration_s * 1.1) + 16, 64)
    while t < duration_s:
        gaps = rng.exponential(1.0 / rate_rps, chunk)
        block = t + np.cumsum(gaps)
        times.append(block)
        t = float(block[-1])
    all_times = np.concatenate(times)
    return all_times[all_times < duration_s], len(times)


def _oracle_diurnal(base, peak, duration_s, period_s, seed):
    rng = np.random.default_rng(seed)
    t, _ = _oracle_homogeneous(peak, duration_s, rng)
    rate_t = base + (peak - base) * 0.5 * (
        1.0 - np.cos(2.0 * np.pi * t / period_s))
    keep = rng.random(t.size) < rate_t / peak
    return t[keep]


def _oracle_bursty(base, burst, duration_s, mean_quiet_s, mean_burst_s,
                   seed):
    rng = np.random.default_rng(seed)
    cycle = mean_quiet_s + mean_burst_s
    n_cycles = max(int(duration_s / cycle * 2) + 8, 8)
    quiet = rng.exponential(mean_quiet_s, n_cycles)
    bursts = rng.exponential(mean_burst_s, n_cycles)
    while float(np.sum(quiet) + np.sum(bursts)) < duration_s:
        quiet = np.concatenate([quiet,
                                rng.exponential(mean_quiet_s, n_cycles)])
        bursts = np.concatenate([bursts,
                                 rng.exponential(mean_burst_s, n_cycles)])
    bounds = np.cumsum(np.stack([quiet[:len(bursts)], bursts],
                                axis=1).ravel())
    t, _ = _oracle_homogeneous(burst, duration_s, rng)
    in_burst = (np.searchsorted(bounds, t, side="right") % 2) == 1
    rate_t = np.where(in_burst, burst, base)
    keep = rng.random(t.size) < rate_t / burst
    return t[keep]


def _draws(count=60, seed=20):
    """Random parameter sets: rates of 1-5,000 req/s over 0.05-20 s,
    sojourns and periods from a hundredth of the run to past its end."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        duration = float(rng.uniform(0.05, 20.0))
        base = float(np.exp(rng.uniform(0.0, np.log(2000.0))))
        peak = base * float(rng.uniform(1.0, 8.0))
        yield dict(
            base=base, peak=peak, duration=duration,
            period=duration * float(np.exp(rng.uniform(-2.0, 1.0))),
            quiet=duration * float(np.exp(rng.uniform(-4.6, 0.5))),
            burst=duration * float(np.exp(rng.uniform(-4.6, 0.0))),
            seed=int(rng.integers(1 << 31)))


def _same(got, want):
    got = np.asarray(got)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", list(_draws()), ids=lambda p: str(p["seed"]))
def test_traces_match_the_oracle_byte_for_byte(p):
    rng_got = np.random.default_rng(p["seed"])
    rng_want = np.random.default_rng(p["seed"])
    want, _ = _oracle_homogeneous(p["peak"], p["duration"], rng_want)
    _same(_homogeneous_times(p["peak"], p["duration"], rng_got), want)
    # Both generators are left at the same point of their streams.
    assert rng_got.random() == rng_want.random()
    _same(diurnal_arrivals(p["base"], p["peak"], p["duration"],
                           period_s=p["period"], seed=p["seed"]),
          _oracle_diurnal(p["base"], p["peak"], p["duration"],
                          p["period"], p["seed"]))
    _same(bursty_arrivals(p["base"], p["peak"], p["duration"],
                          mean_quiet_s=p["quiet"], mean_burst_s=p["burst"],
                          seed=p["seed"]),
          _oracle_bursty(p["base"], p["peak"], p["duration"], p["quiet"],
                         p["burst"], p["seed"]))


def test_a_second_exponential_block_matches_the_oracle():
    """Rate x duration = 50 over-draws 71 gaps; seed 337's first 71 sum
    to less than the duration, so the trace takes a second block."""
    want, blocks = _oracle_homogeneous(10.0, 5.0, np.random.default_rng(337))
    assert blocks == 2
    _same(_homogeneous_times(10.0, 5.0, np.random.default_rng(337)), want)
    _same(diurnal_arrivals(2.0, 10.0, 5.0, period_s=3.0, seed=337),
          _oracle_diurnal(2.0, 10.0, 5.0, 3.0, 337))


# -- traced-allocation bounds ------------------------------------------------

#: Requests of the bounded runs: small enough for about half a second,
#: large enough that per-request arrays dwarf fixed allocations.
REQUESTS = 250_000


def test_rack_loss_trace_synthesis_peak():
    """The end-to-end rack-loss workload's trace (bursty, 1.3x its
    duration, sojourns of 1/80 and 1/120 of it). At 250k requests the
    one-search-per-candidate formulas peaked at 23.8 MB of traced
    allocations (95 bytes a request); one search per sojourn bound and
    a thinning test without a rate array peak at 13.0 MB."""
    spec = ClusterSpec()
    rate = 0.6 * spec.capacity_rps
    duration = REQUESTS / rate
    tracemalloc.start()
    try:
        arrivals = bursty_arrivals(
            0.5 * rate, 2.0 * rate, 1.3 * duration,
            mean_quiet_s=duration / 80, mean_burst_s=duration / 120,
            seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arrivals.size > REQUESTS
    assert peak < 72 * REQUESTS, f"{peak / 1e6:.1f} MB"


def test_monitor_finish_peak():
    """``FleetMonitor.finish`` on a monitored rack-loss run, above its
    entry state. At 250k requests an n-sized window-key ``repeat`` and
    every intermediate held to the end peaked at 8.9 MB (36 bytes a
    request); slice-added keys, early drops and in-place binning peak
    at 4.5 MB."""
    spec = ClusterSpec()
    scenario = SCENARIOS["rack_loss"](spec, 0, REQUESTS)
    sim = _simulator(spec, True, 1, None, None)
    monitor = FleetMonitor(windows=256)
    sim.monitor = monitor
    finish, peak = monitor.finish, []

    def traced_finish(result, node_of):
        tracemalloc.start()
        try:
            finish(result, node_of)
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monitor.finish = traced_finish
    sim.run(scenario.arrivals, scenario.events)
    assert peak[0] < 26 * REQUESTS, f"{peak[0] / 1e6:.1f} MB"
