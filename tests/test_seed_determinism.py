"""Seed-determinism audit: same seed, byte-identical results.

Every stochastic entry point in the repo takes an explicit seed and
builds its own ``numpy.random.default_rng`` / ``random.Random``; nothing
may draw from the global numpy or stdlib generators, or reruns and CI
become unreproducible. The source scan at the bottom enforces that
convention going forward.
"""

import pathlib
import re

import numpy as np
import pytest

from repro.isa.assembler import format_program
from repro.verify import case_to_json, generate_case, run_fuzz

pytestmark = pytest.mark.tier1

SRC = pathlib.Path(__file__).parent.parent / "src"


def test_generate_case_is_seed_deterministic():
    a, b = generate_case(42), generate_case(42)
    assert format_program(a.program) == format_program(b.program)
    assert a.config == b.config
    for mem in a.vrf_init:
        assert a.vrf_init[mem].tobytes() == b.vrf_init[mem].tobytes()
    for field in ("dram_vectors", "dram_tiles", "netq_vectors",
                  "netq_tiles"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    # Different seeds diverge (sanity check the seed is actually used).
    c = generate_case(43)
    assert (format_program(a.program) != format_program(c.program)
            or a.dram_vectors.tobytes() != c.dram_vectors.tobytes())


def test_case_serialization_is_deterministic():
    import json
    one = json.dumps(case_to_json(generate_case(17)), sort_keys=True)
    two = json.dumps(case_to_json(generate_case(17)), sort_keys=True)
    assert one == two


def test_fuzz_campaign_is_seed_deterministic():
    r1 = run_fuzz(seed=11, iterations=5, check_timing=False)
    r2 = run_fuzz(seed=11, iterations=5, check_timing=False)
    assert r1.render() == r2.render()
    assert r1.cases_run == r2.cases_run == 5


def test_load_generator_is_seed_deterministic():
    from repro.system import poisson_arrivals
    a = poisson_arrivals(500.0, 200, seed=9)
    b = poisson_arrivals(500.0, 200, seed=9)
    assert np.array_equal(np.asarray(a), np.asarray(b))


def test_fault_injection_is_seed_deterministic():
    from repro.harness.experiments import slo_under_faults
    one = slo_under_faults(requests=150, rate_rps=500.0,
                           transient_prob=0.05, replicas=2, seed=4)
    two = slo_under_faults(requests=150, rate_rps=500.0,
                           transient_prob=0.05, replicas=2, seed=4)
    assert one.render() == two.render()


def test_shaped_arrival_traces_are_seed_deterministic():
    from repro.system import (bursty_arrivals, diurnal_arrivals,
                              heavy_tailed_arrivals)
    for make in (lambda s: diurnal_arrivals(50.0, 150.0, 5.0, seed=s),
                 lambda s: bursty_arrivals(50.0, 500.0, 5.0, seed=s),
                 lambda s: heavy_tailed_arrivals(200.0, 400, seed=s)):
        assert np.array_equal(np.asarray(make(6)),
                              np.asarray(make(6)))
        assert not np.array_equal(np.asarray(make(6)),
                                  np.asarray(make(7)))


def test_cluster_simulator_is_seed_deterministic():
    """The cluster's routing RNG stream: same seed, identical
    per-request statuses and latencies, bit for bit."""
    from repro.system import (ClusterEvent, ClusterSimulator,
                              ClusterSpec, TokenBucket)
    spec = ClusterSpec(racks=2, nodes_per_rack=2)
    arrivals = np.arange(800) * 3e-4
    events = [ClusterEvent(0.05, "rack_down", 0),
              ClusterEvent(0.15, "rack_up", 0)]

    def run(seed):
        sim = ClusterSimulator(
            spec, admission=TokenBucket(rate_rps=3500.0), seed=seed)
        return sim.run(arrivals, list(events))

    a, b = run(13), run(13)
    assert np.array_equal(a.status, b.status)
    assert np.array_equal(a.latency_s, b.latency_s, equal_nan=True)
    assert a.event_log == b.event_log
    assert a.detector_transitions == b.detector_transitions


def test_correlated_fault_injector_is_seed_deterministic():
    """The chaos layer's private fault-RNG stream is independent of
    the per-invocation stream and reproducible per seed."""
    from repro.system import ClusterSpec, CorrelatedFaultInjector
    spec = ClusterSpec(racks=2, nodes_per_rack=3)

    def events(seed):
        inj = CorrelatedFaultInjector(spec, seed=seed)
        return (inj.rack_outage(0, 1.0)
                + inj.tor_partition(1, 2.0)
                + inj.rolling_slowdown(4.0, 0.0, 1.0))

    assert events(21) == events(21)
    assert events(21) != events(22)
    # Drawing cluster events does not perturb the inherited
    # per-invocation fault sampling (separate streams).
    plain = CorrelatedFaultInjector(spec, seed=21)
    drawn = CorrelatedFaultInjector(spec, seed=21)
    drawn.rack_outage(0, 1.0)
    drawn.tor_partition(1, 2.0)
    assert [plain.sample("n0") for _ in range(20)] == \
        [drawn.sample("n0") for _ in range(20)]


def test_chaos_suite_is_seed_deterministic():
    from repro.system import chaos_suite
    one = chaos_suite(requests=3000, seed=5)
    two = chaos_suite(requests=3000, seed=5)
    assert one.render() == two.render()


def test_plan_compilation_is_deterministic():
    """Two fresh simulators compile byte-identical replay plans for the
    same program: same step-kind sequence, same outputs, same final
    architectural state. Plan compilation draws from no RNG and no
    iteration-order-unstable container."""
    from repro.compiler import compile_lstm
    from repro.config import NpuConfig
    from repro.models import LstmReference

    cfg = NpuConfig(name="det_rnn", native_dim=128, lanes=4,
                    tile_engines=2, mrf_size=256, mantissa_bits=2)
    model = compile_lstm(
        LstmReference(hidden_dim=200, input_dim=200, seed=5), cfg)
    rng = np.random.default_rng(8)
    xs = [rng.uniform(-1, 1, 200).astype(np.float32) for _ in range(2)]

    def run():
        sim = model.new_simulator()
        outs = model.run_sequence(xs, sim=sim, compiled=True)
        plan = next(iter(sim._plans.values()))
        kinds = [type(step).__name__ for step in plan.steps]
        return outs, kinds, sim.snapshot()

    def state_bytes(obj):
        if isinstance(obj, dict):
            return tuple((k, state_bytes(v)) for k, v in obj.items())
        if isinstance(obj, (list, tuple)):
            return tuple(state_bytes(v) for v in obj)
        if isinstance(obj, np.ndarray):
            return obj.tobytes()
        return obj

    out_a, kinds_a, snap_a = run()
    out_b, kinds_b, snap_b = run()
    assert kinds_a == kinds_b
    assert len(kinds_a) > 0
    for x, y in zip(out_a, out_b):
        assert x.tobytes() == y.tobytes()
    assert state_bytes(snap_a) == state_bytes(snap_b)


def test_no_global_numpy_random_in_src():
    """`np.random.<draw>` without an explicit Generator is forbidden;
    `default_rng(seed)` / `Generator` type hints are the allowed uses."""
    offenders = []
    pattern = re.compile(r"np\.random\.(?!default_rng|Generator)\w+")
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                offenders.append(f"{path}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


def test_no_global_stdlib_random_in_src():
    """Module-level `random.<draw>()` calls are forbidden; seeded
    `random.Random(seed)` instances are the allowed idiom."""
    offenders = []
    pattern = re.compile(
        r"(?<![\w.])random\.(random|randint|choice|shuffle|uniform|"
        r"gauss|sample|randrange)\(")
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                offenders.append(f"{path}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


def test_monitoring_plane_is_seed_deterministic():
    """Repeated seeded monitored runs produce byte-identical stores,
    incident lists, and scorecards — the monitoring plane draws from
    no RNG stream of its own."""
    from repro.system.monitor import run_monitored_scenario

    def run():
        return run_monitored_scenario("rack_loss", requests=6000,
                                      seed=3)

    a, b = run(), run()
    assert a.store.render() == b.store.render()
    assert a.alerts == b.alerts
    assert a.incidents == b.incidents
    assert a.faults == b.faults
    assert a.scorecard.render() == b.scorecard.render()


def test_monitoring_does_not_perturb_outcomes():
    """A monitored run's request outcomes are bit-identical to the
    unmonitored run on the same seed (the monitor is an observer, not
    a participant)."""
    import numpy as np

    from repro.system import (ClusterSimulator, ClusterSpec,
                              TokenBucket)
    from repro.system.chaos import SCENARIOS
    from repro.system.monitor import FleetMonitor

    spec = ClusterSpec(racks=2, nodes_per_rack=3)
    scenario = SCENARIOS["rolling_slow"](spec, 2, 4000)

    def run(monitor):
        sim = ClusterSimulator(
            spec, admission=TokenBucket(rate_rps=spec.capacity_rps),
            seed=5, monitor=monitor)
        return sim.run(scenario.arrivals, list(scenario.events))

    plain = run(None)
    watched = run(FleetMonitor(windows=64))
    assert np.array_equal(plain.status, watched.status)
    assert np.array_equal(plain.latency_s, watched.latency_s,
                          equal_nan=True)
    assert plain.event_log == watched.event_log


def test_adaptive_batching_is_deterministic():
    """The SLO-aware batching layer is RNG-free: a fixed arrival trace
    reproduces the adaptive target trajectory, the dispatch shapes, and
    every request lifecycle bit for bit."""
    from repro.system import (AdaptiveBatchPolicy, BatchPolicy,
                              DynamicBatcher, ServiceTimeCurve,
                              poisson_arrivals)
    curve = ServiceTimeCurve((1, 2, 4, 8, 16),
                             (1e-3, 1.1e-3, 1.3e-3, 1.7e-3, 2.5e-3))
    arrivals = poisson_arrivals(3000.0, 1500, seed=9)

    def run():
        batcher = DynamicBatcher(
            BatchPolicy(max_batch=16, timeout_s=1e-3), curve=curve,
            adaptive=AdaptiveBatchPolicy(slo_s=8e-3, max_batch=16))
        return batcher.run(arrivals)

    a, b = run(), run()
    assert a.target_trace == b.target_trace
    assert a.batch_sizes == b.batch_sizes
    assert [(r.arrival, r.start, r.finish) for r in a.requests] == \
        [(r.arrival, r.start, r.finish) for r in b.requests]


def test_slo_sweep_is_seed_deterministic():
    """The goodput sweep draws all randomness from its seed: two runs
    produce byte-identical payloads, and a different seed does not."""
    from repro.system import ServiceTimeCurve, slo_sweep
    curve = ServiceTimeCurve((1, 2, 4, 8, 16),
                             (1e-3, 1.1e-3, 1.3e-3, 1.7e-3, 2.5e-3))

    def sweep(seed):
        return slo_sweep(curve, slo_s=8e-3,
                         rates_rps=[800.0, 2000.0], requests=400,
                         seed=seed)

    assert sweep(4) == sweep(4)
    assert sweep(4) != sweep(5)
