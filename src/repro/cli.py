"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``configs`` — list the published NPU instances and their derived
  parameters;
* ``experiment <id|all>`` — run an experiment driver and print its
  table (``table1``, ``table5``, ``fig8``, ...);
* ``time <kind> <hidden> <steps>`` — latency/throughput of one RNN on a
  configuration;
* ``disassemble <kind> <hidden>`` — print the generated NPU program;
* ``serve-faults`` — availability/goodput/latency of replicated
  microservice serving under injected faults;
* ``serve-batch`` — calibrate a batch service-time curve from the real
  batched replay path, then sweep goodput at a fixed p99 SLO: batch-1
  vs SLO-aware dynamic batching (docs/SERVING.md);
* ``chaos <scenario|all>`` — run cluster chaos scenarios, mitigated vs
  ablated, with an optional availability gate;
* ``monitor <scenario|all>`` — run a chaos scenario with the fleet
  monitoring plane attached: text/HTML dashboard, SLO burn-rate
  alerts, Prometheus export, and a detection scorecard with optional
  precision/recall/MTTD gates;
* ``trace <workload>`` — run a workload with :mod:`repro.obs` tracing
  and write a Chrome/Perfetto ``trace.json`` plus a metrics summary;
* ``fuzz`` — differential conformance fuzzing of the ISA executors
  (reference interpreter, both simulator paths, compiled replay, and
  batched replay; see docs/TESTING.md);
* ``bench`` — run the perf suite (quick or full) and gate on the
  headline speedups, optionally emitting the JSON payload;
* ``numerics-sweep`` — accuracy-vs-storage Pareto sweep across the BFP
  / Microscaling format family (docs/NUMERICS.md);
* ``specialize <kind> <hidden> <device>`` — best synthesis-specialized
  instance for a model on a device.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .config import STANDARD_CONFIGS
from .errors import ReproError


def _cmd_configs(_args) -> int:
    header = (f"{'name':<12} {'tiles':>5} {'lanes':>5} {'N':>5} "
              f"{'MRF':>5} {'MACs':>7} {'MHz':>5} {'TFLOPS':>7} "
              f"{'precision':<16} device")
    print(header)
    print("-" * len(header))
    for cfg in STANDARD_CONFIGS.values():
        print(f"{cfg.name:<12} {cfg.tile_engines:>5} {cfg.lanes:>5} "
              f"{cfg.native_dim:>5} {cfg.mrf_size:>5} "
              f"{cfg.total_macs:>7} {cfg.clock_mhz:>5.0f} "
              f"{cfg.peak_tflops:>7.1f} {cfg.precision_name:<16} "
              f"{cfg.device}")
    return 0


def _cmd_experiment(args) -> int:
    from .harness import ALL_EXPERIMENTS
    if args.id == "all":
        names = sorted(ALL_EXPERIMENTS)
    elif args.id in ALL_EXPERIMENTS:
        names = [args.id]
    else:
        print(f"unknown experiment {args.id!r}; available: "
              f"{', '.join(sorted(ALL_EXPERIMENTS))} or 'all'",
              file=sys.stderr)
        return 2
    for name in names:
        print(ALL_EXPERIMENTS[name]().render())
        print()
    return 0


def _resolve_config(name: str):
    if name not in STANDARD_CONFIGS:
        raise ReproError(
            f"unknown config {name!r}; available: "
            f"{', '.join(STANDARD_CONFIGS)}")
    return STANDARD_CONFIGS[name]


def _cmd_time(args) -> int:
    from .compiler.lowering import compile_rnn_shape
    from .timing import TimingSimulator
    config = _resolve_config(args.config)
    compiled = compile_rnn_shape(args.kind, args.hidden, config)
    report = TimingSimulator(config).run(
        compiled.program, bindings={"steps": args.steps},
        nominal_ops=args.steps * compiled.ops_per_step)
    print(f"{args.kind.upper()} h={args.hidden} t={args.steps} on "
          f"{config.name}:")
    print(f"  latency:    {report.latency_ms:.4f} ms "
          f"({report.total_cycles:.0f} cycles)")
    print(f"  throughput: {report.effective_tflops:.2f} effective "
          f"TFLOPS ({100 * report.utilization:.1f}% of peak)")
    print(f"  MVM busy:   {100 * report.mvm_occupancy:.1f}% of cycles")
    return 0


def _cmd_disassemble(args) -> int:
    from .compiler.lowering import compile_rnn_shape
    from .isa import format_program
    config = _resolve_config(args.config)
    compiled = compile_rnn_shape(args.kind, args.hidden, config)
    sys.stdout.write(format_program(compiled.program))
    return 0


def _cmd_serve_faults(args) -> int:
    from .harness.experiments import slo_under_faults
    table = slo_under_faults(requests=args.requests,
                             rate_rps=args.rate,
                             transient_prob=args.transient,
                             replicas=args.replicas, seed=args.seed)
    print(table.render())
    return 0


def _cmd_serve_batch(args) -> int:
    import json

    from .compiler.lowering import compile_gru, compile_lstm
    from .obs import Metrics, render_prometheus
    from .models.gru import GruReference
    from .models.lstm import LstmReference
    from .system.batching import (calibrate_batch_curve,
                                  render_slo_sweep, slo_sweep)
    config = _resolve_config(args.config)
    if args.kind == "lstm":
        model = compile_lstm(LstmReference(hidden_dim=args.hidden,
                                           seed=7), config)
    else:
        model = compile_gru(GruReference(hidden_dim=args.hidden,
                                         seed=7), config)
    if args.quick:
        batches, steps, repeats = (1, 4, 8, 16), 4, 2
        requests, fracs = 600, (0.8, 2.0, 3.0)
    else:
        batches, steps, repeats = (1, 2, 4, 8, 16), 8, 3
        requests, fracs = 2000, (0.5, 1.0, 1.8, 2.5, 3.2, 4.0)
    curve = calibrate_batch_curve(model, batches=batches, steps=steps,
                                  repeats=repeats)
    t1 = curve(1)
    metrics = Metrics()
    payload = slo_sweep(curve, slo_s=args.slo_multiple * t1,
                        rates_rps=[f / t1 for f in fracs],
                        requests=requests, max_batch=args.max_batch,
                        seed=args.seed, metrics=metrics)
    payload["workload"] = {"kind": args.kind, "hidden": args.hidden,
                           "config": config.name}
    print(f"{args.kind} h={args.hidden} on {config.name}: measured "
          f"batch-1 service {t1 * 1e3:.3f} ms")
    print(render_slo_sweep(payload))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(render_prometheus(metrics=metrics))
        print(f"wrote {args.prom}")
    if args.min_goodput_ratio is not None \
            and payload["goodput_ratio"] < args.min_goodput_ratio:
        print(f"FAIL: goodput ratio {payload['goodput_ratio']:.2f}x "
              f"below the {args.min_goodput_ratio}x floor",
              file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args) -> int:
    from .system.chaos import SCENARIOS, chaos_suite, run_chaos_scenario
    from .system.cluster import ClusterSpec
    spec = ClusterSpec(racks=args.racks,
                       nodes_per_rack=args.nodes_per_rack)
    if args.scenario == "all":
        table = chaos_suite(requests=args.requests, seed=args.seed,
                            spec=spec)
        print(table.render())
        if args.min_availability is None:
            return 0
        ok = True
        for name in sorted(SCENARIOS):
            res = run_chaos_scenario(name, spec=spec,
                                     requests=args.requests,
                                     seed=args.seed, mitigated=True)
            if res.availability < args.min_availability:
                ok = False
                print(f"FLOOR VIOLATED: {name} availability "
                      f"{res.availability:.4f} < "
                      f"{args.min_availability}")
        return 0 if ok else 1
    ok = True
    for mitigated in ((True,) if args.no_ablation else (True, False)):
        res = run_chaos_scenario(args.scenario, spec=spec,
                                 requests=args.requests,
                                 seed=args.seed, mitigated=mitigated)
        stack = "mitigated" if mitigated else "ablated"
        print(f"--- {args.scenario} ({stack}) ---")
        print(res.render())
        if mitigated and args.min_availability is not None \
                and res.availability < args.min_availability:
            ok = False
            print(f"FLOOR VIOLATED: availability "
                  f"{res.availability:.4f} < {args.min_availability}")
    return 0 if ok else 1


def _monitor_out_path(path: str, name: str, many: bool) -> str:
    if not many:
        return path
    root, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}-{name}"
    return f"{root}-{name}.{ext}"


def _cmd_monitor(args) -> int:
    import math

    from .obs import (render_html_dashboard, render_text_dashboard,
                      write_prometheus)
    from .system.chaos import SCENARIOS
    from .system.cluster import ClusterSpec
    from .system.monitor import run_monitored_scenario
    spec = ClusterSpec(racks=args.racks,
                       nodes_per_rack=args.nodes_per_rack)
    names = sorted(SCENARIOS) if args.scenario == "all" \
        else [args.scenario]
    many = len(names) > 1
    ok = True
    for name in names:
        run = run_monitored_scenario(
            name, spec=spec, requests=args.requests, seed=args.seed,
            mitigated=not args.ablated, windows=args.windows)
        print(render_text_dashboard(
            run.store, incidents=run.incidents, faults=run.faults,
            scorecard=run.scorecard,
            title=f"{name} ({run.stack}): {args.requests} requests, "
                  f"seed {args.seed}"))
        print()
        if args.html:
            path = _monitor_out_path(args.html, name, many)
            with open(path, "w") as fh:
                fh.write(render_html_dashboard(
                    run.store, incidents=run.incidents,
                    faults=run.faults, scorecard=run.scorecard,
                    title=f"{name} ({run.stack})"))
            print(f"wrote HTML dashboard to {path}")
        if args.prom:
            path = _monitor_out_path(args.prom, name, many)
            write_prometheus(path, store=run.store)
            print(f"wrote Prometheus text exposition to {path}")
        card = run.scorecard
        if args.min_precision is not None \
                and card.precision < args.min_precision:
            ok = False
            print(f"GATE VIOLATED: {name} precision "
                  f"{card.precision:.2f} < {args.min_precision}")
        if args.min_recall is not None \
                and card.recall < args.min_recall:
            ok = False
            print(f"GATE VIOLATED: {name} recall "
                  f"{card.recall:.2f} < {args.min_recall}")
        if args.max_mttd is not None and card.faults \
                and (math.isnan(card.mttd_s)
                     or card.mttd_s > args.max_mttd):
            ok = False
            print(f"GATE VIOLATED: {name} MTTD "
                  f"{card.mttd_s:.3f} s > {args.max_mttd} s")
    return 0 if ok else 1


def _finish_trace(args, tracer, metrics) -> None:
    from .obs import summarize, to_jsonl, write_chrome_trace
    count = write_chrome_trace(args.out, tracer)
    print(f"\nwrote {count} trace events to {args.out} "
          f"(load in chrome://tracing or https://ui.perfetto.dev)")
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            fh.write(to_jsonl(tracer) + "\n")
        print(f"wrote event dump to {args.jsonl}")
    print()
    print(summarize(tracer, metrics))


def _trace_rnn(args) -> int:
    from .compiler.lowering import compile_rnn_shape
    from .obs import Metrics, Tracer
    from .timing import (TimingSimulator, build_hdd_tree, occupancy,
                         occupancy_from_trace)
    config = _resolve_config(args.config)
    hidden = args.hidden if args.hidden is not None else 512
    steps = args.steps if args.steps is not None else 10
    compiled = compile_rnn_shape(args.workload, hidden, config)
    tracer = Tracer(unit="cycles")
    metrics = Metrics()
    sim = TimingSimulator(config, record_chains=True, tracer=tracer,
                          metrics=metrics)
    report = sim.run(compiled.program, bindings={"steps": steps},
                     nominal_ops=steps * compiled.ops_per_step)
    build_hdd_tree(config).annotate(metrics)
    occ_report = occupancy(report)
    occ_trace = occupancy_from_trace(tracer)
    print(f"{args.workload.upper()} h={hidden} t={steps} on "
          f"{config.name}: {report.latency_ms:.4f} ms")
    print(f"  occupancy (report): {occ_report.render()}")
    print(f"  occupancy (trace):  {occ_trace.render()}")
    match = occ_report.mvm_occupancy == occ_trace.mvm_occupancy
    print(f"  trace/report MVM occupancy match: "
          f"{'yes' if match else 'NO'}")
    _finish_trace(args, tracer, metrics)
    return 0 if match else 1


def _trace_serving(args) -> int:
    from .compiler.lowering import compile_rnn_shape
    from .obs import Metrics, Tracer
    from .system import (FaultEvent, FaultInjector, FaultProfile,
                         FpgaNode, HardwareMicroservice,
                         MicroserviceRegistry, ResilientClient,
                         RetryPolicy, poisson_arrivals,
                         run_fault_scenario)
    config = _resolve_config(args.config)
    hidden = args.hidden if args.hidden is not None else 512
    steps = args.steps if args.steps is not None else 50
    compiled = compile_rnn_shape("lstm", hidden, config)
    tracer = Tracer(unit="s")
    metrics = Metrics()
    profile = FaultProfile(
        transient_failure_prob=args.transient, tail_spike_prob=0.01,
        tail_spike_multiplier=8.0, packet_loss_prob=0.01)
    injector = FaultInjector(profile, seed=args.seed + 1)
    registry = MicroserviceRegistry(failure_threshold=3,
                                    recovery_timeout_s=25e-3,
                                    tracer=tracer, metrics=metrics)
    for i in range(args.replicas):
        registry.publish_replica(HardwareMicroservice(
            "lstm", FpgaNode(f"lstm-{i}", compiled),
            injector=injector))
    policy = RetryPolicy(max_attempts=4, deadline_s=20e-3,
                         hedge_after_s=2.5e-3)
    client = ResilientClient(registry, policy, seed=args.seed + 2,
                             tracer=tracer, metrics=metrics)
    arrivals = poisson_arrivals(args.rate, args.requests,
                                seed=args.seed)
    duration = args.requests / args.rate
    # One replica crashes a quarter into the run and is repaired at
    # the midpoint, exercising breaker open/half-open/close events.
    events = [FaultEvent(0.25 * duration, "crash", "lstm-0"),
              FaultEvent(0.50 * duration, "repair", "lstm-0")]
    result = run_fault_scenario(client, "lstm", arrivals, steps=steps,
                                injector=injector, events=events,
                                tracer=tracer, metrics=metrics)
    print(f"serve-faults: LSTM h={hidden} t={steps}, "
          f"{args.requests} requests at {args.rate:.0f}/s, "
          f"{args.replicas} replicas")
    print(f"  availability: {100 * result.availability:.3f}%  "
          f"p50 {result.p50_ms:.2f} ms  p99 {result.p99_ms:.2f} ms  "
          f"mean attempts {result.mean_attempts:.2f}  "
          f"hedges {result.hedged}")
    _finish_trace(args, tracer, metrics)
    return 0


def _cmd_trace(args) -> int:
    if args.workload == "serve-faults":
        return _trace_serving(args)
    return _trace_rnn(args)


def _cmd_fuzz(args) -> int:
    from .verify import (FUZZ_CONFIGS, PROFILES, replay_corpus, run_fuzz)
    if args.replay is not None:
        report = replay_corpus(args.replay,
                               check_timing=not args.no_timing)
        print(report.render())
        return 0 if report.ok else 1
    config = FUZZ_CONFIGS[args.config] if args.config else None
    progress = None
    if args.progress:
        def progress(done, total):
            if done % 50 == 0 or done == total:
                print(f"  {done}/{total} cases", file=sys.stderr)
    report = run_fuzz(seed=args.seed, iterations=args.iterations,
                      profile=PROFILES[args.profile], config=config,
                      corpus_dir=args.corpus_dir,
                      shrink=not args.no_shrink,
                      check_timing=not args.no_timing,
                      progress=progress)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    import json

    from .harness.perf import (headline_gates, render_table,
                               results_from_json, run_suite)
    quick = args.mode == "quick"
    payload = run_suite(quick=quick)
    results = results_from_json(payload)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_table(results))
        print()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
        if not args.json:
            print(f"wrote {args.output}")
    head = payload["headline"]
    workload = (f"headline {head['kind']} h={head['hidden']} on "
                f"{head['config']}")
    rc = 0
    for label, speedup, floor in headline_gates(results, quick):
        if speedup is None:
            print(f"{workload}: {label} missing from results",
                  file=sys.stderr)
            rc = max(rc, 2)
            continue
        if not args.json:
            print(f"{workload}: {label} is {speedup:.2f}x "
                  f"(floor {floor}x)")
        if speedup < floor:
            print(f"FAIL: {label} below the {floor}x floor",
                  file=sys.stderr)
            rc = max(rc, 1)
    return rc


def _cmd_numerics_sweep(args) -> int:
    import json

    from .numerics import (FORMAT_FAMILY, named_format, pareto_front,
                           render_pareto_table, sweep_formats)
    if args.formats:
        formats = {name: named_format(name) for name in args.formats}
    else:
        formats = dict(FORMAT_FAMILY)
    points = sweep_formats(formats, rows=args.rows, width=args.width,
                           seed=args.seed)
    payload = {
        "workload": {"rows": args.rows, "width": args.width,
                     "seed": args.seed},
        "points": [p.as_dict() for p in points],
        "pareto_front": [p.key for p in pareto_front(points)],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_pareto_table(points))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
        if not args.json:
            print(f"wrote {args.output}")
    return 0


def _cmd_specialize(args) -> int:
    from .synthesis import best_config, device_by_name, rnn_requirements
    try:
        device = device_by_name(args.device)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    req = rnn_requirements(args.kind, args.hidden)
    cand = best_config(req, device)
    cfg = cand.config
    print(f"best instance for {args.kind.upper()}-{args.hidden} on "
          f"{device.name}:")
    print(f"  native_dim={cfg.native_dim} lanes={cfg.lanes} "
          f"tiles={cfg.tile_engines} mrf={cfg.mrf_size}")
    print(f"  {cand.effective_tflops:.1f} effective TFLOPS "
          f"({100 * cand.padding_efficiency:.0f}% padding efficiency)")
    print(f"  {cand.resources.summary()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Brainwave NPU reproduction (ISCA 2018)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("configs", help="list the published NPU instances") \
        .set_defaults(func=_cmd_configs)

    p = sub.add_parser("experiment",
                       help="run an experiment driver (or 'all')")
    p.add_argument("id")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("time", help="time an RNN on a configuration")
    p.add_argument("kind", choices=["lstm", "gru"])
    p.add_argument("hidden", type=int)
    p.add_argument("steps", type=int)
    p.add_argument("--config", default="BW_S10",
                   choices=sorted(STANDARD_CONFIGS))
    p.set_defaults(func=_cmd_time)

    p = sub.add_parser("disassemble",
                       help="print the generated NPU program")
    p.add_argument("kind", choices=["lstm", "gru"])
    p.add_argument("hidden", type=int)
    p.add_argument("--config", default="BW_S10",
                   choices=sorted(STANDARD_CONFIGS))
    p.set_defaults(func=_cmd_disassemble)

    p = sub.add_parser("serve-faults",
                       help="fault-tolerant serving scenario: replicas, "
                            "retries, hedging vs a naive client")
    p.add_argument("--requests", type=int, default=3000)
    p.add_argument("--rate", type=float, default=400.0,
                   help="Poisson arrival rate (req/s)")
    p.add_argument("--transient", type=float, default=0.02,
                   help="per-invocation transient failure probability")
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_serve_faults)

    p = sub.add_parser(
        "serve-batch",
        help="calibrate a batch service-time curve and sweep goodput "
             "at a fixed p99 SLO: batch-1 vs dynamic batching")
    p.add_argument("kind", nargs="?", default="lstm",
                   choices=["lstm", "gru"])
    p.add_argument("--hidden", type=int, default=256)
    p.add_argument("--config", default="BW_S10",
                   choices=sorted(STANDARD_CONFIGS))
    p.add_argument("--quick", action="store_true",
                   help="smaller calibration + sweep (CI smoke)")
    p.add_argument("--slo-multiple", type=float, default=8.0,
                   help="p99 SLO as a multiple of batch-1 service time")
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-goodput-ratio", type=float, default=None,
                   metavar="X",
                   help="exit 1 if dynamic/batch-1 goodput falls below")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write the sweep payload as JSON")
    p.add_argument("--prom", default=None, metavar="PATH",
                   help="write a Prometheus text exposition")
    p.set_defaults(func=_cmd_serve_batch)

    p = sub.add_parser(
        "chaos",
        help="run cluster chaos scenarios (mitigated vs ablated)")
    p.add_argument("scenario",
                   choices=["all", "overload", "partition",
                            "rack_loss", "rolling_slow"])
    p.add_argument("--requests", type=int, default=50_000,
                   help="simulated requests per scenario")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--racks", type=int, default=4)
    p.add_argument("--nodes-per-rack", type=int, default=6)
    p.add_argument("--min-availability", type=float, default=None,
                   metavar="FRAC",
                   help="exit 1 if any mitigated run falls below")
    p.add_argument("--no-ablation", action="store_true",
                   help="skip the no-mitigation baseline run")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "monitor",
        help="run a chaos scenario with the fleet monitoring plane: "
             "dashboard, alerts, detection scorecard")
    p.add_argument("scenario",
                   choices=["all", "overload", "partition",
                            "rack_loss", "rolling_slow"])
    p.add_argument("--requests", type=int, default=50_000,
                   help="simulated requests per scenario")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--racks", type=int, default=4)
    p.add_argument("--nodes-per-rack", type=int, default=6)
    p.add_argument("--windows", type=int, default=256,
                   help="time-series windows spanning the run")
    p.add_argument("--ablated", action="store_true",
                   help="run without the mitigation stack")
    p.add_argument("--html", default=None, metavar="PATH",
                   help="write an HTML fleet dashboard")
    p.add_argument("--prom", default=None, metavar="PATH",
                   help="write a Prometheus text exposition")
    p.add_argument("--min-precision", type=float, default=None,
                   metavar="FRAC",
                   help="exit 1 if detection precision falls below")
    p.add_argument("--min-recall", type=float, default=None,
                   metavar="FRAC",
                   help="exit 1 if detection recall falls below")
    p.add_argument("--max-mttd", type=float, default=None,
                   metavar="SECONDS",
                   help="exit 1 if mean time-to-detect exceeds")
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser(
        "trace",
        help="run a workload traced end-to-end and write a "
             "Chrome/Perfetto trace.json + metrics summary")
    p.add_argument("workload", choices=["lstm", "gru", "serve-faults"])
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace-event JSON output path")
    p.add_argument("--jsonl", default=None,
                   help="optional JSONL raw event dump path")
    p.add_argument("--config", default="BW_S10",
                   choices=sorted(STANDARD_CONFIGS))
    p.add_argument("--hidden", type=int, default=None,
                   help="hidden dim (default 512)")
    p.add_argument("--steps", type=int, default=None,
                   help="timesteps (default: 10 rnn, 50 serving)")
    p.add_argument("--requests", type=int, default=400)
    p.add_argument("--rate", type=float, default=400.0,
                   help="Poisson arrival rate (req/s, serve-faults)")
    p.add_argument("--transient", type=float, default=0.02,
                   help="transient failure probability (serve-faults)")
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing: random ISA programs on "
             "the reference interpreter vs both simulator paths, "
             "compiled replay, and batched replay")
    p.add_argument("--seed", type=int, default=0,
                   help="first case seed (campaign runs seed..seed+n-1)")
    p.add_argument("--iterations", type=int, default=100,
                   help="number of cases to generate and compare")
    from .verify.generator import FUZZ_CONFIGS, PROFILES
    p.add_argument("--profile", default="default",
                   choices=sorted(PROFILES),
                   help="opcode-weight profile ('formats' draws from "
                        "the Microscaling format-family pool)")
    p.add_argument("--config", default=None,
                   choices=sorted(FUZZ_CONFIGS),
                   help="pin one fuzz configuration (default: per-seed "
                        "draw from the profile's pool)")
    p.add_argument("--corpus-dir", default=None,
                   help="archive shrunk failing cases into this directory")
    p.add_argument("--replay", default=None, metavar="DIR",
                   help="replay archived corpus cases instead of fuzzing")
    p.add_argument("--no-shrink", action="store_true",
                   help="report failures without minimizing them")
    p.add_argument("--no-timing", action="store_true",
                   help="skip scheduler timing invariants")
    p.add_argument("--progress", action="store_true",
                   help="print progress to stderr")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "bench",
        help="run the perf suite and gate on the headline speedups "
             "(compiled replay, batched replay, dynamic batching)")
    p.add_argument("mode", nargs="?", default="quick",
                   choices=["quick", "full"],
                   help="workload sizes: quick CI smoke or the full "
                        "BENCH_perf.json suite")
    p.add_argument("--json", action="store_true",
                   help="print the result payload as JSON instead of "
                        "the table")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="also write the JSON payload to this path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "numerics-sweep",
        help="accuracy-vs-storage Pareto sweep across the BFP / "
             "Microscaling format family")
    p.add_argument("--formats", nargs="*", default=None, metavar="NAME",
                   help="format-family names to sweep (default: all; "
                        "see repro.numerics.FORMAT_FAMILY)")
    p.add_argument("--rows", type=int, default=64,
                   help="matrix rows in the synthetic workload")
    p.add_argument("--width", type=int, default=256,
                   help="matrix/vector width in the synthetic workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="print the payload as JSON instead of the table")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="also write the JSON payload to this path")
    p.set_defaults(func=_cmd_numerics_sweep)

    p = sub.add_parser("specialize",
                       help="pick the best instance for a model")
    p.add_argument("kind", choices=["lstm", "gru"])
    p.add_argument("hidden", type=int)
    p.add_argument("device")
    p.set_defaults(func=_cmd_specialize)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
