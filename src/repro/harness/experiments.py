"""Experiment drivers: one function per table/figure of the paper.

Each driver reruns the reproduction pipeline (compile -> simulate ->
compare against the published numbers where available) and returns an
:class:`~repro.harness.tables.ExperimentTable`. The ``benchmarks/``
suite calls these drivers and prints their tables; EXPERIMENTS.md records
their output.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ..baselines.deepbench import BATCH_SCALING_SUBSET, FIG8_BATCH_SIZES, SUITE, RnnBenchmark, \
    published_row
from ..baselines.gpu import P40, TITAN_XP, GpuCnnModel, GpuRnnModel
from ..compiler.lowering import CompiledModel, compile_rnn_shape
from ..config import BW_A10, BW_CNN_A10, BW_S5, BW_S10, NpuConfig
from ..criticalpath import (
    conv_layer_dfg,
    gru_step_dfg,
    lstm_step_dfg,
    recurrent_cycle_depth,
    sdm_analyze_recurrent,
    sdm_cycles_bound,
    udm_cycles,
)
from ..criticalpath import analytic
from ..models.cnn import TABLE1_CNN_1X1, TABLE1_CNN_3X3
from ..models.resnet import resnet50_featurizer, total_ops
from ..synthesis.resources import estimate as resource_estimate
from ..timing.cnn import network_timing
from ..timing.report import TimingReport
from ..timing.scheduler import TimingSimulator
from .tables import ExperimentTable, fmt

#: Measured peak chip power of the Stratix 10 280 (Section VII-B4).
BW_S10_PEAK_POWER_W = 125.0


# ---------------------------------------------------------------------------
# Shared measurement helpers
# ---------------------------------------------------------------------------

_PROGRAM_CACHE: Dict[Tuple[str, int, str], CompiledModel] = {}


def rnn_compiled(kind: str, hidden_dim: int,
                 config: NpuConfig = BW_S10) -> CompiledModel:
    """Shape-compiled RNN program (cached across experiments)."""
    key = (kind, hidden_dim, config.name)
    if key not in _PROGRAM_CACHE:
        _PROGRAM_CACHE[key] = compile_rnn_shape(kind, hidden_dim, config)
    return _PROGRAM_CACHE[key]


def bw_rnn_report(benchmark: RnnBenchmark,
                  config: NpuConfig = BW_S10) -> TimingReport:
    """Full BW timing of one DeepBench benchmark (all timesteps)."""
    compiled = rnn_compiled(benchmark.kind, benchmark.hidden_dim, config)
    sim = TimingSimulator(config)
    return sim.run(compiled.program,
                   bindings={"steps": benchmark.time_steps},
                   nominal_ops=benchmark.total_ops)


def step_dfg(benchmark: RnnBenchmark):
    if benchmark.kind == "lstm":
        return lstm_step_dfg(benchmark.hidden_dim)
    return gru_step_dfg(benchmark.hidden_dim)


def sdm_latency_ms(benchmark: RnnBenchmark,
                   config: NpuConfig = BW_S10) -> float:
    """SDM reference latency of a benchmark (96k MACs at 250 MHz)."""
    result = sdm_analyze_recurrent(step_dfg(benchmark),
                                   benchmark.time_steps,
                                   config.total_macs)
    return result.latency_ms(config.clock_mhz)


def gpu_rnn_result(benchmark: RnnBenchmark, batch: int = 1):
    """Titan Xp roofline estimate of a benchmark."""
    model = GpuRnnModel(TITAN_XP)
    return model.run(
        weight_bytes=benchmark.weight_bytes(TITAN_XP.bytes_per_weight),
        ops_per_step=benchmark.ops_per_step,
        steps=benchmark.time_steps, batch=batch)


# ---------------------------------------------------------------------------
# Table I: critical-path analysis of LSTM, GRU, and CNN
# ---------------------------------------------------------------------------

#: Published Table I: (label, ops, UDM, SDM, BW cycles, data).
TABLE1_PUBLISHED = [
    ("LSTM 2000x2000", 64e6, 19, 352, 718, "32MB"),
    ("GRU 2800x2800", 94e6, 31, 520, 662, "47MB"),
    ("CNN 28x28x128 K:128x3x3", 231e6, 13, 1204, 1326, "247KB"),
    ("CNN 56x56x64 K:256x1x1", 103e6, 13, 549, 646, "200KB"),
]


def table1(config: NpuConfig = BW_S10) -> ExperimentTable:
    """Critical-path analysis (UDM/SDM/BW) of Table I's four workloads."""
    from ..timing.cnn import conv_layer_compute_cycles

    rows: List[List[str]] = []
    num_macs = config.total_macs
    # Table I reports the working set at one byte per element (the
    # paper's 2000x2000 LSTM shows 32MB for 32M weights).
    bits = 8.0

    # LSTM 2000 and GRU 2800: one timestep.
    for kind, dim, pub in (("lstm", 2000, TABLE1_PUBLISHED[0]),
                           ("gru", 2800, TABLE1_PUBLISHED[1])):
        dfg = (lstm_step_dfg if kind == "lstm" else gru_step_dfg)(dim)
        udm = recurrent_cycle_depth(dfg) + 1  # + state write-back
        sdm = sdm_analyze_recurrent(dfg, 1, num_macs).cycles
        bench = RnnBenchmark(kind, dim, 1)
        compiled = rnn_compiled(kind, dim, config)
        sim = TimingSimulator(config)
        a = sim.run(compiled.program, bindings={"steps": 8},
                    include_invocation_overhead=False).total_cycles
        b = TimingSimulator(config).run(
            compiled.program, bindings={"steps": 24},
            include_invocation_overhead=False).total_cycles
        bw = (b - a) / 16
        data_mb = bench.shape().parameter_count * bits / 8 / 1e6
        rows.append([pub[0], f"{dfg.total_ops / 1e6:.0f}M",
                     str(udm), f"{sdm:.0f}", f"{bw:.0f}",
                     f"{data_mb:.0f}MB",
                     f"paper: {pub[1] / 1e6:.0f}M/{pub[2]}/{pub[3]}/"
                     f"{pub[4]}/{pub[5]}"])

    # The two ResNet-50 layers.
    for spec, pub in ((TABLE1_CNN_3X3, TABLE1_PUBLISHED[2]),
                      (TABLE1_CNN_1X1, TABLE1_PUBLISHED[3])):
        dfg = conv_layer_dfg(spec)
        udm = udm_cycles(dfg)
        sdm = sdm_cycles_bound(dfg, num_macs)
        bw = conv_layer_compute_cycles(spec, config)
        data_kb = (spec.parameter_count + spec.input_elements) * bits \
            / 8 / 1e3
        rows.append([pub[0], f"{dfg.total_ops / 1e6:.0f}M",
                     str(udm), f"{sdm:.0f}", f"{bw:.0f}",
                     f"{data_kb:.0f}KB",
                     f"paper: {pub[1] / 1e6:.0f}M/{pub[2]}/{pub[3]}/"
                     f"{pub[4]}/{pub[5]}"])

    return ExperimentTable(
        title="Table I: critical-path analysis (one LSTM/GRU timestep, "
              "one CNN layer)",
        headers=["Model", "Ops", "UDM", "SDM", "BW NPU", "Data",
                 "Published"],
        rows=rows,
        notes=["UDM/SDM latencies count functional-unit cycles only "
               "(Section III); BW cycles from the calibrated timing "
               "simulator at steady state.",
               "Data column at 1 byte/element, the paper's "
               "convention."])


# ---------------------------------------------------------------------------
# Fig. 2: LSTM ops and latency vs dimension and #FU
# ---------------------------------------------------------------------------

def fig2(dims: Sequence[int] = (256, 512, 1024, 2000, 2816, 4096),
         fu_counts: Sequence[int] = (6000, 16384, 96000, 1 << 30)
         ) -> ExperimentTable:
    """LSTM critical-path scaling: ops O(N^2), UDM O(log N), SDM work."""
    rows = []
    for n in dims:
        ops = analytic.lstm_ops_per_step(n)
        udm = analytic.lstm_udm_cycles_per_step(n)
        cells = [f"LSTM {n}", f"{ops / 1e6:.1f}M", str(udm)]
        for fus in fu_counts:
            cells.append(fmt(analytic.lstm_sdm_cycles_per_step(n, fus)))
        rows.append(cells)
    headers = ["Model", "Ops/step", "UDM"]
    headers += [("SDM inf FU" if fus >= 1 << 30 else f"SDM {fus} FU")
                for fus in fu_counts]
    return ExperimentTable(
        title="Fig. 2: LSTM critical path vs dimension N and #FU",
        headers=headers, rows=rows,
        notes=["Operation count grows as O(N^2); idealized latency grows "
               "as O(log N) (the adder tree); SDM latency transitions "
               "from depth-bound to work-bound as N grows."])


# ---------------------------------------------------------------------------
# Table III: FPGA implementation results
# ---------------------------------------------------------------------------

#: Published Table III resource rows: (ALMs, M20Ks, DSPs, MHz, TFLOPS).
TABLE3_PUBLISHED = {
    "BW_S5": (149641, 1192, 1047, 200, 2.4),
    "BW_A10": (216602, 2171, 1518, 300, 9.8),
    "BW_S10": (845719, 8192, 5245, 250, 48.0),
}


def table3() -> ExperimentTable:
    """Hardware implementation results for the three BW instances."""
    rows = []
    for config in (BW_S5, BW_A10, BW_S10):
        est = resource_estimate(config)
        pub = TABLE3_PUBLISHED[config.name]
        rows.append([
            config.name, str(config.tile_engines), str(config.lanes),
            str(config.native_dim), str(config.mrf_size),
            str(config.mfus), config.device,
            f"{est.alms} ({100 * est.alm_fraction:.0f}%)",
            f"{est.m20ks} ({100 * est.m20k_fraction:.0f}%)",
            f"{est.dsps} ({100 * est.dsp_fraction:.0f}%)",
            f"{config.clock_mhz:.0f}",
            f"{config.peak_tflops:.1f}",
            f"paper: {pub[0]}/{pub[1]}/{pub[2]}/{pub[3]}MHz/{pub[4]}",
        ])
    return ExperimentTable(
        title="Table III: BW NPU implementations across three FPGA "
              "generations",
        headers=["Instance", "#MV Tiles", "#Lanes", "Native Dim.",
                 "MRF Size", "#MFUs", "Device", "ALMs", "M20Ks", "DSPs",
                 "MHz", "Peak TFLOPS", "Published"],
        rows=rows,
        notes=["Resource estimates from the calibrated cost model "
               "(repro.synthesis.resources); peak TFLOPS is structural: "
               "2 x tiles x native_dim x lanes x clock."])


# ---------------------------------------------------------------------------
# Table IV: experiment hardware specifications
# ---------------------------------------------------------------------------

def table4() -> ExperimentTable:
    """Experiment hardware: Titan Xp vs BW_S10."""
    cfg = BW_S10
    rows = [
        ["Numerical Type", TITAN_XP.numerical_type, cfg.precision_name],
        ["Peak TFLOPS", f"{TITAN_XP.peak_tflops:.1f}",
         f"{cfg.peak_tflops:.1f}"],
        ["TDP (W)", f"{TITAN_XP.tdp_w:.0f}",
         f"{BW_S10_PEAK_POWER_W:.0f}"],
        ["Process", TITAN_XP.process, "Intel 14nm"],
    ]
    return ExperimentTable(
        title="Table IV: experiment hardware specifications",
        headers=["", "Titan Xp", "BW_S10"], rows=rows)


# ---------------------------------------------------------------------------
# Table V: DeepBench RNN inference
# ---------------------------------------------------------------------------

def table5(config: NpuConfig = BW_S10) -> ExperimentTable:
    """DeepBench RNN inference: SDM / BW / Titan Xp, model vs paper."""
    rows = []
    for bench in SUITE:
        pub = published_row(bench)
        sdm_ms = sdm_latency_ms(bench, config)
        bw = bw_rnn_report(bench, config)
        gpu = gpu_rnn_result(bench)
        rows.append([
            bench.name, "SDM", f"{sdm_ms:.4f}", "-", "-",
            f"{pub.sdm_latency_ms:.4f}", "-", "-"])
        rows.append([
            "", "BW", f"{bw.latency_ms:.3f}",
            f"{bw.effective_tflops:.2f}",
            f"{100 * bw.utilization:.1f}",
            f"{pub.bw_latency_ms:.3f}", f"{pub.bw_tflops:.2f}",
            f"{pub.bw_utilization_pct:.1f}"])
        rows.append([
            "", "Titan Xp", f"{gpu.latency_ms:.2f}",
            f"{gpu.effective_tflops:.2f}",
            f"{100 * gpu.utilization:.1f}",
            f"{pub.gpu_latency_ms:.2f}", f"{pub.gpu_tflops:.2f}",
            f"{pub.gpu_utilization_pct:.1f}"])
    return ExperimentTable(
        title="Table V: DeepBench RNN inference (batch 1)",
        headers=["Benchmark", "Device", "Latency ms", "TFLOPS", "%Util",
                 "paper ms", "paper TFLOPS", "paper %Util"],
        rows=rows,
        notes=["BW latencies from the calibrated cycle-level simulator; "
               "SDM from the dataflow analysis; Titan Xp from the "
               "roofline baseline model."])


# ---------------------------------------------------------------------------
# Fig. 7: utilization across DeepBench experiments
# ---------------------------------------------------------------------------

def fig7(config: NpuConfig = BW_S10) -> ExperimentTable:
    """Hardware utilization, BW vs Titan Xp, per benchmark."""
    rows = []
    for bench in SUITE:
        pub = published_row(bench)
        bw = bw_rnn_report(bench, config)
        gpu = gpu_rnn_result(bench)
        advantage = (bw.utilization / gpu.utilization
                     if gpu.utilization else float("inf"))
        rows.append([
            bench.name, f"{100 * bw.utilization:.1f}",
            f"{100 * gpu.utilization:.1f}", f"{advantage:.1f}x",
            f"{pub.bw_utilization_pct:.1f}",
            f"{pub.gpu_utilization_pct:.1f}"])
    return ExperimentTable(
        title="Fig. 7: hardware utilization across DeepBench RNN "
              "inference (batch 1)",
        headers=["Benchmark", "BW %util", "GPU %util", "BW advantage",
                 "paper BW %", "paper GPU %"],
        rows=rows,
        notes=["The paper reports a 4-23x utilization advantage for "
               "medium-to-large RNNs (>1500 dimension)."])


# ---------------------------------------------------------------------------
# Fig. 8: utilization scaling with batch size
# ---------------------------------------------------------------------------

def fig8(batches: Sequence[int] = FIG8_BATCH_SIZES,
         config: NpuConfig = BW_S10) -> ExperimentTable:
    """Utilization vs batch size: BW flat, GPU rising."""
    rows = []
    for bench in BATCH_SCALING_SUBSET:
        bw = bw_rnn_report(bench, config)
        gpu_model = GpuRnnModel(TITAN_XP)
        for batch in batches:
            gpu = gpu_model.run(
                weight_bytes=bench.weight_bytes(
                    TITAN_XP.bytes_per_weight),
                ops_per_step=bench.ops_per_step,
                steps=bench.time_steps, batch=batch)
            # BW serves requests one at a time: utilization is constant
            # and batch latency scales linearly (Section VII-B3).
            rows.append([
                bench.name, str(batch),
                f"{100 * bw.utilization:.1f}",
                f"{100 * gpu.utilization:.1f}",
                f"{batch * bw.latency_ms:.2f}",
                f"{gpu.latency_ms:.2f}"])
    return ExperimentTable(
        title="Fig. 8: utilization scaling with batch size",
        headers=["Benchmark", "Batch", "BW %util", "GPU %util",
                 "BW latency ms", "GPU latency ms"],
        rows=rows,
        notes=["BW executes a single input at a time, so utilization "
               "stays flat while the GPU fills its SMs with batch "
               "parallelism; BW stays ahead until batch ~32."])


# ---------------------------------------------------------------------------
# Table VI: ResNet-50 featurizer, BW_CNN_A10 vs P40
# ---------------------------------------------------------------------------

def table6() -> ExperimentTable:
    """ResNet-50-based featurizer at batch 1: BW_CNN_A10 vs P40."""
    layers = resnet50_featurizer()
    ops = total_ops(layers)
    bw = network_timing(BW_CNN_A10, layers)
    p40 = GpuCnnModel(P40)
    gpu1 = p40.run(ops, batch=1)
    gpu16 = p40.run(ops, batch=16)
    rows = [
        ["Technology node", "16nm TSMC", "20nm TSMC", ""],
        ["Precision", P40.numerical_type, BW_CNN_A10.precision_name, ""],
        ["IPS (batch 1)", f"{gpu1.ips:.0f}", f"{bw.ips:.0f}",
         "paper: 461 / 559"],
        ["Latency (batch 1)", f"{gpu1.latency_ms:.2f} ms",
         f"{bw.latency_ms:.2f} ms", "paper: 2.17 / 1.8 ms"],
        ["IPS (batch 16, GPU)", f"{gpu16.ips:.0f}", "-",
         "paper: 2,270"],
        ["Latency (batch 16, GPU)", f"{gpu16.latency_ms:.2f} ms", "-",
         "paper: 7 ms"],
    ]
    return ExperimentTable(
        title="Table VI: ResNet-50 featurizer serving, Nvidia P40 vs "
              "BW_CNN_A10",
        headers=["", "Nvidia P40", "BW_CNN_A10", "Published"],
        rows=rows,
        notes=[f"ResNet-50 featurizer: {len(layers)} conv layers, "
               f"{ops / 1e9:.1f} GOPs per inference; BW latency "
               "includes PCIe transfer and DRAM weight streaming "
               "overlapped with compute."])


# ---------------------------------------------------------------------------
# Section VII-B2: SDM gap, and the per-step latency band
# ---------------------------------------------------------------------------

def sdm_gap(config: NpuConfig = BW_S10) -> ExperimentTable:
    """BW-to-SDM latency ratio per benchmark (<= ~2.2x for dims > 2000)."""
    rows = []
    for bench in SUITE:
        if bench.time_steps < 2:
            continue
        sdm_ms = sdm_latency_ms(bench, config)
        bw = bw_rnn_report(bench, config)
        per_step_us = bw.latency_ms * 1e3 / bench.time_steps
        rows.append([
            bench.name, f"{sdm_ms:.4f}", f"{bw.latency_ms:.3f}",
            f"{bw.latency_ms / sdm_ms:.2f}x", f"{per_step_us:.2f}"])
    return ExperimentTable(
        title="Section VII-B2: latency gap between BW_S10 and the SDM",
        headers=["Benchmark", "SDM ms", "BW ms", "gap", "BW us/step"],
        rows=rows,
        notes=["The paper reports a gap within 2.17x for dims > 2000, "
               "growing for smaller models because steady-state per-step "
               "latency is nearly constant (2.5-3.1 us/step)."])


# ---------------------------------------------------------------------------
# Section VII-B4: power efficiency
# ---------------------------------------------------------------------------

def power_efficiency(config: NpuConfig = BW_S10) -> ExperimentTable:
    """Power efficiency at peak utilization (paper: 287 GFLOPS/W)."""
    best = max((bw_rnn_report(b, config) for b in SUITE
                if b.time_steps > 1),
               key=lambda r: r.effective_tflops)
    gflops_per_w = best.effective_tflops * 1e3 / BW_S10_PEAK_POWER_W
    gpu_best = max((gpu_rnn_result(b) for b in SUITE),
                   key=lambda r: r.effective_tflops)
    gpu_eff = gpu_best.effective_tflops * 1e3 / TITAN_XP.tdp_w
    rows = [
        ["BW_S10", f"{best.effective_tflops:.1f}",
         f"{BW_S10_PEAK_POWER_W:.0f}", f"{gflops_per_w:.0f}",
         "paper: 287 GFLOPS/W"],
        ["Titan Xp", f"{gpu_best.effective_tflops:.2f}",
         f"{TITAN_XP.tdp_w:.0f}", f"{gpu_eff:.1f}", ""],
    ]
    return ExperimentTable(
        title="Section VII-B4: power efficiency on large RNNs (batch 1)",
        headers=["Device", "Best eff. TFLOPS", "Peak power W",
                 "GFLOPS/W", "Published"],
        rows=rows,
        notes=["BW power is the measured 125 W peak (power-virus "
               "methodology); GPU uses TDP, both conservative."])




# ---------------------------------------------------------------------------
# Section VII-B1: recovering utilization by synthesis specialization
# ---------------------------------------------------------------------------

def specialization_recovery() -> ExperimentTable:
    """Small-RNN utilization recovery by right-sizing the instance.

    Section VII-B1: "BW's reconfigurable architecture allows us to
    adjust for the different degrees of parallelism (e.g. shrink native
    dimension) according to the overall DNN dimensions, which can
    recover utilization and lower latency." Small models on the huge
    BW_S10 sit at a dimension-independent latency floor, so most of the
    96k MACs idle; a synthesis-specialized instance with a matched
    native dimension and a right-sized MVM serves them at the same (or
    better) latency with an order of magnitude higher utilization.
    """
    from ..timing.scheduler import steady_state_cycles_per_step

    specialized = {
        512: NpuConfig(name="BW_S10_gru512", tile_engines=2, lanes=16,
                       native_dim=128, mrf_size=128,
                       clock_mhz=BW_S10.clock_mhz,
                       device=BW_S10.device),
        1024: NpuConfig(name="BW_S10_gru1024", tile_engines=4, lanes=32,
                        native_dim=128, mrf_size=512,
                        clock_mhz=BW_S10.clock_mhz,
                        device=BW_S10.device),
    }
    rows = []
    for hidden, lean in specialized.items():
        bench_ops = RnnBenchmark("gru", hidden, 1).ops_per_step
        for config in (BW_S10, lean):
            per = steady_state_cycles_per_step(
                config,
                lambda c=config, h=hidden: compile_rnn_shape("gru", h,
                                                             c),
                steps_a=6, steps_b=16)
            seconds = per * config.cycle_time_s
            tflops = bench_ops / seconds / 1e12
            rows.append([
                f"GRU {hidden}", config.name,
                f"{config.peak_tflops:.1f}", f"{per:.0f}",
                f"{per * config.cycle_time_s * 1e6:.2f}",
                f"{tflops:.2f}",
                f"{100 * tflops / config.peak_tflops:.1f}"])
    return ExperimentTable(
        title="Section VII-B1: utilization recovery by synthesis "
              "specialization (small GRUs)",
        headers=["Model", "Instance", "Peak TFLOPS", "cycles/step",
                 "us/step", "eff TFLOPS", "%util"],
        rows=rows,
        notes=["The specialized instances align the native dimension "
               "to the model (no padding) and shrink the MVM to what "
               "the model can feed; latency holds or improves while "
               "utilization recovers by an order of magnitude."])


# ---------------------------------------------------------------------------
# System-level serving: network vs compute latency breakdown
# ---------------------------------------------------------------------------

def serving_breakdown() -> ExperimentTable:
    """End-to-end hardware-microservice latency decomposition.

    The accelerators sit directly on the datacenter network
    (Section II-A); this experiment quantifies how little the network
    adds on top of NPU compute for RNN serving, across placements.
    """
    from ..system.network import Locality, NetworkModel

    net = NetworkModel()
    rows = []
    for bench in (RnnBenchmark("gru", 2816, 750),
                  RnnBenchmark("lstm", 1024, 25),
                  RnnBenchmark("gru", 512, 1)):
        compute_ms = bw_rnn_report(bench).latency_ms
        bytes_per_vec = BW_S10.native_dim * 2
        per_step_vectors = math.ceil(bench.hidden_dim
                                     / BW_S10.native_dim)
        step_bytes = per_step_vectors * bytes_per_vec
        stream_bytes = bench.time_steps * step_bytes
        for locality in (Locality.SAME_RACK, Locality.SAME_DATACENTER):
            # Inputs/outputs stream concurrently with compute; the
            # request pays one first-step transfer in and one
            # last-step transfer out, and compute must cover the full
            # stream's serialization.
            net_ms = (net.transfer_us(step_bytes, locality)
                      + net.transfer_us(step_bytes, locality)) * 1e-3
            effective_compute = max(
                compute_ms, net.serialization_us(stream_bytes) * 1e-3)
            total = effective_compute + net_ms
            rows.append([
                bench.name, locality.value, f"{effective_compute:.3f}",
                f"{net_ms:.4f}", f"{total:.3f}",
                f"{100 * net_ms / total:.1f}"])
    return ExperimentTable(
        title="System: hardware-microservice serving latency breakdown",
        headers=["Benchmark", "Placement", "compute ms", "network ms",
                 "total ms", "net %"],
        rows=rows,
        notes=["Round-trip payloads at 40 Gb/s with LTL-style hop "
               "latencies; even datacenter-scale placement adds little "
               "to RNN serving (no software in the loop)."])




# ---------------------------------------------------------------------------
# Serving under load: batch-1 vs batching (Section I's motivation)
# ---------------------------------------------------------------------------

def slo_under_load() -> ExperimentTable:
    """Latency percentiles under Poisson load: BW batch-1 serving vs a
    GPU batching queue.

    Quantifies Section I: a throughput architecture must form batches to
    reach efficiency, paying queueing latency, while the BW NPU serves
    each request as it arrives. GRU h=2048 t=375; the GPU stack batches
    up to 32 with a 20 ms forming timeout.
    """
    from ..system.batching import compare_under_load

    bench = RnnBenchmark("gru", 2048, 375)
    bw_service = bw_rnn_report(bench).latency_s
    gpu_model = GpuRnnModel(TITAN_XP)

    def gpu_batch_time(batch: int) -> float:
        return gpu_model.run(bench.weight_bytes(TITAN_XP.bytes_per_weight),
                             bench.ops_per_step, bench.time_steps,
                             batch=batch).latency_s

    rows = []
    comparisons = compare_under_load(
        bw_service, gpu_batch_time, max_batch=32, timeout_s=0.02,
        rates_rps=(50, 150, 250), requests=1500)
    for comp in comparisons:
        rows.append([
            f"{comp.rate_rps:.0f}",
            f"{comp.bw.p50_ms:.2f}", f"{comp.bw.p99_ms:.2f}",
            f"{comp.gpu.p50_ms:.1f}", f"{comp.gpu.p99_ms:.1f}",
            f"{comp.gpu.p99_ms / comp.bw.p99_ms:.0f}x"])
    return ExperimentTable(
        title="Serving under load: GRU-2048, BW batch-1 vs GPU batching "
              "queue (latency ms)",
        headers=["arrivals/s", "BW p50", "BW p99", "GPU p50", "GPU p99",
                 "p99 gap"],
        rows=rows,
        notes=["Poisson arrivals; GPU batches up to 32 with a 20 ms "
               "forming timeout (capacity ~282 req/s); BW serves "
               "requests individually (capacity ~1005 req/s). The gap "
               "is the cost of buying GPU efficiency with batching."])


# ---------------------------------------------------------------------------
# Serving under faults: replicas, retries, hedging (Section II-A hardened)
# ---------------------------------------------------------------------------

def slo_under_faults(requests: int = 3000, rate_rps: float = 400.0,
                     transient_prob: float = 0.02,
                     replicas: int = 2, seed: int = 0) -> ExperimentTable:
    """Availability/goodput/latency of GRU-2048 serving under injected
    faults: transient failures, tail-latency spikes, packet loss, and a
    node crash lasting a quarter of the run.

    Three scenarios share one arrival trace: a fault-free single
    replica (baseline), a single replica under faults with no retries
    (the naive client loses every request the fault model touches),
    and ``replicas`` replicas behind a :class:`ResilientClient` with
    retries, circuit-breaker failover, and hedging — which holds
    availability at (or above) three nines through the crash.

    Deterministic: the same ``seed`` reproduces identical numbers.
    """
    from ..system.faults import (FaultInjector, FaultProfile,
                                 ResilientClient, RetryPolicy)
    from ..system.loadgen import (FaultEvent, poisson_arrivals,
                                  run_fault_scenario)
    from ..system.microservice import (FpgaNode, HardwareMicroservice,
                                       MicroserviceRegistry)

    bench = RnnBenchmark("gru", 2048, 375)
    compiled = rnn_compiled(bench.kind, bench.hidden_dim)
    arrivals = poisson_arrivals(rate_rps, requests, seed=seed)
    duration = requests / rate_rps
    profile = FaultProfile(
        transient_failure_prob=transient_prob,
        tail_spike_prob=0.01, tail_spike_multiplier=8.0,
        packet_loss_prob=0.01, retransmit_delay_s=50e-6)
    naive = RetryPolicy(max_attempts=1, deadline_s=20e-3)
    resilient = RetryPolicy(max_attempts=4, deadline_s=20e-3,
                            base_backoff_s=200e-6, jitter_frac=0.25,
                            hedge_after_s=2.5e-3)
    # One replica crashes a quarter into the run and is repaired at the
    # midpoint — long enough to open its breaker and then demonstrate
    # the timed half-open recovery.
    crash_events = [FaultEvent(0.25 * duration, "crash", "gru-0"),
                    FaultEvent(0.50 * duration, "repair", "gru-0")]

    def scenario(n_replicas, policy, faulty, events):
        injector = (FaultInjector(profile, seed=seed + 1)
                    if faulty else None)
        registry = MicroserviceRegistry(failure_threshold=3,
                                        recovery_timeout_s=25e-3)
        for i in range(n_replicas):
            svc = HardwareMicroservice(
                "gru", FpgaNode(f"gru-{i}", compiled),
                injector=injector)
            registry.publish_replica(svc)
        client = ResilientClient(registry, policy, seed=seed + 2)
        return run_fault_scenario(client, "gru", arrivals,
                                  steps=bench.time_steps,
                                  injector=injector, events=events)

    scenarios = [
        ("no faults, no retries", 1, naive, False, ()),
        ("faults, no retries", 1, naive, True, crash_events),
        (f"faults, {replicas} replicas + retries + hedging",
         replicas, resilient, True, crash_events),
    ]
    rows = []
    for label, n, policy, faulty, events in scenarios:
        res = scenario(n, policy, faulty, events)
        rows.append([
            label, f"{n}",
            f"{100 * res.availability:.3f}",
            f"{res.goodput_rps:.0f}",
            f"{res.p50_ms:.2f}", f"{res.p99_ms:.2f}",
            f"{res.p999_ms:.2f}",
            f"{res.mean_attempts:.2f}", f"{res.hedged}"])
    return ExperimentTable(
        title=f"Serving under faults: GRU-2048, {requests} requests at "
              f"{rate_rps:.0f}/s ({100 * transient_prob:.0f}% transient "
              "failures, 1% tail spikes, 1% packet loss, one node down "
              "25%-50% of the run)",
        headers=["scenario", "repl", "avail %", "goodput/s", "p50 ms",
                 "p99 ms", "p99.9 ms", "att", "hedges"],
        rows=rows,
        notes=["Retries: <=4 attempts, 200 us exponential backoff with "
               "jitter, 20 ms deadline; hedge to a second replica after "
               "2.5 ms; breaker opens after 3 consecutive failures, "
               "half-open probe after 25 ms. Latency percentiles are "
               "over successful requests; goodput counts deadline-met "
               "completions. Same seed => identical table."])


# ---------------------------------------------------------------------------
# Cluster-scale chaos: failure domains and graceful degradation
# ---------------------------------------------------------------------------

def chaos(requests: int = 50_000, seed: int = 0) -> ExperimentTable:
    """Cluster-scale chaos suite: every named scenario (rack loss
    mid-burst, rolling slow nodes, partition + recovery, overload
    beyond capacity) run through the mitigated serving stack and its
    no-mitigation ablation.  See :func:`repro.system.chaos.chaos_suite`.
    """
    from ..system.chaos import chaos_suite
    return chaos_suite(requests=requests, seed=seed)


def monitoring(requests: int = 50_000, seed: int = 0) -> ExperimentTable:
    """Chaos-detection scorecards: every catalog scenario (mitigated
    and ablated) run with the fleet monitoring plane attached, alerts
    scored against the injector's ground-truth fault intervals.  See
    :func:`repro.system.monitor.detection_table`.
    """
    from ..system.monitor import detection_table
    return detection_table(requests=requests, seed=seed)


#: All experiment drivers by identifier.
ALL_EXPERIMENTS = {
    "table1": table1,
    "fig2": fig2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "fig7": fig7,
    "fig8": fig8,
    "table6": table6,
    "sdm_gap": sdm_gap,
    "power_efficiency": power_efficiency,
    "specialization_recovery": specialization_recovery,
    "serving_breakdown": serving_breakdown,
    "slo_under_load": slo_under_load,
    "slo_under_faults": slo_under_faults,
    "chaos": chaos,
    "monitoring": monitoring,
}
