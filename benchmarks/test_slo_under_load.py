"""Serving under load: the Section I motivation made quantitative.

A BW NPU serving requests one at a time sustains millisecond p99
latency at hundreds of requests per second; a GPU stack that must form
batches for efficiency pays tens of milliseconds at the median even
when idle, and collapses past its batching capacity.
"""

from repro.harness.experiments import slo_under_load


def test_slo_under_load(benchmark, emit):
    table = benchmark(slo_under_load)
    emit(table, "slo_under_load")

    for row in table.rows:
        bw_p99 = float(row[2])
        gpu_p99 = float(row[4])
        assert bw_p99 < 4.0          # real-time at every load point
        assert gpu_p99 > 20 * bw_p99  # the batching tax


def test_bw_sustains_higher_rates_than_gpu_stack():
    from repro.baselines import TITAN_XP, GpuRnnModel
    from repro.baselines.deepbench import RnnBenchmark
    from repro.harness import bw_rnn_report

    bench = RnnBenchmark("gru", 2048, 375)
    bw_capacity = 1.0 / bw_rnn_report(bench).latency_s
    gpu_batch32_s = GpuRnnModel(TITAN_XP).run(
        bench.weight_bytes(TITAN_XP.bytes_per_weight),
        bench.ops_per_step, bench.time_steps, batch=32).latency_s
    assert bw_capacity > 3 * (32 / gpu_batch32_s)
