"""Serving under load: why real-time AI means no batching.

Section I of the paper: a throughput-oriented accelerator must batch
requests to reach efficiency, so an interactive service pays queueing
latency; the BW NPU serves each request the moment it arrives. This
example runs a discrete-event simulation of both serving stacks for a
GRU-2048 model under Poisson request arrivals and prints the latency
percentiles each sustains.

Run:  python examples/serving_under_load.py
"""

from repro.baselines import TITAN_XP, GpuRnnModel
from repro.baselines.deepbench import RnnBenchmark
from repro.harness import bw_rnn_report
from repro.system import compare_under_load


def main():
    bench = RnnBenchmark("gru", 2048, 375)
    bw_service = bw_rnn_report(bench).latency_s
    gpu_model = GpuRnnModel(TITAN_XP)

    def gpu_batch_time(batch):
        return gpu_model.run(
            bench.weight_bytes(TITAN_XP.bytes_per_weight),
            bench.ops_per_step, bench.time_steps,
            batch=batch).latency_s

    print(f"workload: {bench.name}")
    print(f"  BW service time {bw_service * 1e3:.2f} ms -> capacity "
          f"{1 / bw_service:.0f} req/s")
    print(f"  GPU batch-32 time {gpu_batch_time(32) * 1e3:.1f} ms -> "
          f"capacity {32 / gpu_batch_time(32):.0f} req/s "
          f"(batching queue, 20 ms forming timeout)\n")

    header = (f"{'req/s':>6} {'BW p50':>8} {'BW p99':>8} "
              f"{'GPU p50':>9} {'GPU p99':>9}")
    print(header)
    print("-" * len(header))
    for comp in compare_under_load(bw_service, gpu_batch_time,
                                   max_batch=32, timeout_s=0.02,
                                   rates_rps=(25, 100, 250, 400),
                                   requests=1500):
        print(f"{comp.rate_rps:>6.0f} {comp.bw.p50_ms:>7.2f}  "
              f"{comp.bw.p99_ms:>7.2f}  {comp.gpu.p50_ms:>8.1f} "
              f"{comp.gpu.p99_ms:>9.1f}")
    print("\nat 400 req/s the GPU stack is past its batching capacity "
          "and its queue diverges;")
    print("the BW NPU still serves every request within a few "
          "milliseconds.")


if __name__ == "__main__":
    main()
