"""Tests for the experiment harness — including the reproduction's
acceptance criteria: the qualitative shape of every headline result."""

import pytest

from repro.baselines.deepbench import SUITE, published_row
from repro.config import BW_S10
from repro.harness import (
    ALL_EXPERIMENTS,
    ExperimentTable,
    bw_rnn_report,
    fig2,
    fig7,
    fig8,
    power_efficiency,
    sdm_gap,
    sdm_latency_ms,
    table1,
    table3,
    table4,
    table5,
    table6,
)
from repro.harness.experiments import gpu_rnn_result


class TestTableRendering:
    def test_render_aligns_columns(self):
        table = ExperimentTable("T", ["a", "bb"], [["1", "2"],
                                                   ["333", "4"]])
        lines = table.render().splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[2:5]}) == 1

    def test_row_width_mismatch_caught(self):
        table = ExperimentTable("T", ["a"], [["1", "2"]])
        with pytest.raises(ValueError):
            table.render()

    def test_column_extraction(self):
        table = ExperimentTable("T", ["a", "b"], [["1", "2"]])
        assert table.column("b") == ["2"]


class TestAllDriversRun:
    @pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
    def test_driver_produces_table(self, name):
        table = ALL_EXPERIMENTS[name]()
        assert isinstance(table, ExperimentTable)
        assert table.rows
        assert table.render()


class TestHeadlineShapes:
    """The acceptance criteria from DESIGN.md Section 5."""

    @pytest.fixture(scope="class")
    def reports(self):
        return {b.name: bw_rnn_report(b) for b in SUITE}

    def test_order_of_magnitude_latency_advantage(self, reports):
        """'For the larger models, the latencies are 10-90X lower than
        the GPGPU' (Section IX)."""
        for bench in SUITE:
            if bench.hidden_dim < 1024 or bench.time_steps < 2:
                continue
            bw = reports[bench.name].latency_ms
            gpu = gpu_rnn_result(bench).latency_ms
            assert 10 <= gpu / bw <= 120, bench.name

    def test_peak_throughput_above_30_tflops(self, reports):
        """Abstract: up to 35.9 effective TFLOPS with no batching."""
        best = max(r.effective_tflops for r in reports.values())
        assert best > 30

    def test_all_layers_under_4ms(self, reports):
        """'The BW NPU can run all DeepBench layers at under 4ms at
        batch 1.'"""
        assert all(r.latency_ms < 4.0 for r in reports.values())

    def test_utilization_band_for_large_rnns(self, reports):
        """23%-75% of peak for dimensions > 1500 (Section VII-B1)."""
        for bench in SUITE:
            if bench.hidden_dim <= 1500 or bench.time_steps < 2:
                continue
            util = reports[bench.name].utilization
            assert 0.20 <= util <= 0.80, bench.name

    def test_utilization_advantage_4_to_23x(self, reports):
        """'A 4-23x improvement over Titan Xp's utilization' for
        medium-to-large layers."""
        for bench in SUITE:
            if bench.hidden_dim <= 1500 or bench.time_steps < 2:
                continue
            bw = reports[bench.name].utilization
            gpu = gpu_rnn_result(bench).utilization
            assert 3.5 <= bw / gpu <= 30, bench.name

    def test_sdm_gap_within_2_2x_for_large_models(self, reports):
        """Section VII-B2: within 2.17x of the SDM for dims > 2000."""
        for bench in SUITE:
            if bench.hidden_dim <= 2000 or bench.time_steps < 2:
                continue
            gap = (reports[bench.name].latency_ms
                   / sdm_latency_ms(bench))
            assert gap <= 2.4, bench.name

    def test_sdm_gap_grows_for_small_models(self, reports):
        small = next(b for b in SUITE if b.hidden_dim == 256)
        gap = reports[small.name].latency_ms / sdm_latency_ms(small)
        assert gap > 10

    def test_per_step_latency_band(self, reports):
        """Steady-state per-step latency is nearly constant across
        model sizes (2.5-3.4 us on our model)."""
        per_step = [reports[b.name].latency_ms * 1e3 / b.time_steps
                    for b in SUITE if b.time_steps > 10]
        assert max(per_step) / min(per_step) < 1.45

    def test_bw_latency_matches_paper_within_15pct(self, reports):
        for bench in SUITE:
            pub = published_row(bench)
            got = reports[bench.name].latency_ms
            assert got == pytest.approx(pub.bw_latency_ms, rel=0.15), \
                bench.name

    def test_power_efficiency_near_287_gflops_per_w(self):
        table = power_efficiency()
        gflops_w = float(table.rows[0][3])
        assert gflops_w == pytest.approx(287, rel=0.1)


class TestFig8Shape:
    def test_bw_flat_gpu_rising(self):
        table = fig8(batches=(1, 4, 32))
        by_bench = {}
        for row in table.rows:
            by_bench.setdefault(row[0], []).append(
                (int(row[1]), float(row[2]), float(row[3])))
        for bench, series in by_bench.items():
            series.sort()
            bw_utils = [s[1] for s in series]
            gpu_utils = [s[2] for s in series]
            assert max(bw_utils) - min(bw_utils) < 0.5, bench
            assert gpu_utils[-1] > 3 * gpu_utils[0], bench

    def test_bw_ahead_until_batch_32(self):
        """'Effective utilization is higher than the GPU for all
        benchmarks until a batch size of 32 is applied.'"""
        table = fig8(batches=(1, 2, 4))
        for row in table.rows:
            assert float(row[2]) > float(row[3]), row[0]


class TestTableContents:
    def test_table1_has_four_workloads(self):
        assert len(table1().rows) == 4

    def test_table3_reports_three_instances(self):
        rows = table3().rows
        assert [r[0] for r in rows] == ["BW_S5", "BW_A10", "BW_S10"]

    def test_table4_static_specs(self):
        table = table4()
        assert table.column("BW_S10")[1] == "48.0"

    def test_table5_rows_per_benchmark(self):
        assert len(table5().rows) == 3 * len(SUITE)

    def test_fig2_ops_grow_quadratically(self):
        table = fig2(dims=(1024, 2048))
        ops = [float(r[1].rstrip("M")) for r in table.rows]
        assert ops[1] / ops[0] == pytest.approx(4.0, rel=0.05)

    def test_fig7_reports_advantage(self):
        table = fig7()
        assert "BW advantage" in table.headers

    def test_table6_bw_column_near_paper(self):
        table = table6()
        ips_row = next(r for r in table.rows if r[0] == "IPS (batch 1)")
        assert float(ips_row[2]) == pytest.approx(559, rel=0.1)

    def test_sdm_gap_table_excludes_single_step(self):
        rows = sdm_gap().rows
        assert all("t=1 " not in r[0] for r in rows)
