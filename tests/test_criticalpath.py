"""Tests for the UDM/SDM critical-path methodology (Section III)."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.criticalpath import Dfg, analytic, conv_layer_dfg, dot_depth, gru_step_dfg, lstm_step_dfg, recurrent_cycle_depth, sdm_analyze_recurrent, sdm_cycles_bound, sdm_cycles_scheduled, udm_analyze_recurrent, \
    udm_cycles
from repro.models.cnn import TABLE1_CNN_1X1, TABLE1_CNN_3X3


class TestDfg:
    def test_dot_depth(self):
        assert dot_depth(1) == 1
        assert dot_depth(2) == 2
        assert dot_depth(2000) == 12  # 1 + ceil(log2 2000)

    def test_duplicate_node_rejected(self):
        g = Dfg()
        g.add_input("x")
        with pytest.raises(ValueError):
            g.add_input("x")

    def test_unknown_dependency_rejected(self):
        g = Dfg()
        with pytest.raises(ValueError):
            g.add_pointwise("y", "add", 4, deps=["ghost"])

    def test_critical_path_linear_chain(self):
        g = Dfg()
        g.add_input("x")
        g.add_pointwise("a", "add", 4, deps=["x"])
        g.add_pointwise("b", "mul", 4, deps=["a"])
        assert g.critical_path() == 2

    def test_critical_path_takes_longest_branch(self):
        g = Dfg()
        g.add_input("x")
        g.add_dot("deep", 1024, 1, deps=["x"])       # depth 11
        g.add_pointwise("shallow", "add", 4, deps=["x"])
        g.add_pointwise("join", "add", 4, deps=["deep", "shallow"])
        assert g.critical_path() == 12

    def test_sources_restriction(self):
        g = Dfg()
        g.add_input("x")
        g.add_input("h")
        g.add_dot("xw", 64, 8, deps=["x"])
        g.add_pointwise("y", "add", 8, deps=["xw", "h"])
        # From h only: the dot product is off-path.
        assert g.critical_path(sinks=["y"], sources=["h"]) == 1

    def test_work_accounting(self):
        g = Dfg()
        g.add_input("x")
        g.add_dot("d", 8, 4, deps=["x"])
        g.add_pointwise("p", "add", 4, deps=["d"])
        assert g.total_macs == 32
        assert g.total_pointwise_ops == 4
        assert g.total_ops == 68


class TestTable1Values:
    def test_lstm2000_udm_is_19(self):
        """Table I: the 2000-dim LSTM evaluates in 19 UDM cycles."""
        g = lstm_step_dfg(2000)
        assert g.critical_path() == 19

    def test_lstm2000_ops(self):
        assert lstm_step_dfg(2000).total_ops == pytest.approx(64e6,
                                                              rel=0.01)

    def test_lstm2000_sdm_is_352(self):
        """Table I: 352 cycles on 96,000 MACs."""
        g = lstm_step_dfg(2000)
        assert sdm_analyze_recurrent(g, 1, 96000).cycles == 352

    def test_gru2800_udm_near_31(self):
        """Table I reports 31; the graph analysis gives 34 (it counts
        the final interpolation ops the paper appears to exclude)."""
        assert 31 <= udm_cycles(gru_step_dfg(2800)) <= 34

    def test_gru2800_sdm_near_520(self):
        g = gru_step_dfg(2800)
        assert sdm_analyze_recurrent(g, 1, 96000).cycles == \
            pytest.approx(520, abs=5)

    def test_cnn_3x3_sdm_near_1204(self):
        g = conv_layer_dfg(TABLE1_CNN_3X3)
        assert sdm_cycles_bound(g, 96000) == pytest.approx(1204, rel=0.02)

    def test_cnn_3x3_udm_is_13(self):
        assert udm_cycles(conv_layer_dfg(TABLE1_CNN_3X3)) == 13

    def test_cnn_1x1_sdm_near_549(self):
        g = conv_layer_dfg(TABLE1_CNN_1X1)
        assert sdm_cycles_bound(g, 96000) == pytest.approx(549, rel=0.02)

    def test_lstm_18x_gap_between_sdm_and_udm(self):
        """Section III: 'The 18X gap between the SDM and UDM suggests
        further performance improvements with more resources.'"""
        g = lstm_step_dfg(2000)
        ratio = sdm_analyze_recurrent(g, 1, 96000).cycles / udm_cycles(g)
        assert 16 <= ratio <= 20


class TestRecurrentAnalysis:
    def test_udm_recurrent_scales_linearly(self):
        g = lstm_step_dfg(512)
        one = udm_analyze_recurrent(g, 1).cycles
        ten = udm_analyze_recurrent(g, 10).cycles
        per = recurrent_cycle_depth(g)
        assert ten - one == 9 * per

    def test_sdm_recurrent_matches_table5_gru2816(self):
        """SDM for GRU h=2816 t=750 is 1.581 ms (Table V)."""
        g = gru_step_dfg(2816)
        result = sdm_analyze_recurrent(g, 750, 96000)
        assert result.latency_ms(250.0) == pytest.approx(1.581, rel=0.02)

    def test_sdm_recurrent_matches_table5_lstm2048(self):
        g = lstm_step_dfg(2048)
        result = sdm_analyze_recurrent(g, 25, 96000)
        assert result.latency_ms(250.0) == pytest.approx(0.037, rel=0.03)

    def test_invalid_steps(self):
        g = lstm_step_dfg(64)
        with pytest.raises(ValueError):
            udm_analyze_recurrent(g, 0)
        with pytest.raises(ValueError):
            sdm_analyze_recurrent(g, 0, 100)

    def test_gru_variants_differ_in_depth(self):
        classic = recurrent_cycle_depth(gru_step_dfg(1024,
                                                     variant="classic"))
        cudnn = recurrent_cycle_depth(gru_step_dfg(1024,
                                                   variant="cudnn"))
        assert classic > cudnn  # reset-before-matmul serializes two dots

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            gru_step_dfg(64, variant="other")


class TestSdmProperties:
    def test_bound_at_least_udm(self):
        g = lstm_step_dfg(256)
        assert sdm_cycles_bound(g, 1000) >= udm_cycles(g)

    def test_more_macs_never_slower(self):
        g = lstm_step_dfg(512)
        cycles = [sdm_cycles_bound(g, m) for m in (1000, 10000, 100000)]
        assert cycles == sorted(cycles, reverse=True)

    def test_scheduled_between_floor_and_bound(self):
        g = conv_layer_dfg(TABLE1_CNN_1X1)
        macs = 500
        scheduled = sdm_cycles_scheduled(g, macs)
        assert scheduled >= g.total_macs / macs
        assert scheduled >= udm_cycles(g)
        assert scheduled <= sdm_cycles_bound(g, macs) + udm_cycles(g)

    def test_invalid_mac_count(self):
        g = lstm_step_dfg(8)
        with pytest.raises(ValueError):
            sdm_cycles_bound(g, 0)
        with pytest.raises(ValueError):
            sdm_cycles_scheduled(g, -1)


@given(st.integers(2, 4096), st.integers(100, 200000))
@settings(max_examples=40)
def test_sdm_bound_dominates_schedule_property(dim, macs):
    """Graham bound >= greedy schedule >= work/units for LSTM steps."""
    g = lstm_step_dfg(dim)
    bound = sdm_cycles_bound(g, macs)
    scheduled = sdm_cycles_scheduled(g, macs)
    assert scheduled <= bound + 1e-9
    assert scheduled >= g.total_macs / macs - 1e-9


class TestAnalytic:
    def test_lstm_udm_matches_graph(self):
        for n in (256, 1024, 2000, 4096):
            assert analytic.lstm_udm_cycles_per_step(n) == \
                udm_cycles(lstm_step_dfg(n))

    def test_lstm_sdm_matches_graph(self):
        for n in (512, 2000):
            graph = sdm_analyze_recurrent(lstm_step_dfg(n), 1,
                                          96000).cycles
            assert analytic.lstm_sdm_cycles_per_step(n, 96000) == \
                pytest.approx(graph, abs=2)

    def test_ops_formulas_match_model_shapes(self):
        from repro.models import GruShape, LstmShape
        assert analytic.lstm_ops_per_step(1024) == \
            LstmShape(1024, 1024).ops_per_step
        assert analytic.gru_ops_per_step(1024) == \
            GruShape(1024, 1024).ops_per_step

    def test_fig2_trends(self):
        """Ops grow ~4x per dimension doubling; UDM grows by ~1."""
        ops_ratio = (analytic.lstm_ops_per_step(2048)
                     / analytic.lstm_ops_per_step(1024))
        assert 3.8 < ops_ratio < 4.2
        assert (analytic.lstm_udm_cycles_per_step(2048)
                - analytic.lstm_udm_cycles_per_step(1024)) == 1

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            analytic.lstm_udm_cycles_per_step(1)
