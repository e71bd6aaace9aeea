"""Time-series layer: ring buffers, vectorized ingest, quantile
windows, and the labeled store."""

import numpy as np
import pytest

from repro.obs.timeseries import (CounterSeries, GaugeSeries,
                                  QuantileWindow, TimeSeriesStore,
                                  label_key)

pytestmark = pytest.mark.tier1


class TestRingSemantics:
    def test_window_arithmetic(self):
        s = GaugeSeries("g", interval_s=0.5, start_s=1.0)
        assert s.window_of(1.0) == 0
        assert s.window_of(1.49) == 0
        assert s.window_of(2.0) == 2
        with pytest.raises(ValueError):
            s.window_of(0.9)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            GaugeSeries("g", interval_s=0.0)
        with pytest.raises(ValueError):
            GaugeSeries("g", interval_s=1.0, capacity=0)

    def test_wrap_evicts_oldest(self):
        s = GaugeSeries("g", interval_s=1.0, capacity=4)
        for k in range(6):
            s.record(k + 0.5, float(k))
        assert s.first_window == 2
        assert s.evicted_windows == 2
        assert np.array_equal(s.values(), [2.0, 3.0, 4.0, 5.0])
        assert np.array_equal(s.times(), [2.0, 3.0, 4.0, 5.0])

    def test_write_into_evicted_window_is_dropped(self):
        s = GaugeSeries("g", interval_s=1.0, capacity=2)
        s.record(5.5, 1.0)
        s.record(0.5, 9.0)  # long evicted
        assert s.dropped_writes == 1
        assert s.latest() == 1.0

    def test_aligned_zero_fills(self):
        s = CounterSeries("c", interval_s=1.0, capacity=8)
        s.record(2.5)
        s.record(2.6)
        s.record(5.5)
        out = s.aligned(8)
        assert np.array_equal(out, [0, 0, 2, 0, 0, 1, 0, 0])


class TestGaugeSeries:
    def test_last_write_wins(self):
        s = GaugeSeries("g", interval_s=1.0)
        s.record(0.2, 1.0)
        s.record(0.8, 2.0)
        assert s.values()[0] == 2.0

    def test_latest_skips_gap_windows(self):
        s = GaugeSeries("g", interval_s=1.0)
        s.record(0.5, 7.0)
        s.record(3.5, 9.0)
        assert s.latest() == 9.0
        vals = s.values()
        assert np.isnan(vals[1]) and np.isnan(vals[2])

    def test_empty_latest_is_nan(self):
        assert np.isnan(GaugeSeries("g", interval_s=1.0).latest())


class TestCounterSeries:
    def test_rates(self):
        c = CounterSeries("c", interval_s=0.5, capacity=8)
        for t in (0.1, 0.2, 0.6, 1.6):
            c.record(t)
        assert np.array_equal(c.rates(), [4.0, 2.0, 0.0, 2.0])


class TestQuantileWindow:
    def test_add_many_matches_scalar_add(self, rng):
        bounds = (1.0, 2.0, 5.0, 10.0)
        a = QuantileWindow("q", 1.0, 0.0, 8, bounds=bounds)
        b = QuantileWindow("q", 1.0, 0.0, 8, bounds=bounds)
        ts = rng.uniform(0.0, 8.0, size=300)
        vs = rng.uniform(0.0, 12.0, size=300)
        a.add_many(ts, vs)
        for t, v in zip(ts, vs):
            b.add(t, v)
        assert np.array_equal(a.counts, b.counts)
        assert np.allclose(a.sums, b.sums)

    def test_out_of_range_times_clamp(self):
        q = QuantileWindow("q", 1.0, 0.0, 4, bounds=(1.0,))
        q.add_many([-3.0, 99.0], [0.5, 0.5])
        assert q.counts[0].sum() == 1
        assert q.counts[3].sum() == 1

    def test_quantile_tracks_distribution(self, rng):
        q = QuantileWindow("q", 1.0, 0.0, 4,
                           bounds=tuple(np.linspace(0.1, 20.0, 100)))
        vs = rng.exponential(3.0, size=5000)
        q.add_many(rng.uniform(0, 4, size=5000), vs)
        est = q.quantile(50)
        assert abs(est - np.percentile(vs, 50)) < 0.5

    def test_series_rolling_window_nan_when_empty(self):
        q = QuantileWindow("q", 1.0, 0.0, 4, bounds=(1.0, 2.0))
        q.add(2.5, 1.5)
        s = q.series(99, window_len=1)
        assert np.isnan(s[0]) and np.isnan(s[3])
        assert s[2] == pytest.approx(2.0, abs=1.0)


class TestTimeSeriesStore:
    def test_get_or_create_by_label_set(self):
        store = TimeSeriesStore(interval_s=1.0, windows=16)
        a = store.counter("reqs", scope="fleet", status="served")
        b = store.counter("reqs", status="served", scope="fleet")
        assert a is b
        c = store.counter("reqs", scope="fleet", status="failed")
        assert c is not a

    def test_kind_mismatch_raises(self):
        store = TimeSeriesStore(interval_s=1.0, windows=16)
        store.counter("m", scope="fleet")
        with pytest.raises(ValueError):
            store.gauge("m", scope="fleet")
        with pytest.raises(ValueError):
            store.quantile("m", scope="fleet")

    def test_find_by_label_subset_and_label_values(self):
        store = TimeSeriesStore(interval_s=1.0, windows=16)
        store.counter("reqs", scope="fleet", status="served")
        store.counter("reqs", scope="rack0", status="served")
        store.counter("reqs", scope="rack0", status="failed")
        assert len(store.find("reqs", scope="rack0")) == 2
        assert len(store.find("reqs")) == 3
        assert store.label_values("reqs", "scope") == \
            ["fleet", "rack0"]

    def test_span_and_render(self):
        store = TimeSeriesStore(interval_s=0.5, windows=8)
        assert store.span_s == 4.0
        store.counter("reqs", scope="fleet").record(0.1, 2.0)
        store.gauge("up", scope="fleet").record(1.2, 3.0)
        store.quantile("lat", scope="fleet").add(0.5, 2.0)
        text = store.render()
        assert "3 series" in text
        assert "counter total=2" in text
        assert "gauge last=3" in text

    def test_label_key_order_independent(self):
        assert label_key({"a": 1, "b": "x"}) == \
            label_key({"b": "x", "a": 1})
