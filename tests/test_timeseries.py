"""Time-series layer: ring buffers, vectorized ingest, quantile
windows, and the labeled store."""

import numpy as np
import pytest

from repro.obs.timeseries import (CounterSeries, GaugeSeries,
                                  QuantileWindow, TimeSeriesStore,
                                  label_key)

pytestmark = pytest.mark.tier1


class TestRingSemantics:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            GaugeSeries("g", interval_s=0.0)
        with pytest.raises(ValueError):
            GaugeSeries("g", interval_s=1.0, capacity=0)

    def test_wrap_evicts_oldest(self):
        s = GaugeSeries("g", interval_s=1.0, capacity=4)
        s.record_values([0.0, 1.0, 2.0, 3.0])
        s.record_values([4.0, 5.0], first_window=4)
        assert s.evicted_windows == 2
        assert s.dropped_writes == 0
        assert np.array_equal(s.values(), [2.0, 3.0, 4.0, 5.0])

    def test_write_into_evicted_window_is_dropped(self):
        s = GaugeSeries("g", interval_s=1.0, capacity=2)
        s.record_values([1.0], first_window=5)
        s.record_values([9.0])  # long evicted
        assert s.dropped_writes == 1
        assert s.latest() == 1.0

    def test_aligned_zero_fills(self):
        s = CounterSeries("c", interval_s=1.0, capacity=8)
        s.add_increments([2.0], first_window=2)
        s.add_increments([1.0], first_window=5)
        out = s.aligned(8)
        assert np.array_equal(out, [0, 0, 2, 0, 0, 1, 0, 0])


class TestGaugeSeries:
    def test_last_write_wins(self):
        s = GaugeSeries("g", interval_s=1.0)
        s.record_values([1.0])
        s.record_values([2.0])
        assert s.values()[0] == 2.0

    def test_latest_skips_gap_windows(self):
        s = GaugeSeries("g", interval_s=1.0)
        s.record_values([7.0])
        s.record_values([9.0], first_window=3)
        assert s.latest() == 9.0
        vals = s.values()
        assert np.isnan(vals[1]) and np.isnan(vals[2])

    def test_empty_latest_is_nan(self):
        assert np.isnan(GaugeSeries("g", interval_s=1.0).latest())


def observe(q, window, values):
    """Bin ``values`` into window ``window`` of ``q`` through its bulk
    ingestion, as the monitor does."""
    values = np.asarray(values, dtype=np.float64)
    counts = np.zeros_like(q.counts)
    counts[window] = np.bincount(np.searchsorted(q.bounds, values),
                                 minlength=counts.shape[1])
    sums = np.zeros_like(q.sums)
    sums[window] = values.sum()
    q.add_counts(counts, sums)


class TestQuantileWindow:
    def test_quantile_tracks_distribution(self, rng):
        q = QuantileWindow("q", 1.0, 0.0, 4,
                           bounds=tuple(np.linspace(0.1, 20.0, 100)))
        vs = rng.exponential(3.0, size=5000)
        for w, part in enumerate(np.array_split(vs, 4)):
            observe(q, w, part)
        est = q.quantile(50)
        assert abs(est - np.percentile(vs, 50)) < 0.5

    def test_series_rolling_window_nan_when_empty(self):
        q = QuantileWindow("q", 1.0, 0.0, 4, bounds=(1.0, 2.0))
        observe(q, 2, [1.5])
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
        store.counter("reqs", scope="fleet").add_increments([2.0])
        store.gauge("up", scope="fleet").record_values([3.0],
                                                      first_window=2)
        observe(store.quantile("lat", scope="fleet"), 1, [2.0])
        text = store.render()
        assert "3 series" in text
        assert "counter total=2" in text
        assert "gauge last=3" in text

    def test_label_key_order_independent(self):
        assert label_key({"a": 1, "b": "x"}) == \
            label_key({"b": "x", "a": 1})
