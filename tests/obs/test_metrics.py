"""The metrics registry (repro.obs.metrics).

Contracts under test: get-or-create identity per name, reset-in-place
keeps module-cached handles live, log-spaced histogram bucketing, and
snapshot merge/serialization semantics.
"""

import math

import pytest

from repro.core import serialization
from repro.obs.metrics import (
    Histogram,
    HistogramState,
    MetricsRegistry,
    MetricsSnapshot,
    default_bounds,
)


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_reset_zeroes_in_place_keeping_handles_live(self):
        """The whole point of reset(): call sites cache handles at
        import time; a reset must zero those exact objects, not
        replace them."""
        reg = MetricsRegistry()
        counter = reg.counter("hits")
        gauge = reg.gauge("level")
        hist = reg.histogram("wall")
        counter.inc(5)
        gauge.set(2.5)
        hist.observe(0.1)
        reg.reset()
        assert counter.value == 0 and gauge.value == 0.0
        assert hist.count == 0 and hist.total == 0.0
        # The cached handles are still the registered instruments.
        assert reg.counter("hits") is counter
        counter.inc()
        assert reg.snapshot().counters == {"hits": 1}

    def test_snapshot_skips_silent_instruments(self):
        reg = MetricsRegistry()
        reg.counter("quiet")
        reg.gauge("flat")
        reg.histogram("empty")
        snap = reg.snapshot()
        assert snap.counters == {}
        assert snap.gauges == {}
        assert snap.histograms == {}


class TestHistogram:
    def test_default_bounds_are_log_spaced_decade_thirds(self):
        bounds = default_bounds()
        assert len(bounds) == 28
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] == pytest.approx(1e3)
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        assert all(r == pytest.approx(10.0 ** (1 / 3.0))
                   for r in ratios)

    def test_bucketing_boundaries(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        hist.observe(0.5)    # first bucket (<= 1.0)
        hist.observe(1.0)    # exactly on an edge: still first bucket
        hist.observe(5.0)    # second bucket
        hist.observe(100.0)  # overflow bucket
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.min == 0.5 and hist.max == 100.0
        assert hist.mean() == pytest.approx((0.5 + 1 + 5 + 100) / 4)

    def test_empty_histogram_mean_and_state(self):
        hist = Histogram("h")
        assert hist.mean() is None
        state = hist.state()
        assert state.count == 0
        assert state.min is None and state.max is None

    def test_reset_clears_extrema(self):
        hist = Histogram("h")
        hist.observe(3.0)
        hist.reset()
        assert hist.min == math.inf and hist.max == -math.inf
        hist.observe(1.0)
        assert hist.min == hist.max == 1.0


class TestSnapshotMerge:
    def test_counters_sum_and_gauges_last_win(self):
        a = MetricsSnapshot(counters={"x": 2, "only_a": 1},
                            gauges={"g": 1.0})
        b = MetricsSnapshot(counters={"x": 3, "only_b": 4},
                            gauges={"g": 9.0})
        merged = a.merge(b)
        assert merged.counters == {"x": 5, "only_a": 1, "only_b": 4}
        assert merged.gauges == {"g": 9.0}
        # merge() is pure: the inputs are untouched.
        assert a.counters == {"x": 2, "only_a": 1}

    def test_histograms_merge_bucket_wise(self):
        def snap(values):
            reg = MetricsRegistry()
            h = reg.histogram("wall", bounds=(1.0, 10.0))
            for v in values:
                h.observe(v)
            return reg.snapshot()

        merged = snap([0.5, 5.0]).merge(snap([20.0, 0.1]))
        state = merged.histograms["wall"]
        assert state.counts == [2, 1, 1] and state.count == 4
        assert state.min == 0.1 and state.max == 20.0
        assert state.total == pytest.approx(25.6)

    def test_histogram_merge_rejects_mismatched_bounds(self):
        a = MetricsSnapshot(histograms={"h": HistogramState(
            bounds=[1.0], counts=[1, 0], count=1, total=0.5)})
        b = MetricsSnapshot(histograms={"h": HistogramState(
            bounds=[2.0], counts=[1, 0], count=1, total=0.5)})
        with pytest.raises(ValueError, match="bounds differ"):
            a.merge(b)

    def test_one_sided_histograms_adopt_the_other_side(self):
        a = MetricsSnapshot()
        b = MetricsSnapshot(histograms={"h": HistogramState(
            bounds=[1.0], counts=[2, 0], count=2, total=0.7,
            min=0.1, max=0.6)})
        merged = a.merge(b)
        assert merged.histograms["h"].count == 2
        # Deep-copied, not aliased.
        merged.histograms["h"].counts[0] = 99
        assert b.histograms["h"].counts[0] == 2

    def test_snapshot_round_trips_through_serialization(self):
        reg = MetricsRegistry()
        reg.counter("campaign.store.hits").inc(7)
        reg.gauge("queue.depth").set(3.0)
        reg.histogram("scenario.wall_s").observe(0.02)
        snap = reg.snapshot()
        back = serialization.from_jsonable(serialization.to_jsonable(snap))
        assert isinstance(back, MetricsSnapshot)
        assert back.counters == snap.counters
        assert back.gauges == snap.gauges
        state = back.histograms["scenario.wall_s"]
        assert state.count == 1
        assert state.total == pytest.approx(0.02)
        # A merged round-tripped snapshot still behaves.
        assert back.merge(snap).counters["campaign.store.hits"] == 14
