"""The ZomTrace metrics registry: instruments, labels, snapshot/delta."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.export import to_prometheus_text
from repro.obs.metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                               MetricsRegistry, NULL_COUNTER, NULL_GAUGE,
                               NULL_HISTOGRAM)


def _linear_bucket(bounds, value) -> int:
    """The bucket index a first-bound-at-or-above linear scan picks."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


class TestInstruments:
    def test_counter_is_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ConfigurationError):
            counter.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.inc(2.0)
        assert gauge.value == 12.0
        gauge.set(7.0)
        assert gauge.value == 7.0

    def test_histogram_aggregates(self):
        hist = Histogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(55.55)
        assert hist.mean == pytest.approx(55.55 / 4)
        assert hist.min == 0.05
        assert hist.max == 50.0
        assert hist.cumulative_buckets() == [
            (0.1, 1), (1.0, 2), (10.0, 3), (float("inf"), 4),
        ]

    def test_histogram_quantiles_interpolate(self):
        hist = Histogram(buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            hist.observe(1.5)
        # All mass sits in the (1, 2] bucket: every quantile lands there.
        assert 1.0 < hist.quantile(0.5) <= 2.0
        assert 1.0 < hist.quantile(0.99) <= 2.0
        spread = Histogram(buckets=(1.0, 2.0, 4.0))
        for i in range(100):
            spread.observe(1.0 + i / 100)   # 1.00 .. 1.99
        assert spread.quantile(0.99) > spread.quantile(0.5)
        assert spread.min <= spread.quantile(0.5) <= spread.max

    def test_histogram_quantile_stays_inside_the_data(self):
        # Interpolating inside a bucket must not leave [min, max]: a
        # single observation is every quantile of itself.
        hist = Histogram()
        hist.observe(12e-6)
        for q in (0.01, 0.5, 0.9, 0.99, 1.0):
            assert hist.quantile(q) == 12e-6

    def test_histogram_overflow_quantile_is_observed_max(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(7.0)
        assert hist.quantile(0.99) == 7.0

    def test_histogram_rejects_nan(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(0.5)
        with pytest.raises(ConfigurationError):
            hist.observe(float("nan"))
        assert (hist.count, hist.sum, hist.min, hist.max) == (1, 0.5, 0.5,
                                                             0.5)
        assert hist.bucket_counts == [1, 0]

    def test_histogram_buckets_match_the_linear_scan(self):
        bounds = DEFAULT_BUCKETS
        values = [0.0, -0.0, 1e-300, -1.0, math.inf, -math.inf, 1e300,
                  1e12, 7, 0.3]
        for bound in bounds:
            values += [bound, math.nextafter(bound, -math.inf),
                       math.nextafter(bound, math.inf)]
        for value in values:
            hist = Histogram()
            hist.observe(value)
            want = _linear_bucket(bounds, value)
            assert hist.bucket_counts[want] == 1, value
            assert sum(hist.bucket_counts) == 1

    def test_histogram_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            Histogram(buckets=())
        with pytest.raises(ConfigurationError):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram().quantile(0.0)
        assert Histogram().quantile(0.5) == 0.0  # empty histogram


class TestRegistry:
    def test_same_name_and_labels_share_one_child(self):
        registry = MetricsRegistry()
        a = registry.counter("rpc_calls_total", verb="GS_wake")
        b = registry.counter("rpc_calls_total", verb="GS_wake")
        other = registry.counter("rpc_calls_total", verb="GS_reclaim")
        a.inc()
        b.inc()
        assert a is b
        assert a is not other
        assert registry.value("rpc_calls_total", verb="GS_wake") == 2

    def test_kind_conflict_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("x_total")

    def test_invalid_names_are_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("bad name")
        with pytest.raises(ConfigurationError):
            registry.counter("fine_name", **{"bad-label": "x"})

    def test_label_names_are_checked_on_every_new_label_set(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "X.", verb="a")
        with pytest.raises(ConfigurationError):
            registry.counter("x_total", **{"bad-label": 1})
        assert registry.labels_for("x_total") == [{"verb": "a"}]
        assert "bad-label" not in to_prometheus_text(registry)

    def test_repeat_lookups_return_the_one_child(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "C.", verb="a", node="h")
        assert registry.counter("c_total", node="h", verb="a") is first
        assert registry.counter("c_total", "C.", verb="a", node="h") is first
        # Values that compare equal but label differently stay apart.
        one = registry.gauge("g", "G.", v=1)
        assert registry.gauge("g", v=True) is not one
        assert registry.gauge("g", v=1.0) is not one
        assert registry.gauge("g", v="1") is one
        assert registry.labels_for("g") == [{"v": "1"}, {"v": "1.0"},
                                            {"v": "True"}]

    def test_help_given_after_the_first_lookup_still_lands(self):
        registry = MetricsRegistry()
        registry.counter("c_total", verb="a")
        registry.counter("c_total", verb="a")
        registry.counter("c_total", "Late help.", verb="a")
        assert registry.families()[0].help == "Late help."

    def test_get_and_value_never_create(self):
        registry = MetricsRegistry()
        assert registry.get("absent") is None
        assert registry.value("absent") == 0.0
        assert registry.labels_for("absent") == []
        assert registry.families() == []

    def test_value_of_histogram_is_its_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", verb="GS_wake")
        hist.observe(0.1)
        hist.observe(0.2)
        assert registry.value("lat_seconds", verb="GS_wake") == 2

    def test_labels_for_lists_every_series(self):
        registry = MetricsRegistry()
        registry.counter("c_total", verb="a")
        registry.counter("c_total", verb="b", node="h1")
        assert registry.labels_for("c_total") == [
            {"node": "h1", "verb": "b"}, {"verb": "a"},
        ]

    def test_disabled_registry_hands_out_shared_noops(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("c_total") is NULL_COUNTER
        assert registry.gauge("g") is NULL_GAUGE
        assert registry.histogram("h_seconds") is NULL_HISTOGRAM
        registry.counter("c_total").inc()
        registry.gauge("g").set(5.0)
        registry.histogram("h_seconds").observe(1.0)
        assert registry.families() == []
        assert NULL_COUNTER.value == 0.0
        assert NULL_GAUGE.value == 0.0
        assert NULL_HISTOGRAM.count == 0


class TestSnapshotDelta:
    def test_snapshot_flattens_series(self):
        registry = MetricsRegistry()
        registry.counter("c_total", verb="x").inc(3)
        registry.gauge("g").set(1.5)
        hist = registry.histogram("h_seconds")
        hist.observe(0.25)
        snap = registry.snapshot()
        assert snap['c_total{verb="x"}'] == 3.0
        assert snap["g"] == 1.5
        assert snap["h_seconds_count"] == 1.0
        assert snap["h_seconds_sum"] == 0.25

    def test_delta_reports_only_what_changed(self):
        registry = MetricsRegistry()
        registry.counter("c_total", verb="x").inc()
        registry.counter("steady_total").inc()
        before = registry.snapshot()
        registry.counter("c_total", verb="x").inc(2)
        registry.counter("c_total", verb="new").inc()  # absent before
        change = MetricsRegistry.delta(before, registry.snapshot())
        assert change == {'c_total{verb="x"}': 2.0, 'c_total{verb="new"}': 1.0}
