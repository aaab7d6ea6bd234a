"""Unit tests for the metrics registry."""

import math
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import MetricsRegistry
from repro.sim.metrics import DEFAULT_RESERVOIR_SIZE, Held


class TestCounter:
    def test_counts_up(self):
        metrics = MetricsRegistry()
        metrics.counter("queries").inc()
        metrics.counter("queries").inc(2)
        assert metrics.counter("queries").value == 3

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("q").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("load")
        gauge.set(5)
        gauge.add(-2)
        assert gauge.value == 3


class TestHistogram:
    def test_summary_statistics(self):
        histogram = MetricsRegistry().histogram("latency")
        for sample in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(sample)
        assert histogram.count == 4
        assert histogram.mean == 2.5
        assert histogram.minimum == 1.0
        assert histogram.maximum == 4.0
        assert histogram.total == 10.0

    def test_empty_histogram_reports_nan(self):
        histogram = MetricsRegistry().histogram("empty")
        assert math.isnan(histogram.mean)
        assert math.isnan(histogram.percentile(50))

    def test_percentiles_nearest_rank(self):
        histogram = MetricsRegistry().histogram("p")
        for sample in range(1, 101):
            histogram.observe(float(sample))
        assert histogram.percentile(50) == 50.0
        assert histogram.percentile(99) == 99.0
        assert histogram.percentile(100) == 100.0
        assert histogram.percentile(0) == 1.0

    def test_percentile_out_of_range_rejected(self):
        histogram = MetricsRegistry().histogram("p")
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_stddev_of_constant_series_is_zero(self):
        histogram = MetricsRegistry().histogram("s")
        for _ in range(5):
            histogram.observe(3.0)
        assert histogram.stddev == 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    def test_percentile_is_always_an_observed_sample(self, samples):
        histogram = MetricsRegistry().histogram("h")
        for sample in samples:
            histogram.observe(sample)
        assert histogram.percentile(50) in samples
        assert histogram.minimum <= histogram.percentile(50) <= histogram.maximum


class TestHistogramReservoir:
    def test_memory_is_capped_at_capacity(self):
        histogram = MetricsRegistry().histogram("wait", capacity=64)
        for sample in range(10_000):
            histogram.observe(float(sample))
        assert len(histogram.samples) == 64

    def test_default_capacity_is_at_least_4096(self):
        histogram = MetricsRegistry().histogram("wait")
        assert histogram.capacity >= 4096
        assert histogram.capacity == DEFAULT_RESERVOIR_SIZE

    def test_aggregates_stay_exact_past_the_cap(self):
        histogram = MetricsRegistry().histogram("wait", capacity=16)
        samples = [float(i) for i in range(1000)]
        for sample in samples:
            histogram.observe(sample)
        assert histogram.count == 1000
        assert histogram.total == sum(samples)
        assert histogram.mean == pytest.approx(499.5)
        assert histogram.minimum == 0.0
        assert histogram.maximum == 999.0
        expected_stddev = statistics.stdev(samples)
        assert histogram.stddev == pytest.approx(expected_stddev, rel=1e-9)

    def test_reservoir_holds_a_representative_subset(self):
        histogram = MetricsRegistry().histogram("wait", capacity=256)
        for sample in range(100_000):
            histogram.observe(float(sample))
        # Every retained sample was actually observed, and the estimated
        # median lands near the true median.
        assert all(0.0 <= s < 100_000 for s in histogram.samples)
        assert histogram.percentile(50) == pytest.approx(50_000, rel=0.15)

    def test_sampling_is_deterministic_per_name(self):
        def fill(name):
            histogram = MetricsRegistry().histogram(name, capacity=32)
            for sample in range(5000):
                histogram.observe(float(sample))
            return list(histogram.samples)

        assert fill("latency") == fill("latency")

    def test_below_capacity_keeps_every_sample(self):
        histogram = MetricsRegistry().histogram("wait", capacity=100)
        for sample in [5.0, 1.0, 3.0]:
            histogram.observe(sample)
        assert sorted(histogram.samples) == [1.0, 3.0, 5.0]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", capacity=0)


class TestRegistry:
    def test_same_name_same_instrument(self):
        metrics = MetricsRegistry()
        assert metrics.counter("a") is metrics.counter("a")
        assert metrics.histogram("b") is metrics.histogram("b")
        assert metrics.gauge("c") is metrics.gauge("c")

    def test_snapshot_flattens_everything(self):
        metrics = MetricsRegistry()
        metrics.counter("served").inc(7)
        metrics.gauge("load").set(0.5)
        metrics.histogram("latency").observe(2.0)
        snapshot = metrics.snapshot()
        assert snapshot["served"] == 7
        assert snapshot["load"] == 0.5
        assert snapshot["latency.count"] == 1.0
        assert snapshot["latency.mean"] == 2.0


class TestHeld:
    def test_resolves_each_instrument_once_and_only_when_used(self):
        metrics = MetricsRegistry()
        looked_up = []

        def lookup(name):
            looked_up.append(name)
            return metrics.counter(name)

        held = Held(lookup)
        assert metrics.snapshot() == {}  # holding resolves nothing
        for _ in range(3):
            held["queries"].inc()
            held["workload", "t.0", "admitted"].inc(2)
        assert looked_up == ["queries", "workload.t.0.admitted"]
        assert held["queries"] is metrics.counter("queries")
        assert metrics.snapshot() == {"queries": 3, "workload.t.0.admitted": 6}
