"""Workload generators and the stream driver."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.rng import DeterministicRng
from repro.workloads.driver import WorkloadResult, run_stream
from repro.workloads.macro import (DataCaching, Elasticsearch, MacroBenchmark,
                                   SparkSql)
from repro.workloads.microbench import MicroBenchmark
from repro.workloads.patterns import sliding_window_scan, zipf_stream


class TestPatterns:
    def test_sliding_window_covers_whole_array(self):
        rng = DeterministicRng(1)
        touched = {ppn for ppn, _ in
                   sliding_window_scan(100, rng, passes=1, hot_prob=0.0)}
        assert touched == set(range(100))

    def test_sliding_window_deterministic(self):
        a = list(sliding_window_scan(50, DeterministicRng(2), passes=2))
        b = list(sliding_window_scan(50, DeterministicRng(2), passes=2))
        assert a == b

    def test_hot_set_gets_extra_accesses(self):
        rng = DeterministicRng(1)
        counts = {}
        for ppn, _ in sliding_window_scan(100, rng, passes=2, hot_frac=0.1,
                                          hot_prob=0.5):
            counts[ppn] = counts.get(ppn, 0) + 1
        hot_mean = sum(counts.get(p, 0) for p in range(10)) / 10
        cold_mean = sum(counts.get(p, 0) for p in range(50, 100)) / 50
        assert hot_mean > cold_mean * 1.5

    def test_zipf_stream_length_and_range(self):
        stream = list(zipf_stream(64, 500, DeterministicRng(1)))
        assert len(stream) == 500
        assert all(0 <= ppn < 64 for ppn, _ in stream)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            list(sliding_window_scan(0, DeterministicRng(1)))
        with pytest.raises(ConfigurationError):
            list(zipf_stream(-1, 10, DeterministicRng(1)))


class TestMicroBenchmark:
    def test_stream_is_reproducible(self):
        micro = MicroBenchmark(wss_pages=64, passes=2)
        assert list(micro.stream()) == list(micro.stream())

    def test_compute_cost_positive(self):
        assert MicroBenchmark(wss_pages=8).compute_s > 0

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            MicroBenchmark(wss_pages=0)


class TestMacroBenchmarks:
    def test_factory_table(self):
        for factory in (Elasticsearch, DataCaching, SparkSql):
            bench = factory(wss_pages=128)
            assert bench.wss_pages == 128
            assert bench.operations == bench.ops_factor * 128

    def test_relative_skew(self):
        """Data caching is the most skewed, Spark the most scan-heavy."""
        dc, es, sp = DataCaching(), Elasticsearch(), SparkSql()
        assert dc.alpha >= es.alpha >= sp.alpha
        assert sp.scan_frac > es.scan_frac >= dc.scan_frac

    def test_stream_length_matches_operations(self):
        bench = DataCaching(wss_pages=64)
        assert len(list(bench.stream())) == bench.operations

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            MacroBenchmark("bad", 0, alpha=1.0, scan_frac=0.0, compute_s=0.0)
        with pytest.raises(ConfigurationError):
            MacroBenchmark("bad", 10, alpha=1.0, scan_frac=1.5, compute_s=0.0)


class TestDriver:
    def test_integrates_memory_and_compute(self):
        result = run_stream([(0, False), (1, True)],
                            lambda ppn, w: 0.5, compute_s=0.25)
        assert result.accesses == 2
        assert result.memory_time_s == pytest.approx(1.0)
        assert result.compute_time_s == pytest.approx(0.5)
        assert result.sim_time_s == pytest.approx(1.5)

    def test_penalty(self):
        base = WorkloadResult(10, 1.0, 0.5, 0.5)
        slow = WorkloadResult(10, 1.5, 1.0, 0.5)
        assert slow.penalty_vs(base) == pytest.approx(0.5)

    def test_penalty_against_zero_baseline_rejected(self):
        base = WorkloadResult(0, 0.0, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            base.penalty_vs(base)

    def test_negative_compute_rejected(self):
        with pytest.raises(ConfigurationError):
            run_stream([], lambda p, w: 0.0, compute_s=-1.0)
