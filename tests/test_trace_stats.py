"""Trace statistics validation."""

import pytest

from repro.errors import TraceFormatError
from repro.traces.google import generate_trace
from repro.traces.schema import Task, TraceConfig
from repro.traces.stats import compute_stats
from repro.traces.transform import double_memory_demand
from repro.units import HOUR


class TestComputeStats:
    def test_single_task(self):
        task = Task(1, 0, 0.0, 2 * HOUR, 0.4, 0.6, 0.2, 0.3)
        stats = compute_stats([task])
        assert stats.tasks == 1 and stats.jobs == 1
        assert stats.horizon_s == 2 * HOUR
        assert stats.mean_cpu_booked == pytest.approx(0.4)
        assert stats.mean_mem_booked == pytest.approx(1.5 * stats.mean_cpu_booked)
        assert stats.duration_p50_s == 2 * HOUR

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceFormatError):
            compute_stats([])

    def test_generated_trace_matches_config(self):
        config = TraceConfig(n_servers=200, duration_days=3.0,
                             cpu_load=0.3, mem_to_cpu=1.5,
                             idle_fraction=0.12, seed=3)
        stats = compute_stats(generate_trace(config))
        assert stats.mean_cpu_booked == pytest.approx(
            config.cpu_load * config.n_servers, rel=0.25)
        assert (stats.mean_mem_booked / stats.mean_cpu_booked
                == pytest.approx(1.5, rel=0.15))
        assert stats.idle_task_fraction == pytest.approx(0.12, abs=0.05)
        # Bookings exceed usage.
        assert stats.mean_cpu_used / stats.mean_cpu_booked < 0.8

    def test_diurnal_swing_visible(self):
        config = TraceConfig(n_servers=200, duration_days=3.0,
                             diurnal_amplitude=0.5, seed=3)
        flat = TraceConfig(n_servers=200, duration_days=3.0,
                           diurnal_amplitude=0.0, seed=3)
        swing = compute_stats(generate_trace(config)).diurnal_peak_to_trough
        baseline = compute_stats(generate_trace(flat)).diurnal_peak_to_trough
        assert swing > baseline

    def test_modified_trace_ratio_is_two(self):
        tasks = generate_trace(TraceConfig(n_servers=100,
                                           duration_days=2.0, seed=9))
        stats = compute_stats(double_memory_demand(tasks))
        assert (stats.mean_mem_booked / stats.mean_cpu_booked
                == pytest.approx(2.0, rel=0.05))
