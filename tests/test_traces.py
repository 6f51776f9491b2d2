"""Trace schema, the synthetic generator, transforms, (de)serialization."""

import pytest

from repro.errors import TraceFormatError
from repro.traces.google import generate_trace, trace_from_csv, trace_to_csv
from repro.traces.schema import Task, TraceConfig
from repro.traces.transform import double_memory_demand, scale_demand
from repro.units import DAY, HOUR


def _small_config(**kw):
    defaults = dict(n_servers=100, duration_days=2.0, seed=7)
    defaults.update(kw)
    return TraceConfig(**defaults)


class TestTaskSchema:
    def test_valid_task(self):
        task = Task(1, 0, 0.0, 100.0, 0.2, 0.3, 0.1, 0.2)
        assert task.duration_s == 100.0
        assert not task.idle
        assert task.active_at(50.0)
        assert not task.active_at(100.0)

    def test_idle_criterion(self):
        assert Task(1, 0, 0.0, 10.0, 0.2, 0.3, 0.005, 0.2).idle

    def test_end_before_start_rejected(self):
        with pytest.raises(TraceFormatError):
            Task(1, 0, 100.0, 50.0, 0.2, 0.3, 0.1, 0.2)

    def test_out_of_range_resources_rejected(self):
        with pytest.raises(TraceFormatError):
            Task(1, 0, 0.0, 10.0, 1.5, 0.3, 0.1, 0.2)

    def test_config_validation(self):
        with pytest.raises(TraceFormatError):
            TraceConfig(n_servers=0)
        with pytest.raises(TraceFormatError):
            TraceConfig(cpu_load=1.5)


class TestGenerator:
    def test_deterministic(self):
        a = generate_trace(_small_config())
        b = generate_trace(_small_config())
        assert a == b

    def test_seed_changes_trace(self):
        a = generate_trace(_small_config(seed=1))
        b = generate_trace(_small_config(seed=2))
        assert a != b

    def test_tasks_within_horizon(self):
        config = _small_config()
        for task in generate_trace(config):
            assert 0.0 <= task.start_s < config.duration_days * DAY
            assert task.end_s <= config.duration_days * DAY

    def test_usage_below_booking(self):
        for task in generate_trace(_small_config()):
            assert task.cpu_usage <= task.cpu_request
            assert task.mem_usage <= task.mem_request

    def test_mean_booked_load_near_target(self):
        config = _small_config(duration_days=4.0)
        tasks = generate_trace(config)
        horizon = config.duration_days * DAY
        cpu_time = sum(t.cpu_request * t.duration_s for t in tasks)
        achieved = cpu_time / (horizon * config.n_servers)
        assert achieved == pytest.approx(config.cpu_load, rel=0.25)

    def test_memory_ratio_near_target(self):
        config = _small_config(mem_to_cpu=1.5)
        tasks = generate_trace(config)
        cpu = sum(t.cpu_request * t.duration_s for t in tasks)
        mem = sum(t.mem_request * t.duration_s for t in tasks)
        assert mem / cpu == pytest.approx(1.5, rel=0.2)

    def test_idle_fraction_near_target(self):
        config = _small_config(idle_fraction=0.2, duration_days=4.0)
        tasks = generate_trace(config)
        idle = sum(1 for t in tasks if t.idle)
        assert idle / len(tasks) == pytest.approx(0.2, abs=0.05)

    def test_cpu_request_is_a_clamped_lognormal(self):
        # Mean 0.12 of a server, clamped into [0.01, 0.9].
        cpu = generate_trace(_small_config()).cpu_request
        assert all(0.01 <= value <= 0.9 for value in cpu)
        assert min(cpu) == 0.01
        assert sum(cpu) / len(cpu) == pytest.approx(0.12, rel=0.1)

    def test_mem_request_is_capped_below_a_server(self):
        mem = generate_trace(_small_config()).mem_request
        assert all(0.0 < value <= 0.95 for value in mem)
        assert max(mem) == 0.95

    def test_job_duration_is_at_least_five_minutes(self):
        # Each task runs 0.8-1.2x its job's duration, or to the horizon.
        config = _small_config()
        horizon = config.duration_days * DAY
        durations = [task.duration_s for task in generate_trace(config)
                     if task.end_s < horizon]
        assert min(durations) >= 0.8 * 5 * 60.0


class TestTransforms:
    def test_double_memory_sets_2x_ratio(self):
        tasks = generate_trace(_small_config())
        doubled = double_memory_demand(tasks)
        for before, after in zip(tasks, doubled):
            if before.cpu_request * 2 <= 0.95:
                assert after.mem_request == pytest.approx(
                    before.cpu_request * 2, abs=1e-6
                )

    def test_usage_ratio_preserved(self):
        task = Task(1, 0, 0.0, 10.0, 0.2, 0.4, 0.1, 0.2)  # uses 50 % of mem
        out = scale_demand([task], mem_to_cpu=2.0)[0]
        assert out.mem_usage / out.mem_request == pytest.approx(0.5)

    def test_memory_capped_at_server(self):
        task = Task(1, 0, 0.0, 10.0, 0.8, 0.8, 0.4, 0.4)
        out = scale_demand([task], mem_to_cpu=2.0)[0]
        assert out.mem_request <= 0.95

    def test_invalid_ratio_rejected(self):
        with pytest.raises(TraceFormatError):
            scale_demand([], mem_to_cpu=0.0)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        tasks = generate_trace(_small_config())[:50]
        path = str(tmp_path / "trace.csv")
        trace_to_csv(tasks, path)
        assert trace_from_csv(path) == tasks
