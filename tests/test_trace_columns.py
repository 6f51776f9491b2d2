"""The columnar Trace: sequence behaviour, validation, shared columns."""

import csv
from array import array

import pytest

from repro.dc.datacenter import aggregate_demand
from repro.errors import TraceFormatError
from repro.traces import Trace
from repro.traces.google import generate_trace, trace_from_csv, trace_to_csv
from repro.traces.schema import FIELDS, Task, TraceConfig
from repro.traces.stats import compute_stats
from repro.traces.transform import double_memory_demand
from repro.units import HOUR


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TraceConfig(n_servers=20, duration_days=0.5,
                                      seed=3))


def _columns(**overrides):
    columns = dict(job_id=[1, 2], task_index=[0, 0], start_s=[0.0, 10.0],
                   end_s=[5.0, 20.0], cpu_request=[0.2, 0.4],
                   mem_request=[0.3, 0.5], cpu_usage=[0.1, 0.2],
                   mem_usage=[0.2, 0.3])
    columns.update(overrides)
    return columns


class TestSequence:
    def test_generator_builds_columns(self, trace):
        assert isinstance(trace, Trace)
        assert all(isinstance(column, array) for column in trace.columns)
        assert len(trace.columns) == len(FIELDS)

    def test_index_iterate_slice(self, trace):
        rows = list(trace)
        assert len(rows) == len(trace) > 10
        assert all(isinstance(row, Task) for row in rows)
        assert trace[0] == rows[0] and trace[-1] == rows[-1]
        head = trace[:5]
        assert isinstance(head, Trace) and head == rows[:5]
        with pytest.raises(IndexError):
            trace[len(trace)]

    def test_equality(self, trace):
        rows = list(trace)
        assert trace == rows and rows == trace
        assert trace == Trace.from_tasks(rows)
        assert trace != rows[:-1]
        assert trace != tuple(rows)
        assert Trace.from_tasks(trace) is trace

    def test_rows_keep_field_types(self, trace):
        row = trace[0]
        assert type(row.job_id) is int and type(row.start_s) is float

    def test_immutable(self, trace):
        with pytest.raises(AttributeError):
            trace.start_s = array("d")

    def test_memory_transform_shares_untouched_columns(self, trace):
        doubled = double_memory_demand(trace)
        for name in FIELDS:
            shared = getattr(doubled, name) is getattr(trace, name)
            assert shared == (name not in ("mem_request", "mem_usage")), name

    def test_stats_of_list_equal_stats_of_trace(self, trace):
        assert compute_stats(list(trace)) == compute_stats(trace)

    def test_columns_must_agree_in_length(self):
        with pytest.raises(TraceFormatError, match="length"):
            Trace(**_columns(end_s=[5.0]))


class TestTimeValidation:
    """A trace's times must be finite, start at or after 0, end after start."""

    @pytest.mark.parametrize("start,end", [
        (-7200.0, 3600.0),
        (float("nan"), 3600.0),
        (0.0, float("nan")),
        (0.0, float("inf")),
        (float("-inf"), 3600.0),
    ])
    def test_task_rejects_bad_times(self, start, end):
        with pytest.raises(TraceFormatError):
            Task(1, 0, start, end, 0.5, 0.5, 0.5, 0.5)

    def test_negative_start_cannot_wrap_into_the_last_slots(self):
        # A task that validated used to index slots -2 and -1, booking its
        # CPU at the end of the horizon.
        with pytest.raises(TraceFormatError, match="before time 0"):
            aggregate_demand([Task(1, 0, -7200.0, 3600.0, 0.5, 0.5, 0.5, 0.5),
                              Task(2, 0, 0.0, 5 * HOUR, 0.1, 0.1, 0.1, 0.1)])

    @pytest.mark.parametrize("overrides", [
        dict(start_s=[0.0, -1.0]),
        dict(end_s=[5.0, float("inf")]),
        dict(start_s=[0.0, float("nan")]),
        dict(end_s=[5.0, 10.0]),
        dict(cpu_usage=[0.1, float("nan")]),
        dict(mem_request=[0.3, 1.5]),
        dict(mem_usage=[-0.1, 0.3]),
    ])
    def test_trace_raises_task_message_for_first_bad_row(self, overrides):
        columns = _columns(**overrides)
        rows = list(zip(*(columns[name] for name in FIELDS)))
        with pytest.raises(TraceFormatError) as expected:
            for row in rows:
                Task(*row)
        with pytest.raises(TraceFormatError) as got:
            Trace(**columns)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("start,end", [
        ("-7200.0", "3600.0"), ("nan", "3600.0"), ("0.0", "inf"),
    ])
    def test_csv_rejects_bad_times(self, tmp_path, start, end):
        path = tmp_path / "trace.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(FIELDS)
            writer.writerow([1, 0, 0.0, 60.0, 0.1, 0.1, 0.1, 0.1])
            writer.writerow([2, 0, start, end, 0.5, 0.5, 0.5, 0.5])
        with pytest.raises(TraceFormatError):
            trace_from_csv(str(path))

    def test_csv_round_trip_keeps_columns(self, trace, tmp_path):
        path = str(tmp_path / "trace.csv")
        trace_to_csv(trace, path)
        assert trace_from_csv(path).columns == trace.columns
