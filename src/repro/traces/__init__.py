"""Cluster traces: a synthetic Google-format generator and transforms.

The paper replays the 29-day Google cluster traces (12 583 servers) [56];
those are multi-hundred-GB and proprietary-hosted, so
:mod:`~repro.traces.google` generates a synthetic trace with the published
statistical shape (job/task structure, booked vs. used resources, low
average utilization, diurnal swing), and
:mod:`~repro.traces.transform` builds the paper's second trace set where
memory demand is twice the CPU demand.  A generated or loaded trace is a
columnar :class:`~repro.traces.schema.Trace` whose rows are
:class:`~repro.traces.schema.Task` records.
"""

from repro.traces.schema import Task, Trace, TraceConfig
from repro.traces.google import generate_trace, trace_to_csv, trace_from_csv
from repro.traces.transform import double_memory_demand, scale_demand
from repro.traces.stats import TraceStats, compute_stats

__all__ = [
    "Task", "Trace", "TraceConfig", "generate_trace", "trace_to_csv",
    "trace_from_csv", "double_memory_demand", "scale_demand",
    "TraceStats", "compute_stats",
]
