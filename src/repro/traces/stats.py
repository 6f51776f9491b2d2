"""Trace statistics: the sanity numbers behind the Fig. 10 inputs.

Computes the aggregate properties the synthetic generator promises — mean
booked load and used CPU, the idle-task share, the median task duration,
the diurnal swing — so tests can validate a trace (generated or loaded
from CSV) before burning simulation time on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul, sub
from typing import Sequence

from repro.errors import TraceFormatError
from repro.traces.schema import Task, Trace
from repro.units import HOUR


@dataclass(frozen=True)
class TraceStats:
    """Aggregate statistics of one task trace."""

    tasks: int
    jobs: int
    horizon_s: float
    mean_cpu_booked: float      # time-averaged booked CPU (server units)
    mean_mem_booked: float
    mean_cpu_used: float
    idle_task_fraction: float
    duration_p50_s: float
    diurnal_peak_to_trough: float


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def compute_stats(tasks: Sequence[Task]) -> TraceStats:
    """Compute :class:`TraceStats` for ``tasks``, reading its columns."""
    if not tasks:
        raise TraceFormatError("cannot compute statistics of an empty trace")
    trace = Trace.from_tasks(tasks)
    starts, ends, cpu_req = trace.start_s, trace.end_s, trace.cpu_request
    horizon = max(ends)
    durations = list(map(sub, ends, starts))
    cpu_b = sum(map(mul, cpu_req, durations)) / horizon
    mem_b = sum(map(mul, trace.mem_request, durations)) / horizon
    cpu_u = sum(map(mul, trace.cpu_usage, durations)) / horizon
    durations.sort()
    idle = sum(usage < 0.01 for usage in trace.cpu_usage) / len(trace)

    # Diurnal swing: booked CPU per hour-of-day bucket, weighted by overlap.
    buckets = [0.0] * 24
    for start_s, end_s, cpu in zip(starts, ends, cpu_req):
        first = int(start_s // HOUR)
        last = int((end_s - 1e-9) // HOUR)
        for hour_index in range(first, last + 1):
            start = hour_index * HOUR
            overlap = min(end_s, start + HOUR) - max(start_s, start)
            if overlap > 0:
                buckets[hour_index % 24] += cpu * overlap
    peak, trough = max(buckets), min(buckets)
    swing = peak / trough if trough > 0 else float("inf")

    return TraceStats(
        tasks=len(trace),
        jobs=len(set(trace.job_id)),
        horizon_s=horizon,
        mean_cpu_booked=cpu_b,
        mean_mem_booked=mem_b,
        mean_cpu_used=cpu_u,
        idle_task_fraction=idle,
        duration_p50_s=_percentile(durations, 0.5),
        diurnal_peak_to_trough=swing,
    )
