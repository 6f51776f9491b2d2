"""Trace statistics: the sanity numbers behind the Fig. 10 inputs.

Computes the aggregate properties the synthetic generator promises — mean
booked/used load, the memory:CPU ratio, the idle-task share, task-duration
percentiles, the diurnal swing — so tests and operators can validate a
trace (generated or loaded from CSV) before burning simulation time on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul, sub
from typing import Sequence

from repro.errors import TraceFormatError
from repro.traces.schema import Task, Trace
from repro.units import DAY, HOUR


@dataclass(frozen=True)
class TraceStats:
    """Aggregate statistics of one task trace."""

    tasks: int
    jobs: int
    horizon_s: float
    mean_cpu_booked: float      # time-averaged booked CPU (server units)
    mean_mem_booked: float
    mean_cpu_used: float
    mean_mem_used: float
    idle_task_fraction: float
    duration_p50_s: float
    duration_p90_s: float
    diurnal_peak_to_trough: float

    @property
    def mem_to_cpu_ratio(self) -> float:
        if self.mean_cpu_booked <= 0:
            return 0.0
        return self.mean_mem_booked / self.mean_cpu_booked

    @property
    def usage_to_booking_ratio(self) -> float:
        if self.mean_cpu_booked <= 0:
            return 0.0
        return self.mean_cpu_used / self.mean_cpu_booked


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
    mem_u = sum(map(mul, trace.mem_usage, durations)) / horizon
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
        mean_mem_used=mem_u,
        idle_task_fraction=idle,
        duration_p50_s=_percentile(durations, 0.5),
        duration_p90_s=_percentile(durations, 0.9),
        diurnal_peak_to_trough=swing,
    )


def summarize(tasks: Sequence[Task]) -> str:
    """Human-readable one-screen summary."""
    stats = compute_stats(tasks)
    lines = [
        f"tasks={stats.tasks} jobs={stats.jobs} "
        f"horizon={stats.horizon_s / DAY:.1f} days",
        f"booked: cpu={stats.mean_cpu_booked:.1f} "
        f"mem={stats.mean_mem_booked:.1f} servers "
        f"(mem:cpu={stats.mem_to_cpu_ratio:.2f})",
        f"used:   cpu={stats.mean_cpu_used:.1f} "
        f"mem={stats.mean_mem_used:.1f} servers "
        f"(usage/booking={stats.usage_to_booking_ratio:.2f})",
        f"idle tasks: {stats.idle_task_fraction:.1%}   "
        f"duration p50={stats.duration_p50_s / HOUR:.1f}h "
        f"p90={stats.duration_p90_s / HOUR:.1f}h",
        f"diurnal peak/trough: {stats.diurnal_peak_to_trough:.2f}",
    ]
    return "\n".join(lines)
