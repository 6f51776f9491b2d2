"""Run an access stream against a paging engine and integrate time.

The "engine" is anything exposing ``access(ppn, write) -> seconds`` — a
closure over :meth:`Hypervisor.access` for RAM Ext, or
:meth:`ExplicitSdVm.access` for the Explicit SD path.  Each access also
charges ``compute_s`` of CPU work (the benchmark's own processing), which
sets the baseline against which remote-memory penalty is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Tuple

from repro.errors import ConfigurationError

AccessFn = Callable[[int, bool], float]


@dataclass(frozen=True)
class WorkloadResult:
    """Outcome of one workload run."""

    accesses: int
    sim_time_s: float
    memory_time_s: float
    compute_time_s: float

    def penalty_vs(self, baseline: "WorkloadResult") -> float:
        """Performance penalty relative to ``baseline``.

        "How much longer does the execution take", as a fraction: 0.08
        means 8 % slower.
        """
        if baseline.sim_time_s <= 0:
            raise ConfigurationError("baseline has non-positive sim time")
        return self.sim_time_s / baseline.sim_time_s - 1.0


def run_stream(stream: Iterable[Tuple[int, bool]], access_fn: AccessFn,
               compute_s: float = 0.0, metrics=None,
               workload: str = "workload") -> WorkloadResult:
    """Drive every access in ``stream`` through ``access_fn``.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) records
    the run into ``workload_accesses_total{workload=...}`` and
    ``workload_memory_seconds_total`` / ``workload_compute_seconds_total``
    so benchmark harnesses can assert on the registry.
    """
    if compute_s < 0:
        raise ConfigurationError(f"negative compute_s {compute_s}")
    memory_time = 0.0
    count = 0
    for ppn, is_write in stream:
        memory_time += access_fn(ppn, is_write)
        count += 1
    compute_time = compute_s * count
    if metrics is not None:
        metrics.counter("workload_accesses_total",
                        "Memory accesses driven through a paging engine.",
                        workload=workload).inc(count)
        metrics.counter("workload_memory_seconds_total",
                        "Modelled memory-access time.",
                        workload=workload).inc(memory_time)
        metrics.counter("workload_compute_seconds_total",
                        "Modelled compute time.",
                        workload=workload).inc(compute_time)
    return WorkloadResult(
        accesses=count,
        sim_time_s=memory_time + compute_time,
        memory_time_s=memory_time,
        compute_time_s=compute_time,
    )
