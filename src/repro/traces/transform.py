"""Trace transforms.

The paper derives a second trace set "in which the memory demand is twice
the CPU demand, as the actual trends reveal" — the Fig. 10 (bottom)
configuration.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from typing import Sequence

from repro.errors import TraceFormatError
from repro.traces.schema import Task, Trace


def double_memory_demand(tasks: Sequence[Task]) -> Trace:
    """The paper's modified trace: memory demand = 2 × CPU demand."""
    return scale_demand(tasks, mem_to_cpu=2.0)


def scale_demand(tasks: Sequence[Task], mem_to_cpu: float) -> Trace:
    """Rescale each task's memory so booked memory = ``mem_to_cpu`` × CPU.

    Usage keeps its booked-to-used ratio.  Memory is capped at a full
    server (a task cannot book more memory than one machine holds).  Only
    the two memory columns are computed; the result shares the other six
    with ``tasks``.
    """
    if mem_to_cpu <= 0:
        raise TraceFormatError(f"mem_to_cpu must be positive: {mem_to_cpu}")
    trace = Trace.from_tasks(tasks)
    mem_request = array("d")
    mem_usage = array("d")
    add_request, add_usage = mem_request.append, mem_usage.append
    for cpu_req, mem_req, mem_use in zip(trace.cpu_request,
                                         trace.mem_request, trace.mem_usage):
        usage_ratio = mem_use / mem_req if mem_req > 0 else 0.0
        new_request = min(0.95, cpu_req * mem_to_cpu)
        add_request(round(new_request, 6))
        add_usage(round(new_request * usage_ratio, 6))
    return replace(trace, mem_request=mem_request, mem_usage=mem_usage)
