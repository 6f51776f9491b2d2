"""Per-slot aggregate demand extraction from a task trace.

The energy simulation needs, for every time slot: booked CPU, booked
memory, actual CPU and memory usage, and the idle-task share.  One pass
over the trace's columns and one prefix-sum pass over the slots compute
them all in O(T + S) for T tasks and S slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import TraceFormatError
from repro.traces.schema import Task, Trace
from repro.units import HOUR


@dataclass(frozen=True)
class DemandSlot:
    """Aggregate demand during one time slot (normalized server units)."""

    start_s: float
    duration_s: float
    cpu_booked: float
    mem_booked: float
    cpu_used: float
    mem_used: float
    idle_cpu_booked: float   # bookings of idle (cpu_usage < 1 %) tasks
    idle_mem_booked: float
    task_count: int


def aggregate_demand(tasks: Sequence[Task], slot_s: float = HOUR,
                     duration_s: float = 0.0) -> List[DemandSlot]:
    """Slot-level aggregate demand for ``tasks``.

    ``duration_s`` defaults to the last task end.  Each task contributes
    to every slot it overlaps, weighted by the overlap fraction.  Only a
    task's first and last slot can be partial, so those two are weighted
    here; the full slots between them are one +/- pair in a step array,
    which a single prefix sum resolves.  Summation order differs from a
    per-slot walk, so slot fields agree with one to rounding, not bitwise.

    A :class:`~repro.traces.schema.Trace` keeps its slots per ``(slot_s,
    duration_s)``: its columns never change, and one Fig. 10 sweep asks
    for the modified trace's slots twice.  Each call gets a new list of
    the kept (frozen) slots.
    """
    if slot_s <= 0:
        raise TraceFormatError(f"slot_s must be positive: {slot_s}")
    if not tasks:
        return []
    trace = Trace.from_tasks(tasks)
    key = (slot_s, duration_s)
    slots = trace._demand_slots.get(key)
    if slots is None:
        slots = trace._demand_slots[key] = _aggregate(trace, slot_s,
                                                      duration_s)
    return list(slots)


def _aggregate(trace: Trace, slot_s: float,
               duration_s: float) -> Tuple[DemandSlot, ...]:
    """The slots :func:`aggregate_demand` describes, computed afresh."""
    horizon = duration_s or max(trace.end_s)
    n_slots = max(1, int(horizon / slot_s + 0.999999))
    last_slot = n_slots - 1
    # Partial edge slots land in ``totals``; a task's full middle slots
    # add its values at ``steps[first + 1]`` and remove them at
    # ``steps[last]``.  Rows: cpu_b, mem_b, cpu_u, mem_u, idle_c, idle_m.
    totals = [[0.0] * n_slots for _ in range(6)]
    steps = [[0.0] * n_slots for _ in range(6)]
    counts = [0] * n_slots
    count_steps = [0] * n_slots
    cpu_b, mem_b, cpu_u, mem_u, idle_c, idle_m = totals
    step_cpu_b, step_mem_b, step_cpu_u, step_mem_u, step_idle_c, step_idle_m = (
        steps)
    for start, end, cpu_req, mem_req, cpu_use, mem_use in zip(
            trace.start_s, trace.end_s, trace.cpu_request, trace.mem_request,
            trace.cpu_usage, trace.mem_usage):
        first = int(start / slot_s)
        last = int(end / slot_s)
        if last > last_slot:
            last = last_slot
        if first > last:
            continue
        idle = cpu_use < 0.01
        for slot in ((first,) if first == last else (first, last)):
            slot_start = slot * slot_s
            slot_end = slot_start + slot_s
            # min(end, slot_end) - max(start, slot_start), without calls.
            overlap = ((end if end < slot_end else slot_end)
                       - (start if start > slot_start else slot_start))
            if overlap <= 0:
                continue
            weight = overlap / slot_s
            cpu_b[slot] += cpu_req * weight
            mem_b[slot] += mem_req * weight
            cpu_u[slot] += cpu_use * weight
            mem_u[slot] += mem_use * weight
            if idle:
                idle_c[slot] += cpu_req * weight
                idle_m[slot] += mem_req * weight
            counts[slot] += 1
        if last - first > 1:
            on = first + 1
            step_cpu_b[on] += cpu_req
            step_cpu_b[last] -= cpu_req
            step_mem_b[on] += mem_req
            step_mem_b[last] -= mem_req
            step_cpu_u[on] += cpu_use
            step_cpu_u[last] -= cpu_use
            step_mem_u[on] += mem_use
            step_mem_u[last] -= mem_use
            if idle:
                step_idle_c[on] += cpu_req
                step_idle_c[last] -= cpu_req
                step_idle_m[on] += mem_req
                step_idle_m[last] -= mem_req
            count_steps[on] += 1
            count_steps[last] -= 1
    for total, step in zip(totals, steps):
        _add_prefix_sum(total, step)
    _add_prefix_sum(counts, count_steps)
    return tuple(
        DemandSlot(
            start_s=slot * slot_s, duration_s=slot_s,
            cpu_booked=cpu_b[slot], mem_booked=mem_b[slot],
            cpu_used=cpu_u[slot], mem_used=mem_u[slot],
            idle_cpu_booked=idle_c[slot], idle_mem_booked=idle_m[slot],
            task_count=counts[slot],
        )
        for slot in range(n_slots)
    )


def _add_prefix_sum(total: list, step: list) -> None:
    """``total[i] += step[0] + ... + step[i]``, in place."""
    running = 0
    for slot, delta in enumerate(step):
        running += delta
        total[slot] += running
