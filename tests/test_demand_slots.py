"""Difference-array demand slots against the per-(task, slot) oracle.

``aggregate_demand`` weights each task's two partial edge slots and folds
its full middle slots into a step array.  The oracle below is the direct
definition it replaced: walk every slot a task overlaps and add the
task's values weighted by the overlap fraction.  Summation order differs
between the two, so float fields agree to rounding; ``task_count`` must
agree exactly.
"""

import math
from typing import List

from hypothesis import example, given, settings, strategies as st

from repro.dc.datacenter import DemandSlot, aggregate_demand
from repro.traces.schema import Task, Trace
from repro.units import HOUR

FLOAT_FIELDS = ("start_s", "duration_s", "cpu_booked", "mem_booked",
                "cpu_used", "mem_used", "idle_cpu_booked", "idle_mem_booked")


def reference_demand(tasks: List[Task], slot_s: float = HOUR,
                     duration_s: float = 0.0) -> List[DemandSlot]:
    """The per-(task, slot) walk: O(sum of each task's slot span)."""
    if not tasks:
        return []
    horizon = duration_s or max(task.end_s for task in tasks)
    n_slots = max(1, int(horizon / slot_s + 0.999999))
    fields = [[0.0] * n_slots for _ in range(6)]
    counts = [0] * n_slots
    (cpu_b, mem_b, cpu_u, mem_u, idle_c, idle_m) = fields
    for task in tasks:
        first = int(task.start_s / slot_s)
        last = min(n_slots - 1, int(task.end_s / slot_s))
        for slot in range(first, last + 1):
            slot_start = slot * slot_s
            overlap = (min(task.end_s, slot_start + slot_s)
                       - max(task.start_s, slot_start))
            if overlap <= 0:
                continue
            weight = overlap / slot_s
            cpu_b[slot] += task.cpu_request * weight
            mem_b[slot] += task.mem_request * weight
            cpu_u[slot] += task.cpu_usage * weight
            mem_u[slot] += task.mem_usage * weight
            if task.idle:
                idle_c[slot] += task.cpu_request * weight
                idle_m[slot] += task.mem_request * weight
            counts[slot] += 1
    return [
        DemandSlot(
            start_s=slot * slot_s, duration_s=slot_s,
            cpu_booked=cpu_b[slot], mem_booked=mem_b[slot],
            cpu_used=cpu_u[slot], mem_used=mem_u[slot],
            idle_cpu_booked=idle_c[slot], idle_mem_booked=idle_m[slot],
            task_count=counts[slot],
        )
        for slot in range(n_slots)
    ]


def assert_slots_agree(got: List[DemandSlot], want: List[DemandSlot]):
    assert len(got) == len(want)
    for index, (a, b) in enumerate(zip(got, want)):
        assert a.task_count == b.task_count, index
        for name in FLOAT_FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12), (
                index, name, x, y)


def _task(start, end, cpu=0.2, mem=0.3, cpu_u=0.1, mem_u=0.2, index=0):
    return Task(1, index, start, end, cpu, mem, cpu_u, mem_u)


fraction = st.floats(0.0, 1.0)


@st.composite
def task_lists(draw):
    n = draw(st.integers(1, 25))
    tasks = []
    for index in range(n):
        start = draw(st.floats(0.0, 40_000.0))
        length = draw(st.floats(1e-3, 30_000.0))
        # A boundary-aligned end exercises the zero-overlap edge slot.
        if draw(st.booleans()):
            end = math.ceil((start + length) / 900.0) * 900.0
        else:
            end = start + length
        if end <= start:
            continue
        tasks.append(Task(1, index, start, end, draw(fraction),
                          draw(fraction),
                          draw(st.sampled_from([0.0, 0.005, 0.5, 1.0])),
                          draw(fraction)))
    return tasks


slot_sizes = st.one_of(st.sampled_from([60.0, 900.0, HOUR, 2 * HOUR]),
                       st.floats(50.0, 20_000.0))
horizons = st.one_of(st.just(0.0), st.floats(1.0, 80_000.0))


@settings(max_examples=300, deadline=None)
@given(tasks=task_lists(), slot_s=slot_sizes, duration_s=horizons)
# A task ending exactly on a slot boundary.
@example(tasks=[_task(0.0, 2 * HOUR), _task(HOUR / 2, 3 * HOUR)],
         slot_s=HOUR, duration_s=0.0)
# A task shorter than one slot, inside one slot.
@example(tasks=[_task(600.0, 1200.0), _task(0.0, 4 * HOUR)],
         slot_s=HOUR, duration_s=0.0)
# A task starting in the last slot.
@example(tasks=[_task(0.0, 3 * HOUR), _task(2.5 * HOUR, 2.9 * HOUR)],
         slot_s=HOUR, duration_s=0.0)
# An explicit horizon shorter than the last end truncates the tail.
@example(tasks=[_task(0.0, 5 * HOUR), _task(3.2 * HOUR, 9 * HOUR)],
         slot_s=HOUR, duration_s=2.5 * HOUR)
# A one-slot horizon.
@example(tasks=[_task(0.0, HOUR / 3), _task(HOUR / 4, HOUR, cpu_u=0.0)],
         slot_s=HOUR, duration_s=0.0)
def test_difference_array_matches_reference(tasks, slot_s, duration_s):
    got = aggregate_demand(tasks, slot_s=slot_s, duration_s=duration_s)
    assert_slots_agree(got, reference_demand(tasks, slot_s, duration_s))


def test_list_and_trace_give_the_same_slots():
    tasks = [_task(0.0, 5 * HOUR), _task(1.5 * HOUR, 2.25 * HOUR, index=1),
             _task(HOUR, 7 * HOUR, cpu_u=0.001, index=2)]
    assert (aggregate_demand(tasks)
            == aggregate_demand(Trace.from_tasks(tasks)))


def test_long_task_counts_in_every_middle_slot():
    slots = aggregate_demand([_task(HOUR / 2, 10.5 * HOUR)], slot_s=HOUR)
    assert [slot.task_count for slot in slots] == [1] * 11
    assert [slot.cpu_booked for slot in slots[1:10]] == [0.2] * 9
    assert slots[0].cpu_booked == slots[10].cpu_booked == 0.1
