"""Trace record types, following the Google cluster-usage trace schema.

A *job* is a set of *tasks*; each task runs in a container (treated as a VM
by the paper).  Resource figures are normalized to the capacity of one
server (the Google convention): a task with ``cpu_request=0.25`` books a
quarter of a server's CPU.

A :class:`Task` is one row.  A whole trace is a :class:`Trace`: the same
eight fields stored as ``array`` columns, which is what the generator,
the transforms and demand aggregation work on.  A ``Trace`` is still a
sequence of ``Task`` rows to any caller that indexes or iterates it.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields
from operator import eq, lt
from typing import Iterable, Iterator, Tuple, Union

from repro.errors import TraceFormatError


@dataclass(frozen=True)
class Task:
    """One task (container/VM) execution record."""

    job_id: int
    task_index: int
    start_s: float
    end_s: float
    cpu_request: float      # booked CPU, fraction of one server
    mem_request: float      # booked memory, fraction of one server
    cpu_usage: float        # average actual CPU use, fraction of one server
    mem_usage: float        # average actual memory use, fraction of one server

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start_s) and math.isfinite(self.end_s)):
            raise TraceFormatError(
                f"task {self.job_id}/{self.task_index}: non-finite time "
                f"start_s={self.start_s} end_s={self.end_s}"
            )
        if self.start_s < 0.0:
            raise TraceFormatError(
                f"task {self.job_id}/{self.task_index}: "
                f"start_s={self.start_s} before time 0"
            )
        if self.end_s <= self.start_s:
            raise TraceFormatError(
                f"task {self.job_id}/{self.task_index}: end before start"
            )
        for field in _FRACTIONS:
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise TraceFormatError(
                    f"task {self.job_id}/{self.task_index}: {field}={value} "
                    "out of [0, 1]"
                )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def idle(self) -> bool:
        """Oasis's idle criterion: CPU utilization below 1 %."""
        return self.cpu_usage < 0.01

    def active_at(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


#: Task's fields in declaration order: the CSV header and Trace's columns.
FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(Task))
#: The four resource fields, each a fraction of one server in [0, 1].
_FRACTIONS = FIELDS[4:]
#: ``array`` typecode per column: two integer ids, six doubles.
TYPECODES = ("q", "q") + ("d",) * 6


@dataclass(frozen=True, eq=False, repr=False)
class Trace(Sequence[Task]):
    """An immutable trace stored as one ``array`` column per Task field.

    Indexing gives a :class:`Task`, slicing a ``Trace``, iteration yields
    ``Task`` rows, and ``==`` compares with a ``Trace`` or a list of tasks.
    A column passed in as an ``array`` of the right typecode is kept, not
    copied, so transforms share the columns they do not change; treat
    the columns as read-only.
    """

    job_id: array
    task_index: array
    start_s: array
    end_s: array
    cpu_request: array
    mem_request: array
    cpu_usage: array
    mem_usage: array

    def __post_init__(self) -> None:
        for name, typecode in zip(FIELDS, TYPECODES):
            column = getattr(self, name)
            if not (isinstance(column, array)
                    and column.typecode == typecode):
                object.__setattr__(self, name, array(typecode, column))
        if len({len(column) for column in self.columns}) > 1:
            raise TraceFormatError("trace columns differ in length")
        if self.job_id and not self._valid():
            # Name the first bad row exactly as Task would.
            for row in zip(*self.columns):
                Task(*row)

    def _valid(self) -> bool:
        """Every row passes Task's checks; NaN fails every comparison."""
        start, end = self.start_s, self.end_s
        if not (min(start) >= 0.0 and max(end) < math.inf
                and all(map(lt, start, end))):
            return False
        for name in _FRACTIONS:
            column = getattr(self, name)
            if not (min(column) >= 0.0 and max(column) <= 1.0
                    and not math.isnan(sum(column))):
                return False
        return True

    @classmethod
    def from_tasks(cls, tasks: Iterable[Task]) -> "Trace":
        """The columns of ``tasks``; a ``Trace`` is returned as is."""
        if isinstance(tasks, Trace):
            return tasks
        rows = list(tasks)
        return cls(*([getattr(task, name) for task in rows]
                     for name in FIELDS))

    @property
    def columns(self) -> Tuple[array, ...]:
        """The eight columns, in :data:`FIELDS` order."""
        return (self.job_id, self.task_index, self.start_s, self.end_s,
                self.cpu_request, self.mem_request, self.cpu_usage,
                self.mem_usage)

    def __len__(self) -> int:
        return len(self.job_id)

    def __getitem__(self, index: Union[int, slice]) -> Union[Task, "Trace"]:
        if isinstance(index, slice):
            return Trace(*(column[index] for column in self.columns))
        return Task(*(column[index] for column in self.columns))

    def __iter__(self) -> Iterator[Task]:
        return map(Task, *self.columns)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trace):
            return self.columns == other.columns
        if isinstance(other, list):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Trace({len(self)} tasks)"


@dataclass(frozen=True)
class TraceConfig:
    """Parameters of the synthetic Google-like trace.

    Defaults follow the published trace statistics: mean machine
    utilization well under 50 %, most tasks short, a heavy tail of
    long-running services, and a mild diurnal swing.
    """

    n_servers: int = 1000
    duration_days: float = 7.0
    #: Mean fraction of rack CPU capacity demanded over time.
    cpu_load: float = 0.30
    #: memory:CPU demand ratio of the original trace (the real trace's
    #: normalized booking ratio is ~1.3-1.5; the "modified" set raises
    #: memory demand to 2 x CPU demand).
    mem_to_cpu: float = 1.5
    #: Mean tasks per job (geometric).
    tasks_per_job: float = 4.0
    #: Mean task duration in hours (log-normal-ish mix).
    mean_task_hours: float = 3.0
    #: Fraction of tasks that are idle services (cpu_usage < 1 %).
    idle_fraction: float = 0.12
    #: Diurnal amplitude of arrival rate (0 = flat).
    diurnal_amplitude: float = 0.3
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_servers <= 0 or self.duration_days <= 0:
            raise TraceFormatError("n_servers and duration must be positive")
        if not 0.0 < self.cpu_load < 1.0:
            raise TraceFormatError(f"cpu_load out of (0,1): {self.cpu_load}")
