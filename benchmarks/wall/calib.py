"""The calibration kernel: how fast is this machine *right now*?

The sandbox this benchmark runs in is a small shared VM whose speed
drifts by 20-50 % over tens of seconds (a fixed pure-Python loop timed
back to back for a minute shows it; CPU time drifts with wall time, so
it is the core getting slower, not the process being descheduled).  A
10-second wall-clock rate is therefore a reading of the neighbours as
much as of the code.

So every host-time window is bracketed by two *slices* of a fixed
pure-Python kernel, and host times are reported in **calibrated
seconds**: wall time x ``REF_NS`` / (mean time of the bracketing
slices).  A window measured while the machine ran 30 % slow is scaled
back by what the kernel lost over the same moments.  The kernel lives
here, outside ``src/``, so no change to the system can move it; it
mixes integer arithmetic, pointer chasing over a 150 k-object ring
(larger than the caches, like the racks' frame tables) and a
dict/dataclass/sort round of the kind the control plane does, because
the slowdowns hit memory-bound code harder than arithmetic.

The kernel tracks the workloads' own slowdown with r ~ 0.75, which
removes about half of the drift; the rest is why the host-time bounds
in BENCHMARK.json are wide.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

#: One slice on this sandbox at its usual best.  Only a scale: it makes
#: calibrated seconds read like seconds.
REF_NS = 2_400_000


class _Node:
    __slots__ = ("total", "next")

    def __init__(self) -> None:
        self.total = 0
        self.next: Optional["_Node"] = None


@dataclass(frozen=True)
class _Record:
    ident: int
    host: str
    user: Optional[str] = None


class Kernel:
    """A fixed amount of pure-Python work, repeatable for ever."""

    RING = 150_000

    def __init__(self) -> None:
        nodes = [_Node() for _ in range(self.RING)]
        order = list(range(self.RING))
        random.Random(1).shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].next = nodes[there]
        self._nodes = nodes          # keeps the ring alive
        self._cursor = nodes[0]
        self._table: Dict[int, _Record] = {
            i: _Record(i, f"h{i % 7}") for i in range(160)}
        self._journal: List[tuple] = []

    def slice_ns(self) -> int:
        """Run one slice (~2.4 ms); returns how long it took."""
        started = time.perf_counter_ns()
        acc = 0
        for i in range(16_000):
            acc = (acc + i * i) % 1_000_003
        node = self._cursor
        for i in range(5_000):
            node.total += i
            node = node.next
        self._cursor = node
        table, journal = self._table, self._journal
        for _ in range(12):
            free = [r for r in table.values() if r.user is None]
            free.sort(key=lambda r: (r.host, r.ident))
            for record in free[:3]:
                table[record.ident] = replace(record, user="tenant")
                journal.append(("assign", record.ident))
            for record in free[:3]:
                table[record.ident] = record
                journal.append(("unassign", record.ident))
        del journal[:]
        return time.perf_counter_ns() - started

    def speed(self, repeats: int = 3) -> float:
        """Slice time now, in ns: the median of ``repeats`` slices."""
        return sorted(self.slice_ns() for _ in range(repeats))[repeats // 2]


def calibrated_s(wall_ns: float, slice_before: float,
                 slice_after: float) -> float:
    """``wall_ns`` in calibrated seconds, given the bracketing slices."""
    return wall_ns / 1e9 * REF_NS / ((slice_before + slice_after) / 2.0)
