"""Structured event log for rack operations.

An :class:`EventLog` collects timestamped, typed events from the control
plane — Sz transitions, allocations, reclaims, failovers — giving tests and
operators an audit trail of *what the rack did*, independent of the
counters each subsystem keeps.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional


class EventKind(enum.Enum):
    """The control-plane events worth auditing."""

    ZOMBIE_ENTER = "zombie-enter"
    ZOMBIE_EXIT = "zombie-exit"
    BUFFERS_LENT = "buffers-lent"
    BUFFERS_RECLAIMED = "buffers-reclaimed"
    ALLOC_EXT = "alloc-ext"
    ALLOC_SWAP = "alloc-swap"
    BUFFERS_RELEASED = "buffers-released"
    BUFFERS_TRANSFERRED = "buffers-transferred"
    US_RECLAIM = "us-reclaim"
    VM_CREATED = "vm-created"
    VM_DESTROYED = "vm-destroyed"
    VM_MIGRATED = "vm-migrated"
    FAILOVER = "failover"
    HOST_LOST = "host-lost"
    HOST_RECOVERED = "host-recovered"
    BUFFERS_INVALIDATED = "buffers-invalidated"
    REVOKE_FAILED = "revoke-failed"
    CONTROLLER_FENCED = "controller-fenced"
    LEND_DECLINED = "lend-declined"
    EPOCH_SYNC_SKIPPED = "epoch-sync-skipped"
    FED_LENT = "fed-lent"
    FED_RETURNED = "fed-returned"
    FED_IMPORTED = "fed-imported"
    FED_RECALLED = "fed-recalled"


@dataclass(frozen=True, slots=True)
class Event:
    """One audited event."""

    seq: int
    time_s: float
    kind: EventKind
    host: str
    detail: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time_s:10.3f}] #{self.seq} {self.kind.value} " \
               f"{self.host} {extras}".rstrip()


class EventLog:
    """An append-only, queryable event journal.

    Storage is a ``deque(maxlen=capacity)``: past ``capacity`` entries
    the oldest events are dropped (and counted in :attr:`dropped`) in
    O(1), so a 12k-server simulation cannot grow the log without bound.
    ``capacity=None`` makes the log unbounded for short-lived analysis
    runs that must not lose events.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 capacity: Optional[int] = 100_000):
        self._clock = clock or (lambda: 0.0)
        self._events: Deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        #: Duck-typed metrics registry (see :meth:`attach_metrics`); kept
        #: as "anything with a counter() method" so this module never
        #: imports :mod:`repro.obs`.
        self._metrics = None

    def attach_metrics(self, registry) -> None:
        """Bridge this log into a metrics registry.

        Every subsequent :meth:`emit` also increments
        ``rack_events_total{kind=...}`` on ``registry``, so event-kind
        counts reach the Prometheus export even after the ring buffer
        has dropped the events themselves.
        """
        self._metrics = registry

    def emit(self, kind: EventKind, host: str, **detail) -> Event:
        """Record one event (oldest entries are dropped past capacity)."""
        event = Event(seq=self._seq, time_s=self._clock(), kind=kind,
                      host=host, detail=detail)
        self._seq += 1
        self._events.append(event)
        if self._metrics is not None:
            self._metrics.counter("rack_events_total",
                                  "Audit-log events emitted, by kind.",
                                  kind=kind.value).inc()
        return event

    @property
    def dropped(self) -> int:
        """Events emitted but no longer held (the oldest, past capacity)."""
        return self._seq - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def of_kind(self, kind: EventKind) -> List[Event]:
        return [e for e in self._events if e.kind is kind]

    def last(self) -> Optional[Event]:
        return self._events[-1] if self._events else None

    def counts(self) -> Dict[str, int]:
        """Event-kind histogram (telemetry snapshot)."""
        out: Dict[str, int] = {}
        for event in self._events:
            out[event.kind.value] = out.get(event.kind.value, 0) + 1
        return out
