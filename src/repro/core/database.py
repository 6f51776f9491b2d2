"""The controller's replicated state machine.

Pure bookkeeping (no RPC, no fabric): which buffers exist, who serves them,
who uses them and why, which hosts are known / parked in Sz — every fact a
promoted standby must know.  Each mutator journals itself as ``(op, args)``;
the journal is the replication log: the controller offers it to the secondary
at every handler boundary and drops what is acknowledged, and the secondary
replays each entry through :meth:`BufferDatabase.apply` — that is, through
the very mutator that journaled it, checks and all.

The pool is indexed, not scanned: records per serving host, the free
buffers bucketed by (zombie tier, serving host) in ascending id order, and
the free and total byte counts.  Every write — journaled, replayed or
adopted — goes through the private :meth:`BufferDatabase._put` /
:meth:`BufferDatabase._pop` pair, so a standby's replica keeps the same
indexes and a promotion inherits them.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from heapq import merge
from itertools import islice
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.protocol import BufferDescriptor, BufferKind
from repro.errors import BufferError_, ControllerError

#: The mutators that journal themselves: the names a mirrored entry may carry.
_JOURNALED = frozenset({"add", "remove", "assign", "unassign", "set_kind",
                        "host_add", "zombie_add", "zombie_remove"})


class BufferDatabase:
    """Buffer records indexed by id, host and free tier, plus the host sets."""

    def __init__(self) -> None:
        self._buffers: Dict[int, BufferDescriptor] = {}
        #: host -> {buffer id: record}, in ``_buffers`` order.
        self._by_host: Dict[str, Dict[int, BufferDescriptor]] = {}
        #: Unallocated buffers: zombie tier? -> serving host -> ascending
        #: ids.  An emptied bucket is dropped.
        self._free: Dict[bool, Dict[str, List[int]]] = {True: {}, False: {}}
        self._free_bytes: Dict[bool, int] = {True: 0, False: 0}
        self._total_bytes = 0
        self.zombie_hosts: Set[str] = set()     # currently parked in Sz
        #: Every host ever attached or seen going zombie — the active
        #: ones too, so a promotion does not forget them.
        self.known_hosts: Set[str] = set()
        #: Mutations not yet acknowledged by the standby, oldest first.
        self.journal: Deque[Tuple[str, tuple]] = deque()

    # -- the indexed store ------------------------------------------------
    def _put(self, descriptor: BufferDescriptor) -> None:
        """Store ``descriptor`` (a new record or its id's replacement on the
        same host) and index it; a replacement keeps its record's place in
        every order."""
        buffer_id = descriptor.buffer_id
        old = self._buffers.get(buffer_id)
        if old is None:
            self._total_bytes += descriptor.size_bytes
        else:
            self._total_bytes += descriptor.size_bytes - old.size_bytes
            if not old.allocated:
                self._unfree(old)
        self._buffers[buffer_id] = descriptor
        self._by_host.setdefault(descriptor.host, {})[buffer_id] = descriptor
        if not descriptor.allocated:
            zombie = descriptor.kind is BufferKind.ZOMBIE
            bucket = self._free[zombie].setdefault(descriptor.host, [])
            insort(bucket, buffer_id)
            self._free_bytes[zombie] += descriptor.size_bytes

    def _pop(self, buffer_id: int) -> Optional[BufferDescriptor]:
        """Drop a record and un-index it; ``None`` if the id is unknown."""
        descriptor = self._buffers.pop(buffer_id, None)
        if descriptor is None:
            return None
        self._total_bytes -= descriptor.size_bytes
        hosted = self._by_host[descriptor.host]
        del hosted[buffer_id]
        if not hosted:
            del self._by_host[descriptor.host]
        if not descriptor.allocated:
            self._unfree(descriptor)
        return descriptor

    def _unfree(self, descriptor: BufferDescriptor) -> None:
        """Take a free record out of its bucket (``_put``/``_pop`` only)."""
        zombie = descriptor.kind is BufferKind.ZOMBIE
        tier = self._free[zombie]
        bucket = tier[descriptor.host]
        del bucket[bisect_left(bucket, descriptor.buffer_id)]
        if not bucket:
            del tier[descriptor.host]
        self._free_bytes[zombie] -= descriptor.size_bytes

    # -- mutations (journaled) ------------------------------------------------
    def add(self, descriptor: BufferDescriptor) -> None:
        if descriptor.buffer_id in self._buffers:
            raise BufferError_(f"duplicate buffer id {descriptor.buffer_id}")
        self._put(descriptor)
        self.journal.append(("add", (descriptor,)))

    def remove(self, buffer_id: int) -> BufferDescriptor:
        descriptor = self._pop(buffer_id)
        if descriptor is None:
            raise BufferError_(f"unknown buffer id {buffer_id}")
        self.journal.append(("remove", (buffer_id,)))
        return descriptor

    def assign(self, buffer_id: int, user: str,
               purpose: Optional[str] = None) -> BufferDescriptor:
        descriptor = self.get(buffer_id)
        if descriptor.allocated:
            raise BufferError_(
                f"buffer {buffer_id} already allocated to {descriptor.user!r}"
            )
        updated = descriptor.with_user(user, purpose)
        self._put(updated)
        self.journal.append(("assign", (buffer_id, user, purpose)))
        return updated

    def unassign(self, buffer_id: int) -> BufferDescriptor:
        descriptor = self.get(buffer_id)
        if not descriptor.allocated:
            raise BufferError_(f"buffer {buffer_id} is not allocated")
        updated = descriptor.with_user(None)
        self._put(updated)
        self.journal.append(("unassign", (buffer_id,)))
        return updated

    def set_kind(self, buffer_id: int, kind: BufferKind) -> BufferDescriptor:
        """Re-label a buffer when its serving host changes power state."""
        updated = self.get(buffer_id).with_kind(kind)
        self._put(updated)
        self.journal.append(("set_kind", (buffer_id, kind)))
        return updated

    def host_add(self, host: str) -> None:
        """Remember ``host``; a host already known journals nothing."""
        if host not in self.known_hosts:
            self.known_hosts.add(host)
            self.journal.append(("host_add", (host,)))

    def zombie_add(self, host: str) -> None:
        self.zombie_hosts.add(host)
        self.known_hosts.add(host)
        self.journal.append(("zombie_add", (host,)))

    def zombie_remove(self, host: str) -> None:
        self.zombie_hosts.discard(host)
        self.journal.append(("zombie_remove", (host,)))

    def apply(self, op: str, args: tuple) -> None:
        """Replay one journaled mutation through the mutator that journaled
        it (the standby's mirroring path), with the primary's own checks:
        a diverged replica refuses the entry with ``BufferError_``.  The
        replay's own journal entry is dropped: nobody reads a standby's log.
        """
        if op not in _JOURNALED:
            raise ControllerError(f"unknown mirrored operation {op!r}")
        getattr(self, op)(*args)
        self.journal.clear()

    def adopt(self, other: "BufferDatabase") -> None:
        """Become a copy of ``other``'s state (a promotion's seed); it is
        the new log's origin, so nothing is journaled."""
        for buffer_id in list(self._buffers):
            self._pop(buffer_id)
        for descriptor in other._buffers.values():
            self._put(descriptor)
        self.zombie_hosts = set(other.zombie_hosts)
        self.known_hosts = set(other.known_hosts)

    # -- queries --------------------------------------------------------
    def get(self, buffer_id: int) -> BufferDescriptor:
        descriptor = self._buffers.get(buffer_id)
        if descriptor is None:
            raise BufferError_(f"unknown buffer id {buffer_id}")
        return descriptor

    def __len__(self) -> int:
        return len(self._buffers)

    def __contains__(self, buffer_id: int) -> bool:
        return buffer_id in self._buffers

    def all_buffers(self) -> List[BufferDescriptor]:
        return list(self._buffers.values())

    def by_host(self, host: str) -> List[BufferDescriptor]:
        return list(self._by_host.get(host, {}).values())

    def by_user(self, user: str) -> List[BufferDescriptor]:
        return [b for b in self._buffers.values() if b.user == user]

    def free_buckets(self, zombie: bool) -> Dict[str, List[int]]:
        """One tier's free buckets: serving host -> its unallocated buffer
        ids, ascending.  The zombie tier is ``kind is ZOMBIE``; the other
        holds every other kind.  A live view: read it, never write it."""
        return self._free[zombie]

    def free_in_tier(self, zombie: bool,
                     limit: Optional[int] = None) -> List[BufferDescriptor]:
        """A tier's unallocated buffers by ascending id, the first
        ``limit`` of them when given."""
        ids = merge(*self._free[zombie].values())
        return [self._buffers[i] for i in islice(ids, limit)]

    def free_buffers(self, zombie_first: bool = True) -> List[BufferDescriptor]:
        """Unallocated buffers; zombie-served buffers first when asked.

        "Memory from zombie servers have always higher priority than memory
        from active servers."
        """
        if zombie_first:
            return self.free_in_tier(True) + self.free_in_tier(False)
        ids = merge(*self._free[True].values(), *self._free[False].values())
        return [self._buffers[i] for i in ids]

    def free_zombie_totals(self) -> Tuple[int, int]:
        """``(buffers, bytes)`` unallocated in the zombie tier."""
        return (sum(len(b) for b in self._free[True].values()),
                self._free_bytes[True])

    def allocated_count_by_host(self) -> Dict[str, int]:
        free_zombie, free_other = self._free[True], self._free[False]
        return {host: len(hosted) - len(free_zombie.get(host, ()))
                - len(free_other.get(host, ()))
                for host, hosted in self._by_host.items()}

    def free_bytes(self) -> int:
        return self._free_bytes[True] + self._free_bytes[False]

    def total_bytes(self) -> int:
        return self._total_bytes

    snapshot = all_buffers
