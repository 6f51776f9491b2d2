"""The controller's replicated state machine.

Pure bookkeeping (no RPC, no fabric): which buffers exist, who serves them,
who uses them and why, which hosts are known / parked in Sz — every fact a
promoted standby must know.  Each mutator journals itself as ``(op, args)``;
the journal is the replication log: the controller offers it to the secondary
at every handler boundary and drops what is acknowledged, and the secondary
replays it through :meth:`BufferDatabase.apply`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.protocol import BufferDescriptor, BufferKind
from repro.errors import BufferError_, ControllerError


class BufferDatabase:
    """Buffer records indexed by id, host and user, plus the host sets."""

    def __init__(self) -> None:
        self._buffers: Dict[int, BufferDescriptor] = {}
        self.zombie_hosts: Set[str] = set()     # currently parked in Sz
        #: Every host ever attached or seen going zombie — the active
        #: ones too, so a promotion does not forget them.
        self.known_hosts: Set[str] = set()
        #: Mutations not yet acknowledged by the standby, oldest first.
        self.journal: Deque[Tuple[str, tuple]] = deque()

    # -- mutations (journaled) ------------------------------------------------
    def add(self, descriptor: BufferDescriptor) -> None:
        if descriptor.buffer_id in self._buffers:
            raise BufferError_(f"duplicate buffer id {descriptor.buffer_id}")
        self._buffers[descriptor.buffer_id] = descriptor
        self.journal.append(("add", (descriptor,)))

    def remove(self, buffer_id: int) -> BufferDescriptor:
        descriptor = self._buffers.pop(buffer_id, None)
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
        self._buffers[buffer_id] = updated
        self.journal.append(("assign", (buffer_id, user, purpose)))
        return updated

    def unassign(self, buffer_id: int) -> BufferDescriptor:
        descriptor = self.get(buffer_id)
        if not descriptor.allocated:
            raise BufferError_(f"buffer {buffer_id} is not allocated")
        updated = descriptor.with_user(None)
        self._buffers[buffer_id] = updated
        self.journal.append(("unassign", (buffer_id,)))
        return updated

    def set_kind(self, buffer_id: int, kind: BufferKind) -> BufferDescriptor:
        """Re-label a buffer when its serving host changes power state."""
        updated = self.get(buffer_id).with_kind(kind)
        self._buffers[buffer_id] = updated
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
        """Replay one journaled mutation (the standby's mirroring path).

        Lenient where the mutators are strict (``add`` overwrites, an
        unknown ``remove`` is a no-op): sequence numbers de-duplicated the
        stream already.  Journals nothing: nobody reads a standby's log.
        """
        buffers = self._buffers
        if op == "add":
            buffers[args[0].buffer_id] = args[0]
        elif op == "remove":
            buffers.pop(args[0], None)
        elif op == "assign":
            buffers[args[0]] = self.get(args[0]).with_user(args[1], args[2])
        elif op == "unassign":
            buffers[args[0]] = self.get(args[0]).with_user(None)
        elif op == "set_kind":
            buffers[args[0]] = self.get(args[0]).with_kind(args[1])
        elif op == "host_add":
            self.known_hosts.add(args[0])
        elif op == "zombie_add":
            self.zombie_hosts.add(args[0])
            self.known_hosts.add(args[0])
        elif op == "zombie_remove":
            self.zombie_hosts.discard(args[0])
        else:
            raise ControllerError(f"unknown mirrored operation {op!r}")

    def adopt(self, other: "BufferDatabase") -> None:
        """Become a copy of ``other``'s state (a promotion's seed); it is
        the new log's origin, so nothing is journaled."""
        self._buffers = dict(other._buffers)
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
        return [b for b in self._buffers.values() if b.host == host]

    def by_user(self, user: str) -> List[BufferDescriptor]:
        return [b for b in self._buffers.values() if b.user == user]

    def free_buffers(self, zombie_first: bool = True) -> List[BufferDescriptor]:
        """Unallocated buffers; zombie-served buffers first when asked.

        "Memory from zombie servers have always higher priority than memory
        from active servers."
        """
        free = [b for b in self._buffers.values() if not b.allocated]
        if zombie_first:
            free.sort(key=lambda b: (b.kind is not BufferKind.ZOMBIE,
                                     b.buffer_id))
        else:
            free.sort(key=lambda b: b.buffer_id)
        return free

    def allocated_count_by_host(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for buffer in self._buffers.values():
            counts.setdefault(buffer.host, 0)
            if buffer.allocated:
                counts[buffer.host] += 1
        return counts

    def free_bytes(self) -> int:
        return sum(b.size_bytes for b in self._buffers.values()
                   if not b.allocated)

    def total_bytes(self) -> int:
        return sum(b.size_bytes for b in self._buffers.values())

    snapshot = all_buffers
