"""Leased remote-memory buffers and the page-slot store built on them.

A *buffer* is the rack's unit of remote memory (uniform ``BUFF_SIZE``); the
global memory controller hands a user server a set of buffer leases, and the
hypervisor's RAM Ext / Explicit SD layers store 4 KiB pages into their slots
through one-sided RDMA verbs.

Stored pages are addressed by *stable keys*, not raw slots: when the
controller revokes a buffer (``US_reclaim``), the store transparently
re-homes that buffer's pages — into free slots of the remaining leases, or
onto the local-storage backup (the paper's footnote-3 mirror) as a slow
fallback — and every outstanding key keeps working.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import BufferError_, RdmaError, SwapError
from repro.rdma.fabric import RdmaNode
from repro.rdma.verbs import QueuePair
from repro.units import MICROSECOND, PAGE_SIZE, pages_to_bytes

#: Latency of serving a page from the local-storage backup (the slow path
#: used after a reclaim left no remote slot for the page).  SSD-class.
LOCAL_FALLBACK_S = 150 * MICROSECOND

#: What every zero page loads back as: one shared constant, never a copy.
ZERO_PAGE = bytes(PAGE_SIZE)

#: Internal location marker for pages living on the local backup.
_LOCAL = ("local", 0)

SlotHandle = Tuple[int, int]


@dataclass(frozen=True)
class BufferLease:
    """One remote buffer granted to a user server by the controller."""

    buffer_id: int
    host: str          # fabric node name of the serving (zombie/active) server
    rkey: int          # registered MR backing the buffer on the host
    size_bytes: int
    zombie: bool       # True when served from an Sz server

    @property
    def slots(self) -> int:
        return self.size_bytes // PAGE_SIZE


class _LeaseState:
    """Mutable per-lease bookkeeping inside the store."""

    def __init__(self, lease: BufferLease, qp: QueuePair):
        self.lease = lease
        self.qp = qp
        self.free_slots: List[int] = list(range(lease.slots - 1, -1, -1))
        self.used_slots: Dict[int, int] = {}  # slot -> key


class RemotePageStore:
    """Page-granular storage across a set of leased remote buffers.

    The store fills leases in the order they were added (the controller
    already ordered them zombie-first) and allocates slots within a lease
    lowest-first.  Whether bytes move is a property of the page: a page
    stored with bytes round-trips them through the MR with one-sided verbs
    and is mirrored to the local backup, which is what makes lease
    revocation safe; a zero page (``store(None)``) pays the same verb but
    copies and mirrors nothing.
    """

    def __init__(self, node: RdmaNode):
        self.node = node
        self._leases: Dict[int, _LeaseState] = {}
        self._order: List[int] = []          # allocation preference order
        self._locations: Dict[int, SlotHandle] = {}   # key -> slot or _LOCAL
        #: The async local-storage mirror, holding exactly the pages that
        #: have bytes; a key missing here is a zero page.
        self._backup: Dict[int, bytes] = {}
        self._keys = itertools.count(1)
        self.pages_stored = 0
        self.pages_loaded = 0
        self.local_fallback_loads = 0
        self.local_fallback_stores = 0
        self.degraded_skips = 0
        #: Pages currently served from the local backup.
        self.fallback_count = 0
        self.time_spent_s = 0.0
        self._fallback_gauge = None
        self._op_counters: Dict[str, object] = {}

    def attach_metrics(self, registry, **labels) -> None:
        """Publish this store's slow-path accounting to a registry.

        Registers the ``page_store_fallback_pages`` gauge (pages pinned
        to the local backup right now — the converted-to-slow-path
        stranding signal ZomAudit's churn analyzer reads) and the
        ``page_store_ops_total{op=...}`` counter family (fallback
        stores/loads, re-homed pages, degraded skips).  Until attached,
        the store keeps only its plain attribute counters.
        """
        self._fallback_gauge = registry.gauge(
            "page_store_fallback_pages",
            "Pages currently served from the local-storage backup.",
            **labels)
        for op in ("fallback_store", "fallback_load", "rehomed",
                   "orphaned", "degraded_skip"):
            self._op_counters[op] = registry.counter(
                "page_store_ops_total",
                "Remote-page-store slow-path operations, by kind.",
                op=op, **labels)

    def _count_op(self, op: str, amount: float = 1.0) -> None:
        counter = self._op_counters.get(op)
        if counter is not None:
            counter.inc(amount)

    def _add_fallbacks(self, delta: int) -> None:
        """Pages entered (``delta > 0``) or left the local backup."""
        self.fallback_count += delta
        if self._fallback_gauge is not None:
            self._fallback_gauge.set(self.fallback_count)

    # -- lease management -------------------------------------------------
    def add_lease(self, lease: BufferLease) -> None:
        if lease.buffer_id in self._leases:
            raise BufferError_(f"duplicate lease for buffer {lease.buffer_id}")
        qp = self.node.connect_qp(lease.host)
        self._leases[lease.buffer_id] = _LeaseState(lease, qp)
        self._order.append(lease.buffer_id)

    def remove_lease(self, buffer_id: int) -> int:
        """Drop a lease (controller revocation) and re-home its pages.

        Pages move to free slots on the remaining leases when possible,
        falling back to the local-storage backup otherwise.  Returns the
        number of pages that had to fall back.
        """
        if buffer_id not in self._leases:
            raise BufferError_(f"unknown buffer lease {buffer_id}")
        return self._rehome(self._drop_leases([buffer_id]))

    def drop_host(self, host: str) -> int:
        """Drop every lease served by ``host`` and re-home their pages.

        The controller's ``US_invalidate`` path: the serving host is dead,
        so all of its leases go at once (re-homing must never target
        another buffer on the same dead host).  Page content comes from
        the local-storage mirror, lands on surviving leases when they have
        room, and stays on the local backup otherwise.  Returns the
        number of pages that had to fall back.
        """
        return self._rehome(self._drop_leases(
            [bid for bid in self._order
             if self._leases[bid].lease.host == host]))

    def rebind(self, node: RdmaNode) -> None:
        """Move this store to another fabric node (VM migration).

        Tears down the source host's queue pairs and reconnects from the
        destination; all page keys, slot state and backups carry over
        untouched — the remote memory itself never moves.
        """
        for state in self._leases.values():
            self.node.pd.destroy_qp(state.qp.qp_num)
            state.qp = node.connect_qp(state.lease.host)
        self.node = node

    def leases(self) -> List[BufferLease]:
        return [self._leases[bid].lease for bid in self._order]

    def lease_ids(self) -> List[int]:
        return list(self._order)

    @property
    def total_slots(self) -> int:
        return sum(s.lease.slots for s in self._leases.values())

    @property
    def free_slot_count(self) -> int:
        return sum(len(s.free_slots) for s in self._leases.values())

    @property
    def used_slot_count(self) -> int:
        return sum(len(s.used_slots) for s in self._leases.values())

    # -- page operations ----------------------------------------------------
    def store(self, data: Optional[bytes] = None) -> Tuple[int, float]:
        """Write one page; returns ``(stable key, seconds)``.

        ``data=None`` stores a zero page: it pays the full ``PAGE_SIZE``
        verb but moves, scans and mirrors no bytes.
        """
        payload = self._page_payload(data)
        key = next(self._keys)
        placed = self._place(payload, key=key)
        if placed is None:
            raise SwapError("remote page store exhausted (no free slots)")
        return key, self._settle(key, payload, *placed)

    def store_fallback(self, data: Optional[bytes] = None) -> Tuple[int, float]:
        """Store a page on the local backup (the slow path).

        Used when every lease is full — e.g. right after a reclaim took
        buffers away.  The page is served from local storage until
        :meth:`restore_fallbacks` finds it a remote slot again.
        """
        payload = self._page_payload(data)
        key = next(self._keys)
        return key, self._settle(key, payload, _LOCAL, LOCAL_FALLBACK_S)

    def exchange(self, key: Optional[int], data: Optional[bytes] = None
                 ) -> Tuple[Optional[bytes], int, float, float]:
        """One fault's traffic in one call: read page ``key`` back and
        free it, then store ``data`` (None: a zero page).

        The new page takes the first free slot in lease order — the one
        just freed when its lease comes first — and falls back to the
        local backup when no reachable lease has room.  ``key=None``
        only stores.  The read goes first, so a refused read leaves the
        store as it was.  Returns ``(bytes read or None, new key, read
        seconds, write seconds)``.
        """
        payload = self._page_payload(data)
        loaded, read_s = None, 0.0
        if key is not None:
            loaded, read_s = self.load(key)
            self.free(key)
        new_key = next(self._keys)
        placed = self._place(payload, new_key) or (_LOCAL, LOCAL_FALLBACK_S)
        return loaded, new_key, read_s, self._settle(new_key, payload,
                                                     *placed)

    def restore_fallbacks(self) -> int:
        """Move local-fallback pages back into free remote slots.

        Returns the number of pages restored; call after attaching fresh
        leases (the manager's repair path).
        """
        restored = 0
        for key, location in list(self._locations.items()):
            if location != _LOCAL:
                continue
            placed = self._place(self._backup.get(key), key=key)
            if placed is None:
                break  # still no room; remaining pages stay local
            self._locations[key] = placed[0]
            self.time_spent_s += placed[1]
            restored += 1
        self._count_op("rehomed", restored)
        self._add_fallbacks(-restored)
        return restored

    def load(self, key: int) -> Tuple[bytes, float]:
        """Read one page back; returns ``(data, seconds)``.

        A zero page comes back as :data:`ZERO_PAGE` after paying the
        verb; a page with bytes is read out of the MR.
        """
        handle = self._location(key)
        payload = self._backup.get(key)
        if handle == _LOCAL:
            data = ZERO_PAGE if payload is None else payload
            elapsed = LOCAL_FALLBACK_S
            self.local_fallback_loads += 1
            self._count_op("fallback_load")
        else:
            buffer_id, slot = handle
            state = self._leases[buffer_id]
            if payload is None:
                data = ZERO_PAGE
                _, elapsed = self.node.verb(state.qp, state.lease.rkey,
                                            pages_to_bytes(slot), PAGE_SIZE,
                                            write=False)
            else:
                data, elapsed = self.node.rdma_read_timed(
                    state.qp, state.lease.rkey, pages_to_bytes(slot),
                    PAGE_SIZE
                )
        self.pages_loaded += 1
        self.time_spent_s += elapsed
        return data, elapsed

    def free(self, key: int) -> None:
        """Release a stored page (and its backup copy)."""
        handle = self._location(key)
        if handle == _LOCAL:
            self._add_fallbacks(-1)
        else:
            buffer_id, slot = handle
            state = self._leases[buffer_id]
            del state.used_slots[slot]
            state.free_slots.append(slot)
        del self._locations[key]
        self._backup.pop(key, None)

    # -- helpers ---------------------------------------------------------
    def _settle(self, key: int, payload: Optional[bytes],
                handle: SlotHandle, elapsed: float) -> float:
        """Record a page just stored at ``handle``; returns ``elapsed``."""
        self._locations[key] = handle
        if payload is not None:
            self._backup[key] = payload
        self.pages_stored += 1
        if handle is _LOCAL:
            self.local_fallback_stores += 1
            self._count_op("fallback_store")
            self._add_fallbacks(1)
        self.time_spent_s += elapsed
        return elapsed

    def _place(self, payload: Optional[bytes], key: int):
        """Write ``payload`` (None: a zero page) for ``key`` into the
        first free slot.

        Degraded-mode allocation order: a lease whose serving host is
        unreachable (crashed/partitioned, but not yet invalidated by the
        controller) is *skipped* rather than failing the store — the page
        lands on the next surviving lease, or the caller falls back to the
        local mirror.  Returns ``((buffer_id, slot), elapsed)``, or None
        when no reachable lease has a free slot.
        """
        for buffer_id in self._order:
            state = self._leases[buffer_id]
            if not state.free_slots:
                continue
            slot = state.free_slots.pop()
            try:
                if payload is None:
                    _, elapsed = self.node.verb(
                        state.qp, state.lease.rkey, pages_to_bytes(slot),
                        PAGE_SIZE, write=True)
                else:
                    elapsed = self.node.rdma_write_timed(
                        state.qp, state.lease.rkey, pages_to_bytes(slot),
                        payload)
            except RdmaError:
                state.free_slots.append(slot)
                self.degraded_skips += 1
                self._count_op("degraded_skip")
                continue
            state.used_slots[slot] = key
            return (buffer_id, slot), elapsed
        return None

    def _drop_leases(self, buffer_ids: List[int]) -> List[int]:
        """Forget ``buffer_ids``; returns their page keys, slot order."""
        stranded: List[int] = []
        for buffer_id in buffer_ids:
            state = self._leases.pop(buffer_id)
            self._order.remove(buffer_id)
            self.node.pd.destroy_qp(state.qp.qp_num)
            stranded.extend(key for _, key in sorted(state.used_slots.items()))
        return stranded

    def _rehome(self, keys: Iterable[int]) -> int:
        """Place each key from its mirror, or leave it on the local
        backup; returns the number of pages left on the backup."""
        rehomed = fallbacks = 0
        for key in keys:
            placed = self._place(self._backup.get(key), key=key)
            if placed is None:
                self._locations[key] = _LOCAL
                fallbacks += 1
            else:
                self._locations[key] = placed[0]
                self.time_spent_s += placed[1]
                rehomed += 1
        self._count_op("rehomed", rehomed)
        self._count_op("orphaned", fallbacks)
        self._add_fallbacks(fallbacks)
        return fallbacks

    def _location(self, key: int) -> SlotHandle:
        handle = self._locations.get(key)
        if handle is None:
            raise BufferError_(f"unknown page key {key}")
        return handle

    @staticmethod
    def _page_payload(data: Optional[bytes]) -> Optional[bytes]:
        """``data`` padded to a page; None stays None (a zero page)."""
        if data is None:
            return None
        if len(data) > PAGE_SIZE:
            raise SwapError(
                f"page payload of {len(data)} bytes exceeds PAGE_SIZE"
            )
        if len(data) < PAGE_SIZE:
            return data + bytes(PAGE_SIZE - len(data))
        return data
