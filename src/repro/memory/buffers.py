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
from typing import Dict, List, Optional, Tuple

from repro.errors import BufferError_, RdmaError, SwapError
from repro.rdma.fabric import RdmaNode
from repro.rdma.verbs import QueuePair
from repro.units import MICROSECOND, PAGE_SIZE, pages_to_bytes

#: Latency of serving a page from the local-storage backup (the slow path
#: used after a reclaim left no remote slot for the page).  SSD-class.
LOCAL_FALLBACK_S = 150 * MICROSECOND

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
    already ordered them zombie-first), allocates slots within a lease
    lowest-first, and moves real bytes with one-sided verbs so content
    round-trips are honest.  Every write is mirrored to the local backup,
    which is what makes lease revocation safe.
    """

    def __init__(self, node: RdmaNode, transfer_content: bool = True):
        self.node = node
        #: With ``transfer_content=False`` the store skips the byte-level MR
        #: transfers and only simulates timing + slot bookkeeping — the fast
        #: mode large experiment sweeps use.  Power-state gating still
        #: applies either way.
        self.transfer_content = transfer_content
        self._leases: Dict[int, _LeaseState] = {}
        self._order: List[int] = []          # allocation preference order
        self._locations: Dict[int, SlotHandle] = {}   # key -> slot or _LOCAL
        self._backup: Dict[int, bytes] = {}  # the async local-storage mirror
        self._keys = itertools.count(1)
        self.pages_stored = 0
        self.pages_loaded = 0
        self.local_fallback_loads = 0
        self.local_fallback_stores = 0
        self.degraded_skips = 0
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

    def _sync_fallback_gauge(self) -> None:
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
        state = self._leases.pop(buffer_id, None)
        if state is None:
            raise BufferError_(f"unknown buffer lease {buffer_id}")
        self._order.remove(buffer_id)
        self.node.pd.destroy_qp(state.qp.qp_num)
        fallbacks = 0
        for slot, key in sorted(state.used_slots.items()):
            data = self._backup.get(key, bytes(PAGE_SIZE))
            placed = self._place(data, key=key)
            if placed is None:
                self._locations[key] = _LOCAL
                fallbacks += 1
                self._count_op("orphaned")
            else:
                self._locations[key] = placed[0]
                self.time_spent_s += placed[1]
                self._count_op("rehomed")
        self._sync_fallback_gauge()
        return fallbacks

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

    @property
    def stored_pages(self) -> int:
        return len(self._locations)

    # -- page operations ----------------------------------------------------
    def store(self, data: Optional[bytes] = None) -> Tuple[int, float]:
        """Write one page; returns ``(stable key, seconds)``."""
        payload = self._page_payload(data)
        key = next(self._keys)
        placed = self._place(payload, key=key)
        if placed is None:
            raise SwapError("remote page store exhausted (no free slots)")
        handle, elapsed = placed
        self._locations[key] = handle
        if self.transfer_content and payload.count(0) != len(payload):
            self._backup[key] = payload  # mirror non-zero pages only
        self.pages_stored += 1
        self.time_spent_s += elapsed
        return key, elapsed

    def store_fallback(self, data: Optional[bytes] = None) -> Tuple[int, float]:
        """Store a page on the local backup (the slow path).

        Used when every lease is full — e.g. right after a reclaim took
        buffers away.  The page is served from local storage until
        :meth:`restore_fallbacks` finds it a remote slot again.
        """
        payload = self._page_payload(data)
        key = next(self._keys)
        self._locations[key] = _LOCAL
        if payload.count(0) != len(payload):
            self._backup[key] = payload
        self.pages_stored += 1
        self.local_fallback_stores += 1
        self._count_op("fallback_store")
        self._sync_fallback_gauge()
        self.time_spent_s += LOCAL_FALLBACK_S
        return key, LOCAL_FALLBACK_S

    @property
    def fallback_count(self) -> int:
        """Pages currently served from the local backup."""
        return sum(1 for loc in self._locations.values() if loc == _LOCAL)

    def restore_fallbacks(self) -> int:
        """Move local-fallback pages back into free remote slots.

        Returns the number of pages restored; call after attaching fresh
        leases (the manager's repair path).
        """
        restored = 0
        for key, location in list(self._locations.items()):
            if location != _LOCAL:
                continue
            data = self._backup.get(key, self._ZERO_PAGE)
            placed = self._place(data, key=key)
            if placed is None:
                break  # still no room; remaining pages stay local
            self._locations[key] = placed[0]
            self.time_spent_s += placed[1]
            restored += 1
        self._count_op("rehomed", restored)
        self._sync_fallback_gauge()
        return restored

    def load(self, key: int) -> Tuple[bytes, float]:
        """Read one page back; returns ``(data, seconds)``."""
        handle = self._location(key)
        if handle == _LOCAL:
            data = self._backup.get(key, bytes(PAGE_SIZE))
            elapsed = LOCAL_FALLBACK_S
            self.local_fallback_loads += 1
            self._count_op("fallback_load")
        else:
            buffer_id, slot = handle
            state = self._leases[buffer_id]
            if self.transfer_content:
                data, elapsed = self.node.rdma_read_timed(
                    state.qp, state.lease.rkey, pages_to_bytes(slot),
                    PAGE_SIZE
                )
            else:
                data, elapsed = self._fast_verb(state, PAGE_SIZE, read=True)
        self.pages_loaded += 1
        self.time_spent_s += elapsed
        return data, elapsed

    def free(self, key: int) -> None:
        """Release a stored page (and its backup copy)."""
        handle = self._location(key)
        if handle != _LOCAL:
            buffer_id, slot = handle
            state = self._leases[buffer_id]
            del state.used_slots[slot]
            state.free_slots.append(slot)
        del self._locations[key]
        self._backup.pop(key, None)
        if handle == _LOCAL:
            self._sync_fallback_gauge()

    # -- helpers ---------------------------------------------------------
    def _place(self, payload: bytes, key: int):
        """Write ``payload`` for ``key`` into the first free slot.

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
                if self.transfer_content:
                    elapsed = self.node.rdma_write_timed(
                        state.qp, state.lease.rkey, pages_to_bytes(slot),
                        payload
                    )
                else:
                    _, elapsed = self._fast_verb(state, len(payload),
                                                 read=False)
            except RdmaError:
                state.free_slots.append(slot)
                self.degraded_skips += 1
                self._count_op("degraded_skip")
                continue
            state.used_slots[slot] = key
            return (buffer_id, slot), elapsed
        return None

    def drop_host(self, host: str) -> Tuple[int, int]:
        """Drop every lease served by ``host`` and re-home their pages.

        The controller's ``US_invalidate`` path: the serving host is dead,
        so all of its leases go at once (re-homing must never target
        another buffer on the same dead host).  Page content comes from
        the local-storage mirror, lands on surviving leases when they have
        room, and stays on the local backup otherwise.  Returns
        ``(pages_rehomed, pages_fallback)``.
        """
        doomed = [bid for bid in self._order
                  if self._leases[bid].lease.host == host]
        stranded: List[int] = []
        for buffer_id in doomed:
            state = self._leases.pop(buffer_id)
            self._order.remove(buffer_id)
            self.node.pd.destroy_qp(state.qp.qp_num)
            stranded.extend(key for _, key in sorted(state.used_slots.items()))
        rehomed = fallbacks = 0
        for key in stranded:
            data = self._backup.get(key, self._ZERO_PAGE)
            placed = self._place(data, key=key)
            if placed is None:
                self._locations[key] = _LOCAL
                fallbacks += 1
            else:
                self._locations[key] = placed[0]
                self.time_spent_s += placed[1]
                rehomed += 1
        self._count_op("rehomed", rehomed)
        self._count_op("orphaned", fallbacks)
        self._sync_fallback_gauge()
        return rehomed, fallbacks

    def _fast_verb(self, state: _LeaseState, nbytes: int, read: bool):
        """Timing-only verb: the full verb's power gating, rkey check and
        costs (the inter-rack surcharge included), no byte movement."""
        fabric = self.node.fabric
        host = state.lease.host
        target = fabric.node(host)
        if (not target.memory_reachable
                or not fabric.is_reachable(host)
                or not fabric.is_reachable(self.node.name)):
            # Route through the full verb for the proper error message.
            self.node.rdma_read_timed(state.qp, state.lease.rkey, 0, nbytes)
        # A lender that deregistered the MR (crash reset, AS_resync)
        # fails the verb here as it fails the full one.
        target.pd.lookup(state.lease.rkey)
        elapsed = fabric.costs.transfer_time(nbytes)
        if fabric.racks:
            elapsed += fabric.charge_cross_rack(self.node.name, host,
                                                nbytes=nbytes)
        if read:
            fabric.stats.reads += 1
            fabric.stats.bytes_read += nbytes
        else:
            fabric.stats.writes += 1
            fabric.stats.bytes_written += nbytes
        fabric.stats.busy_seconds += elapsed
        return bytes(0), elapsed

    def _location(self, key: int) -> SlotHandle:
        handle = self._locations.get(key)
        if handle is None:
            raise BufferError_(f"unknown page key {key}")
        return handle

    _ZERO_PAGE = bytes(PAGE_SIZE)

    @staticmethod
    def _page_payload(data: Optional[bytes]) -> bytes:
        if data is None:
            return RemotePageStore._ZERO_PAGE
        if len(data) > PAGE_SIZE:
            raise SwapError(
                f"page payload of {len(data)} bytes exceeds PAGE_SIZE"
            )
        if len(data) < PAGE_SIZE:
            return data + bytes(PAGE_SIZE - len(data))
        return data
