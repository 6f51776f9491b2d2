"""The per-server *remote-mem-mgr* agent.

Each rack server runs one.  It talks to the global controller over RPC over
RDMA and does the local legwork on both sides of the protocol:

- **lender side** — carve free local memory into ``BUFF_SIZE`` buffers,
  register them as RDMA memory regions, and announce them
  (``GS_goto_zombie`` on suspend, ``AS_get_free_mem`` when the controller
  asks an active server to lend);
- **user side** — allocate remote memory (``GS_alloc_ext`` /
  ``GS_alloc_swap``) into a :class:`RemotePageStore`, and honour
  ``US_reclaim`` revocations by re-homing pages from the local backup.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.core.protocol import BufferDescriptor, BufferKind, Method
from repro.errors import BufferError_, ControllerError, RpcError
from repro.memory.buffers import BufferLease, RemotePageStore
from repro.memory.frames import FrameAllocator, FrameRun
from repro.rdma.fabric import RdmaNode
from repro.rdma.rpc import RpcServer
from repro.units import DEFAULT_BUFF_SIZE, PAGE_SIZE

#: Global buffer-id allocator: the lender picks ids; a process-wide counter
#: keeps them rack-unique (the paper leaves id assignment unspecified).
_buffer_ids = itertools.count(1)


class _LentBuffer:
    """Lender-side record of one buffer we are serving.

    One frame run backs one registered memory region.
    """

    def __init__(self, descriptor: BufferDescriptor, rkey: int,
                 frames: FrameRun):
        self.descriptor = descriptor
        self.rkey = rkey
        self.frames = frames


class RemoteMemoryManager:
    """One server's agent: lender and user of rack remote memory."""

    def __init__(self, host: str, node: RdmaNode, allocator: FrameAllocator,
                 buff_size: int = DEFAULT_BUFF_SIZE,
                 lend_reserve_fraction: float = 0.25):
        self.host = host
        self.node = node
        self.allocator = allocator
        self.buff_size = buff_size
        #: Fraction of free memory an *active* server keeps for itself when
        #: asked to lend (a zombie lends everything).
        self.lend_reserve_fraction = lend_reserve_fraction
        #: The channel into the primary (the rack installs a
        #: :class:`~repro.core.rack.PrimaryChannel`; anything with
        #: ``call`` will do).
        self.controller = None
        self.rpc = RpcServer(node)
        self.rpc.register(Method.US_RECLAIM.value, self.us_reclaim)
        self.rpc.register(Method.US_INVALIDATE.value, self.us_invalidate)
        self.rpc.register(Method.AS_GET_FREE_MEM.value, self.as_get_free_mem)
        self.rpc.register(Method.AS_RESYNC.value, self.as_resync)
        self.rpc.register(Method.HEARTBEAT.value, self.heartbeat)
        self._lent: Dict[int, _LentBuffer] = {}
        self._stores_by_buffer: Dict[int, RemotePageStore] = {}
        self._stores_needing_repair: List[RemotePageStore] = []
        self.reclaims_served = 0

    # -- wiring ----------------------------------------------------------
    def _call(self, method: Method, *args):
        if self.controller is None:
            raise ControllerError(f"{self.host}: no controller attached")
        return self.controller.call(method.value, *args)

    def heartbeat(self) -> str:
        """Controller-invoked liveness probe of this serving host."""
        return "alive"

    # -- lender side ---------------------------------------------------------
    @property
    def lent_bytes(self) -> int:
        return sum(b.descriptor.size_bytes for b in self._lent.values())

    @property
    def lent_frames(self) -> int:
        return sum(len(b.frames) for b in self._lent.values())

    def carve_buffers(self, max_bytes: Optional[int] = None
                      ) -> List[BufferDescriptor]:
        """Turn free local frames into registered, lendable buffers."""
        frames_per_buffer = self.buff_size // PAGE_SIZE
        descriptors: List[BufferDescriptor] = []
        budget = max_bytes if max_bytes is not None else float("inf")
        while (self.allocator.free_frames >= frames_per_buffer
               and budget >= self.buff_size):
            frames = self.allocator.alloc_many(frames_per_buffer)
            mr = self.node.register_mr(self.buff_size)
            descriptor = BufferDescriptor(
                buffer_id=next(_buffer_ids), host=self.host, offset=0,
                size_bytes=self.buff_size, kind=BufferKind.ACTIVE,
                rkey=mr.rkey,
            )
            self._lent[descriptor.buffer_id] = _LentBuffer(
                descriptor, mr.rkey, frames
            )
            descriptors.append(descriptor)
            budget -= self.buff_size
        return descriptors

    def delegate_for_zombie(self) -> int:
        """Sz-entry path: lend all free memory, announce ``GS_goto_zombie``.

        Invoked from the OSPM pre-sleep hook.  Returns the number of
        buffers now lent by this host.
        """
        descriptors = self.carve_buffers()
        return self._call(Method.GS_GOTO_ZOMBIE, self.host, descriptors)

    def announce_wake(self) -> None:
        self._call(Method.GS_WAKE, self.host)

    def as_get_free_mem(self) -> List[BufferDescriptor]:
        """Controller-invoked: an active server lends part of its slack."""
        free_bytes = self.allocator.free_frames * PAGE_SIZE
        lendable = int(free_bytes * (1.0 - self.lend_reserve_fraction))
        return self.carve_buffers(max_bytes=lendable)

    def as_resync(self, buffer_ids: List[int]) -> int:
        """Controller-invoked after this host healed from a crash/partition.

        The controller already invalidated ``buffer_ids`` rack-wide while
        we were gone; drop the stale lender-side records and take the
        frames back so they can be lent again.  Returns bytes recovered.
        """
        recovered = 0
        for buffer_id in buffer_ids:
            lent = self._lent.pop(buffer_id, None)
            if lent is None:
                continue  # never ours, or already reclaimed
            self.node.deregister_mr(lent.rkey)
            self.allocator.free_many(lent.frames)
            recovered += lent.descriptor.size_bytes
        return recovered

    def reset_after_crash(self) -> int:
        """Model a reboot: all lender-side state is gone, frames are free.

        Used by the fault harness for *crash* (as opposed to partition)
        faults, where DRAM content did not survive.  Returns the number of
        buffer records dropped.
        """
        dropped = len(self._lent)
        for lent in self._lent.values():
            self.node.deregister_mr(lent.rkey)
            self.allocator.free_many(lent.frames)
        self._lent.clear()
        return dropped

    def reclaim(self, nb_buffers: int) -> int:
        """Take ``nb_buffers`` of our memory back; returns bytes recovered."""
        if nb_buffers <= 0:
            return 0
        ids = self._call(Method.GS_RECLAIM, self.host, nb_buffers)
        recovered = 0
        for buffer_id in ids:
            lent = self._lent.pop(buffer_id, None)
            if lent is None:
                raise BufferError_(
                    f"{self.host}: controller returned unknown buffer "
                    f"{buffer_id}"
                )
            self.node.deregister_mr(lent.rkey)
            self.allocator.free_many(lent.frames)
            recovered += lent.descriptor.size_bytes
        return recovered

    def reclaim_bytes(self, wanted_bytes: int) -> int:
        """Reclaim enough buffers to recover at least ``wanted_bytes``."""
        nb = min(len(self._lent),
                 (wanted_bytes + self.buff_size - 1) // self.buff_size)
        return self.reclaim(nb)

    # -- user side ------------------------------------------------------------
    def request_ext(self, mem_size: int) -> RemotePageStore:
        """Guaranteed RAM-Extension allocation (VM creation time)."""
        descriptors = self._call(Method.GS_ALLOC_EXT, self.host, mem_size)
        return self._build_store(descriptors)

    def request_swap(self, mem_size: int) -> Tuple[RemotePageStore, int]:
        """Best-effort swap allocation; returns (store, granted bytes)."""
        descriptors = self._call(Method.GS_ALLOC_SWAP, self.host, mem_size)
        store = self._build_store(descriptors)
        return store, sum(d.size_bytes for d in descriptors)

    def extend_swap(self, store: RemotePageStore, mem_size: int) -> int:
        """Grow ``store`` with newly-available buffers (best effort)."""
        descriptors = self._call(Method.GS_ALLOC_SWAP, self.host, mem_size)
        for descriptor in descriptors:
            store.add_lease(self._lease_from(descriptor))
            self._stores_by_buffer[descriptor.buffer_id] = store
        return sum(d.size_bytes for d in descriptors)

    def release_store(self, store: RemotePageStore) -> None:
        """Return every buffer behind ``store`` to the controller."""
        ids = store.lease_ids()
        for buffer_id in ids:
            store.remove_lease(buffer_id)
            self._stores_by_buffer.pop(buffer_id, None)
        self._call(Method.GS_RELEASE, self.host, ids)

    def transfer_store_out(self, store: RemotePageStore) -> List[int]:
        """Migration source side: drop local tracking of ``store``."""
        ids = store.lease_ids()
        for buffer_id in ids:
            self._stores_by_buffer.pop(buffer_id, None)
        return ids

    def transfer_store_in(self, store: RemotePageStore,
                          old_user: str) -> None:
        """Migration destination side: adopt ``store`` and its buffers.

        Rebinds the store's queue pairs to this node and updates the
        controller's ownership pointers (``GS_transfer``).
        """
        store.rebind(self.node)
        ids = store.lease_ids()
        for buffer_id in ids:
            self._stores_by_buffer[buffer_id] = store
        if ids:
            self._call(Method.GS_TRANSFER, old_user, self.host, ids)

    def us_reclaim(self, buffer_ids: List[int]) -> int:
        """Controller-invoked revocation of buffers we are *using*.

        The store re-homes each page (remaining leases first, local backup
        as the slow path); outstanding page keys keep working.
        """
        rehomed = 0
        for buffer_id in buffer_ids:
            store = self._stores_by_buffer.pop(buffer_id, None)
            if store is None:
                continue  # already released on our side
            store.remove_lease(buffer_id)
            if (store.fallback_count and
                    store not in self._stores_needing_repair):
                self._stores_needing_repair.append(store)
            rehomed += 1
        self.reclaims_served += 1
        return rehomed

    def us_invalidate(self, host: str, buffer_ids: List[int]) -> int:
        """Controller-invoked: serving host ``host`` is dead, drop its leases.

        Unlike ``US_reclaim`` (a cooperative revocation whose buffer is
        still readable), the remote content is *gone*; every affected
        store re-homes the lost pages from its local-storage mirror onto
        surviving leases, falling back to local serving until
        :meth:`repair_stores` wins remote slots back.  Returns the number
        of pages that had to fall back to local storage.
        """
        affected: List[RemotePageStore] = []
        for buffer_id in buffer_ids:
            store = self._stores_by_buffer.pop(buffer_id, None)
            if store is not None and store not in affected:
                affected.append(store)
        fallbacks = 0
        for store in affected:
            fallbacks += store.drop_host(host)
            if (store.fallback_count
                    and store not in self._stores_needing_repair):
                self._stores_needing_repair.append(store)
        return fallbacks

    def report_host_failure(self, host: str) -> bool:
        """User-side escalation: a one-sided verb to ``host`` just failed.

        Forwards ``GS_report_failure`` so the controller can probe the
        host and trigger rack-wide recovery; returns the controller's
        verdict (True when recovery was initiated).
        """
        return self._call(Method.GS_REPORT_FAILURE, self.host, host)

    def repair_stores(self) -> int:
        """Re-home pages stranded on the local backup after reclaims.

        Requests replacement buffers (best effort) and moves fallback
        pages into them — the paper's "transferring the backup copy of the
        data to other remote locations".  Deferred out of the ``US_reclaim``
        handler itself to keep the controller's reclaim non-reentrant.
        Returns the number of pages restored to remote memory.
        """
        restored = 0
        pending, self._stores_needing_repair = (
            self._stores_needing_repair, []
        )
        for store in pending:
            shortfall = store.fallback_count * PAGE_SIZE
            if shortfall <= 0:
                continue
            try:
                self.extend_swap(store, shortfall)
            except RpcError:  # zl: ignore[ZL005] store re-queued below; the next repair pass retries
                # Controller unreachable right now; pages stay on the
                # local mirror and the next repair pass tries again.  The
                # GS_alloc_swap round trip is a yield point: a revocation
                # served meanwhile may have queued the store already, so
                # re-queue it only if it is not (ZL010).
                if store not in self._stores_needing_repair:
                    self._stores_needing_repair.append(store)
                continue
            restored += store.restore_fallbacks()
            if (store.fallback_count
                    and store not in self._stores_needing_repair):
                self._stores_needing_repair.append(store)
        return restored

    # -- helpers ---------------------------------------------------------
    def _build_store(self, descriptors: List[BufferDescriptor]
                     ) -> RemotePageStore:
        store = RemotePageStore(self.node)
        telemetry = self.node.fabric.telemetry
        if telemetry.enabled:
            store.attach_metrics(telemetry.registry, user=self.host)
        for descriptor in descriptors:
            store.add_lease(self._lease_from(descriptor))
            self._stores_by_buffer[descriptor.buffer_id] = store
        return store

    @staticmethod
    def _lease_from(descriptor: BufferDescriptor) -> BufferLease:
        return BufferLease(
            buffer_id=descriptor.buffer_id, host=descriptor.host,
            rkey=descriptor.rkey, size_bytes=descriptor.size_bytes,
            zombie=descriptor.kind is BufferKind.ZOMBIE,
        )
