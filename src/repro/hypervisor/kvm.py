"""The modified KVM: hypervisor paging between local frames and remote memory.

This is the paper's *RAM Ext* implementation (Section 4.5).  Each VM gets
``LocalMemSize`` of machine frames; the page-fault handler allocates frames
on demand, and when the local quota is exhausted it picks a victim with the
VM's replacement policy, demotes it to a remote buffer over a one-sided RDMA
WRITE, and (on a later fault) promotes it back with a READ.  Hot pages stay
local; cold pages drift to the zombie pool.

Every operation returns its simulated cost in seconds so workload drivers
can integrate execution time.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError, HypervisorError, ReproError
from repro.memory.buffers import RemotePageStore
from repro.memory.frames import FrameAllocator
from repro.memory.page_table import PageLocation, PageTableEntry
from repro.memory.replacement import make_policy
from repro.hypervisor.vm import AccessStats, Vm, VmSpec, VmState
from repro.units import MICROSECOND, NANOSECOND, PAGE_SIZE, pages

#: Cost of a local (resident) page access, seconds.  DRAM + TLB ballpark.
LOCAL_ACCESS_S = 80 * NANOSECOND
#: VM-exit + fault-handler entry/exit overhead, seconds.
FAULT_BASE_S = 1.5 * MICROSECOND
#: CPU frequency used to convert replacement-policy cycles into seconds.
CPU_HZ = 2.5e9

#: Read on every access: a module global is a plain name lookup, where
#: ``PageLocation.LOCAL`` is a class-attribute lookup on the enum.
_LOCAL = PageLocation.LOCAL
_REMOTE = PageLocation.REMOTE


class Hypervisor:
    """One host's modified KVM instance.

    ``allocator`` covers the host's local RAM.  Each VM carries its own
    local-frame quota, replacement policy and remote page store (the buffers
    the rack controller granted it via ``GS_alloc_ext``).
    """

    def __init__(self, host: str, allocator: FrameAllocator,
                 prefetch_window: int = 0,
                 telemetry=None):
        self.host = host
        self.allocator = allocator
        #: ZomTrace hub (usually the fabric's).  Instruments for the
        #: fault path are resolved once here; the local-hit fast path in
        #: :meth:`access` stays completely untouched.
        self._tel = telemetry if (telemetry is not None
                                  and telemetry.enabled) else None
        if self._tel is not None:
            registry = self._tel.registry
            self._m_faults = registry.counter(
                "hv_page_faults_total", "Hypervisor page faults taken.",
                host=host)
            self._m_fault_seconds = registry.histogram(
                "hv_fault_seconds", "Full fault-path latency per fault.",
                host=host)
            self._m_remote_fills = registry.counter(
                "hv_remote_fills_total",
                "Faults served by reading a remote slot.", host=host)
        #: Sequential readahead: after two consecutive remote fills of
        #: adjacent pages, pull up to this many following remote pages in
        #: one batched transfer (0 = off, the paper's configuration).
        self.prefetch_window = prefetch_window
        #: The VMs this host holds.  Each :class:`Vm` carries its own
        #: store, counters, written bytes and last fill.
        self.vms: Dict[str, Vm] = {}

    # -- VM lifecycle ---------------------------------------------------
    def create_vm(self, spec: VmSpec, local_bytes: int,
                  store: Optional[RemotePageStore] = None,
                  policy: str = "Mixed", **policy_kwargs) -> Vm:
        """Start a VM with ``local_bytes`` of local RAM quota.

        If ``local_bytes < spec.memory_bytes`` the remainder must be covered
        by ``store`` (remote buffers); otherwise ``store`` may be None.
        """
        if spec.name in self.vms:
            raise HypervisorError(f"{self.host}: duplicate VM {spec.name!r}")
        local_pages = pages(local_bytes)
        if local_pages > self.allocator.free_frames:
            raise HypervisorError(
                f"{self.host}: {local_pages} frames requested, only "
                f"{self.allocator.free_frames} free"
            )
        if local_bytes < spec.memory_bytes:
            if store is None:
                raise ConfigurationError(
                    f"VM {spec.name!r}: needs remote memory but no store given"
                )
            needed = spec.total_pages - local_pages
            if store.total_slots < needed:
                raise ConfigurationError(
                    f"VM {spec.name!r}: store holds {store.total_slots} "
                    f"slots, {needed} needed"
                )
        vm = Vm(spec, min(local_bytes, spec.memory_bytes),
                make_policy(policy, **policy_kwargs), store)
        vm.transition(VmState.RUNNING)
        vm.hypervisor = self
        self.vms[spec.name] = vm
        return vm

    def destroy_vm(self, name: str) -> None:
        vm = self.vms.pop(name, None)
        if vm is None:
            raise HypervisorError(f"{self.host}: unknown VM {name!r}")
        vm.hypervisor = None
        if vm.state is not VmState.STOPPED:
            vm.transition(VmState.STOPPED)
        for entry in list(vm.table.resident()):
            frame = vm.table.discard(entry.ppn)
            if frame is not None:
                self.allocator.free(frame)

    def release_vm(self, name: str) -> Vm:
        """Detach a VM for migration: free its local frames, keep state.

        Returns the :class:`Vm` with everything it carries (store,
        counters, written bytes); the page table keeps its entries
        (resident entries lose their frames — the destination re-backs
        them after the hot-page copy).  Until a hypervisor adopts it, no
        hypervisor runs its accesses.
        """
        vm = self.vms.pop(name, None)
        if vm is None:
            raise HypervisorError(f"{self.host}: unknown VM {name!r}")
        vm.hypervisor = None
        for entry in vm.table.resident():
            if entry.frame is not None:
                self.allocator.free(entry.frame)
                entry.frame = None
        vm.local_frames_used = 0
        return vm

    def adopt_vm(self, vm: Vm) -> Vm:
        """Attach a migrated-in VM: back its resident pages with frames.

        Readahead starts afresh here: the last fill was the source's.
        """
        if vm.name in self.vms:
            raise HypervisorError(f"{self.host}: duplicate VM {vm.name!r}")
        resident = vm.table.resident_pages
        if resident > self.allocator.free_frames:
            raise HypervisorError(
                f"{self.host}: {resident} frames needed for migrated VM "
                f"{vm.name!r}, only {self.allocator.free_frames} free"
            )
        frames = self.allocator.alloc_many(resident)
        for entry, frame in zip(vm.table.resident(), frames):
            entry.frame = frame
        vm.local_frames_used = resident
        vm.last_fill = None
        vm.hypervisor = self
        self.vms[vm.name] = vm
        return vm

    def stats(self, name: str) -> AccessStats:
        try:
            return self.vms[name].stats
        except KeyError:
            raise HypervisorError(f"{self.host}: unknown VM {name!r}") from None

    def store_for(self, name: str) -> Optional[RemotePageStore]:
        vm = self.vms.get(name)
        return None if vm is None else vm.store

    # -- the data path ------------------------------------------------------
    def access(self, vm: Vm, ppn: int, write: bool = False) -> float:
        """One guest access to pseudo-physical page ``ppn``.

        Returns the simulated time the access took (local hit, or the full
        fault path: policy + eviction + remote fill).  Only the hypervisor
        holding ``vm`` may run it.
        """
        if vm.hypervisor is not self:
            raise HypervisorError(
                f"{self.host}: VM {vm.name!r} is not held here")
        stats = vm.stats
        stats.accesses += 1
        entry = vm.table.entry(ppn)
        if entry.location is _LOCAL:
            entry.accessed_epoch = vm.table.epoch
            if write:
                entry.dirty = True
            stats.time_total_s += LOCAL_ACCESS_S
            return LOCAL_ACCESS_S
        cost = self._handle_fault(vm, entry)
        if write:
            entry.dirty = True
        stats.time_total_s += cost
        stats.time_faults_s += cost
        if self._tel is not None:
            self._m_faults.inc()
            self._m_fault_seconds.observe(cost)
        return cost

    def write_page(self, vm: Vm, ppn: int, data: bytes) -> float:
        """Give the page bytes: from now on it round-trips ``data``
        through the remote store and every fill is checked against it.

        Faults the page in first if needed.
        """
        cost = self.access(vm, ppn, write=True)
        vm.contents[ppn] = bytes(data)
        return cost

    def read_page(self, vm: Vm, ppn: int) -> bytes:
        """The bytes :meth:`write_page` gave the page (faults it in)."""
        self.access(vm, ppn)
        return vm.contents.get(ppn, b"")

    def _handle_fault(self, vm: Vm, entry: PageTableEntry) -> float:
        """The paper's fault handler: bring the page in, then verify it."""
        stats = vm.stats
        stats.page_faults += 1
        remote = entry.location is _REMOTE
        data, read_s, evict_s = self._page_in(vm, entry)
        cost = FAULT_BASE_S + read_s + evict_s
        if not remote:
            stats.demand_allocs += 1
            return cost
        ppn = entry.ppn
        stats.remote_fills += 1
        if self._tel is not None:
            self._m_remote_fills.inc()
        expected = vm.contents.get(ppn)
        if expected is not None and data[:len(expected)] != expected:
            raise HypervisorError(
                f"VM {vm.name!r} ppn {ppn}: remote fill "
                "returned corrupted content"
            )
        if self.prefetch_window and vm.last_fill == ppn - 1:
            cost += self._prefetch(vm, ppn)
        vm.last_fill = ppn
        return cost

    def _page_in(self, vm: Vm, entry: PageTableEntry
                 ) -> Tuple[Optional[bytes], float, float]:
        """Map ``entry``'s page onto a frame in one pass.

        Under the quota a free frame is taken.  At the quota the victim
        is chosen first, one store exchange trades it for the page, and
        the page takes the victim's frame: the allocator is never
        touched.  Returns ``(bytes read or None, read seconds, eviction
        seconds)``; a refused read puts the victim back in line.
        """
        store = vm.store
        table = vm.table
        policy = vm.policy
        key = entry.remote_slot if entry.location is _REMOTE else None
        if vm.local_frames_used < vm.local_frames_limit:
            data, read_s = None, 0.0
            if key is not None:
                data, read_s = store.load(key)
                store.free(key)
            table.map_local(entry.ppn, self.allocator.alloc())
            vm.local_frames_used += 1
            policy.note_resident(entry.ppn)
            return data, read_s, 0.0
        if store is None:
            raise HypervisorError(
                f"VM {vm.name!r}: local quota exhausted and no remote store"
            )
        before = policy.cycles_total
        victim = policy.select_victim(table)
        spent_cycles = policy.cycles_total - before
        try:
            data, victim_key, read_s, write_s = store.exchange(
                key, vm.contents.get(victim))
        except ReproError:
            policy.requeue(victim)
            raise
        stats = vm.stats
        stats.policy_cycles += spent_cycles
        stats.evictions += 1
        if self._tel is not None:
            self._tel.registry.counter(
                "hv_evictions_total",
                "Victim pages demoted to the remote store.",
                host=self.host, policy=policy.name).inc()
        table.map_local(entry.ppn, table.demote(victim, victim_key))
        policy.note_resident(entry.ppn)
        return data, read_s, spent_cycles / CPU_HZ + write_s

    def _prefetch(self, vm: Vm, ppn: int) -> float:
        """Sequential readahead: batch-fill the next remote pages.

        The batch shares one wire latency, so each extra page costs only
        its bandwidth share — the win over demand faulting one by one.
        """
        costs = vm.store.node.fabric.costs
        per_page_wire = PAGE_SIZE / costs.bandwidth_bytes_per_s
        stats = vm.stats
        cost = 0.0
        for next_ppn in range(ppn + 1,
                              min(ppn + 1 + self.prefetch_window,
                                  vm.spec.total_pages)):
            entry = vm.table.entry(next_ppn)
            if entry.location is not _REMOTE:
                break
            # Readahead under memory pressure reclaims like Linux's does;
            # the batch is bounded so the churn is too.
            cost += self._page_in(vm, entry)[2]
            stats.prefetches += 1
            cost += per_page_wire  # latency already paid by the batch head
        return cost

    # -- host-level views ----------------------------------------------------
    @property
    def free_frames(self) -> int:
        return self.allocator.free_frames

    @property
    def vcpus_booked(self) -> int:
        """Total vCPUs booked by resident VMs."""
        return sum(vm.spec.vcpus for vm in self.vms.values())

    def resident_pages(self, name: str) -> int:
        return self.vms[name].table.resident_pages

    def remote_pages(self, name: str) -> int:
        return self.vms[name].table.remote_pages
