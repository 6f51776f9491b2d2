"""The modified KVM: VM lifecycle and the RAM Ext fault handler."""

import pytest

from repro.errors import (ConfigurationError, HypervisorError, RdmaError,
                          VmStateError)
from repro.hypervisor.kvm import (FAULT_BASE_S, LOCAL_ACCESS_S, Hypervisor)
from repro.hypervisor.vm import Vm, VmSpec, VmState
from repro.memory.buffers import BufferLease, RemotePageStore
from repro.memory.frames import FrameAllocator
from repro.rdma.fabric import Fabric
from repro.units import PAGE_SIZE


def _env(host_frames=64, lease_pages=32):
    fabric = Fabric()
    user = fabric.add_node("user")
    server = fabric.add_node("server")
    hv = Hypervisor("user", FrameAllocator(host_frames))
    store = RemotePageStore(user)
    mr = server.register_mr(lease_pages * PAGE_SIZE)
    store.add_lease(BufferLease(1, "server", mr.rkey,
                                lease_pages * PAGE_SIZE, zombie=True))
    return hv, store


class TestVmSpec:
    def test_paper_default_vcpus(self):
        assert VmSpec("v", 8 * PAGE_SIZE).vcpus == 8

    def test_invalid_memory(self):
        with pytest.raises(ConfigurationError):
            VmSpec("v", 0)

    def test_total_pages(self):
        assert VmSpec("v", 10 * PAGE_SIZE + 1).total_pages == 11


class TestVmLifecycle:
    def test_legal_transitions(self):
        hv, store = _env()
        vm = hv.create_vm(VmSpec("v", 8 * PAGE_SIZE), 8 * PAGE_SIZE)
        assert vm.state is VmState.RUNNING
        vm.transition(VmState.PAUSED)
        vm.transition(VmState.RUNNING)
        vm.transition(VmState.MIGRATING)
        vm.transition(VmState.RUNNING)

    def test_illegal_transition_rejected(self):
        hv, _ = _env()
        vm = hv.create_vm(VmSpec("v", 8 * PAGE_SIZE), 8 * PAGE_SIZE)
        vm.transition(VmState.STOPPED)
        with pytest.raises(VmStateError):
            vm.transition(VmState.RUNNING)

    def test_duplicate_name_rejected(self):
        hv, _ = _env()
        hv.create_vm(VmSpec("v", 8 * PAGE_SIZE), 8 * PAGE_SIZE)
        with pytest.raises(HypervisorError):
            hv.create_vm(VmSpec("v", 8 * PAGE_SIZE), 8 * PAGE_SIZE)

    def test_remote_vm_requires_store(self):
        hv, _ = _env()
        with pytest.raises(ConfigurationError):
            hv.create_vm(VmSpec("v", 16 * PAGE_SIZE), 8 * PAGE_SIZE)

    def test_store_must_cover_remote_part(self):
        hv, store = _env(lease_pages=2)
        with pytest.raises(ConfigurationError):
            hv.create_vm(VmSpec("v", 64 * PAGE_SIZE), 8 * PAGE_SIZE,
                         store=store)

    def test_host_frame_limit_enforced(self):
        hv, _ = _env(host_frames=4)
        with pytest.raises(HypervisorError):
            hv.create_vm(VmSpec("v", 8 * PAGE_SIZE), 8 * PAGE_SIZE)

    def test_destroy_frees_frames(self):
        hv, store = _env()
        vm = hv.create_vm(VmSpec("v", 8 * PAGE_SIZE), 8 * PAGE_SIZE)
        for ppn in range(8):
            hv.access(vm, ppn)
        free_before = hv.free_frames
        hv.destroy_vm("v")
        assert hv.free_frames == free_before + 8
        with pytest.raises(HypervisorError):
            hv.stats("v")

    def test_destroy_unknown_rejected(self):
        hv, _ = _env()
        with pytest.raises(HypervisorError):
            hv.destroy_vm("ghost")


class TestFaultHandler:
    def test_demand_allocation_on_first_touch(self):
        hv, _ = _env()
        vm = hv.create_vm(VmSpec("v", 8 * PAGE_SIZE), 8 * PAGE_SIZE)
        cost = hv.access(vm, 0)
        assert cost >= FAULT_BASE_S
        stats = hv.stats("v")
        assert stats.page_faults == 1
        assert stats.demand_allocs == 1

    def test_resident_hit_is_cheap(self):
        hv, _ = _env()
        vm = hv.create_vm(VmSpec("v", 8 * PAGE_SIZE), 8 * PAGE_SIZE)
        hv.access(vm, 0)
        assert hv.access(vm, 0) == LOCAL_ACCESS_S

    def test_eviction_beyond_local_quota(self):
        hv, store = _env()
        vm = hv.create_vm(VmSpec("v", 8 * PAGE_SIZE), 4 * PAGE_SIZE,
                          store=store)
        for ppn in range(8):
            hv.access(vm, ppn)
        stats = hv.stats("v")
        assert stats.evictions == 4
        assert vm.table.resident_pages == 4
        assert vm.table.remote_pages == 4
        assert store.used_slot_count == 4

    def test_remote_fill_round_trip(self):
        hv, store = _env()
        vm = hv.create_vm(VmSpec("v", 8 * PAGE_SIZE), 4 * PAGE_SIZE,
                          store=store)
        for ppn in range(8):
            hv.access(vm, ppn)
        # page 0 was demoted (FIFO-ish order under Mixed); touch it again
        demoted = [e.ppn for e in
                   (vm.table.entry(p) for p in range(8)) if not e.present]
        cost = hv.access(vm, demoted[0])
        assert cost > LOCAL_ACCESS_S
        assert hv.stats("v").remote_fills == 1
        assert vm.table.entry(demoted[0]).present

    def test_local_quota_never_exceeded(self):
        hv, store = _env()
        vm = hv.create_vm(VmSpec("v", 16 * PAGE_SIZE), 4 * PAGE_SIZE,
                          store=store)
        for rep in range(3):
            for ppn in range(16):
                hv.access(vm, ppn)
        assert vm.local_frames_used <= vm.local_frames_limit
        assert vm.table.resident_pages == 4

    def test_no_store_and_exhausted_quota_raises(self):
        hv, _ = _env()
        spec = VmSpec("v", 8 * PAGE_SIZE)
        vm = hv.create_vm(spec, 8 * PAGE_SIZE)
        vm.local_frames_limit = 2  # simulate shrunk quota
        hv.access(vm, 0)
        hv.access(vm, 1)
        with pytest.raises(HypervisorError):
            hv.access(vm, 2)

    def test_write_sets_dirty(self):
        hv, _ = _env()
        vm = hv.create_vm(VmSpec("v", 8 * PAGE_SIZE), 8 * PAGE_SIZE)
        hv.access(vm, 0, write=True)
        assert vm.table.entry(0).dirty

    def test_time_accounting(self):
        hv, store = _env()
        vm = hv.create_vm(VmSpec("v", 8 * PAGE_SIZE), 4 * PAGE_SIZE,
                          store=store)
        total = sum(hv.access(vm, ppn) for ppn in range(8))
        stats = hv.stats("v")
        assert stats.time_total_s == pytest.approx(total)
        assert stats.time_faults_s <= stats.time_total_s
        assert stats.page_faults == stats.accesses  # every access was a first touch

    def test_hot_pages_stay_local(self):
        """The paper's claim: the policy keeps hot pages in local memory."""
        hv, store = _env(host_frames=128, lease_pages=64)
        vm = hv.create_vm(VmSpec("v", 32 * PAGE_SIZE), 8 * PAGE_SIZE,
                          store=store)
        hot = (0, 1)
        for rep in range(30):
            for ppn in hot:
                hv.access(vm, ppn)
            hv.access(vm, 2 + (rep % 30))
        assert vm.table.entry(0).present
        assert vm.table.entry(1).present


class TestOnePassFault:
    """At the quota a fault chooses its victim first, makes one store
    exchange, and maps the page onto the victim's frame."""

    def _full_quota(self, policy="FIFO"):
        hv, store = _env()
        vm = hv.create_vm(VmSpec("v", 8 * PAGE_SIZE), 4 * PAGE_SIZE,
                          store=store, policy=policy)
        for ppn in range(8):
            hv.access(vm, ppn)
        return hv, store, vm

    def test_the_page_takes_the_victims_frame(self):
        hv, _, vm = self._full_quota()
        victim = vm.policy.fifo[0]
        frame = vm.table.entry(victim).frame
        free_before = hv.free_frames
        hv.access(vm, 0)            # remote since the first pass
        assert not vm.table.entry(victim).present
        assert vm.table.entry(0).frame is frame
        assert hv.free_frames == free_before

    def test_one_store_call_per_fault(self, monkeypatch):
        hv, store, vm = self._full_quota()
        calls, depth = [], [0]

        def outermost(name, method):
            def wrapper(*args, **kwargs):
                if not depth[0]:
                    calls.append(name)
                depth[0] += 1
                try:
                    return method(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper

        for name in ("exchange", "load", "free", "store", "store_fallback"):
            monkeypatch.setattr(store, name,
                                outermost(name, getattr(store, name)))
        for ppn in range(4):
            hv.access(vm, ppn)
        assert hv.stats("v").page_faults == 12
        assert calls == ["exchange"] * 4

    def test_a_refused_fill_keeps_the_victim_resident_and_first(self):
        hv, store, vm = self._full_quota()
        victim = vm.policy.fifo[0]
        stats = hv.stats("v")
        counts = (stats.evictions, stats.remote_fills, store.used_slot_count,
                  hv.free_frames, vm.table.resident_pages)
        store.node.fabric.partition("server")
        with pytest.raises(RdmaError):
            hv.access(vm, 0)
        assert vm.table.entry(victim).present
        assert vm.policy.fifo[0] == victim
        assert (stats.evictions, stats.remote_fills, store.used_slot_count,
                hv.free_frames, vm.table.resident_pages) == counts
        store.node.fabric.heal("server")
        hv.access(vm, 0)
        assert not vm.table.entry(victim).present


class TestPrefetch:
    def _env_with_window(self, window):
        hv, store = _env(host_frames=64, lease_pages=64)
        hv.prefetch_window = window
        vm = hv.create_vm(VmSpec("v", 32 * PAGE_SIZE), 8 * PAGE_SIZE,
                          store=store)
        return hv, vm

    def test_disabled_by_default(self):
        hv, store = _env()
        assert hv.prefetch_window == 0

    def test_sequential_refaults_trigger_prefetch(self):
        hv, vm = self._env_with_window(4)
        for ppn in range(32):          # first touch: no remote fills yet
            hv.access(vm, ppn)
        for ppn in range(32):          # sequential refault pass
            hv.access(vm, ppn)
        stats = hv.stats("v")
        assert stats.prefetches > 0
        assert stats.remote_fills + stats.prefetches >= 24

    def test_random_access_never_prefetches(self):
        hv, vm = self._env_with_window(4)
        import random
        rng = random.Random(3)
        order = list(range(32))
        for _ in range(3):
            rng.shuffle(order)
            broke_sequences = [p for p in order]
            for ppn in broke_sequences:
                hv.access(vm, ppn)
        # Shuffled faults have (almost) no adjacent pairs; the estimator
        # may fire occasionally but must stay marginal.
        stats = hv.stats("v")
        assert stats.prefetches < stats.remote_fills * 0.2

    def test_prefetched_pages_are_resident(self):
        hv, vm = self._env_with_window(8)
        for ppn in range(32):
            hv.access(vm, ppn)
        hv.access(vm, 0)
        hv.access(vm, 1)  # sequential pair: prefetch 2..9 (quota willing)
        stats = hv.stats("v")
        if stats.prefetches:
            assert vm.table.entry(2).present
        assert vm.local_frames_used <= vm.local_frames_limit

    def test_a_reused_name_starts_without_the_old_vms_last_fill(self):
        hv, store = _env(host_frames=64, lease_pages=64)
        hv.prefetch_window = 4
        vm = hv.create_vm(VmSpec("v", 32 * PAGE_SIZE), 8 * PAGE_SIZE,
                          store=store)
        for ppn in range(32):
            hv.access(vm, ppn)
        hv.access(vm, 7)                   # a remote fill: last fill is 7
        assert hv.stats("v").remote_fills == 1
        hv.destroy_vm("v")
        vm = hv.create_vm(VmSpec("v", 32 * PAGE_SIZE), 8 * PAGE_SIZE,
                          store=store)
        for ppn in range(32):
            hv.access(vm, ppn)
        hv.access(vm, 8)                   # the new VM's first remote fill
        stats = hv.stats("v")
        assert stats.remote_fills == 1
        assert stats.prefetches == 0


class TestVmHolder:
    """Only the hypervisor that holds a VM runs its accesses."""

    def _released(self):
        hv, store = _env()
        vm = hv.create_vm(VmSpec("v", 16 * PAGE_SIZE), 4 * PAGE_SIZE,
                          store=store)
        for ppn in range(16):
            hv.access(vm, ppn)
        hv.release_vm("v")
        return hv, vm

    def test_access_after_release_raises(self):
        hv, vm = self._released()
        with pytest.raises(HypervisorError):
            hv.access(vm, 0)
        assert vm.stats.accesses == 16

    def test_access_after_destroy_raises(self):
        hv, store = _env()
        vm = hv.create_vm(VmSpec("v", 8 * PAGE_SIZE), 8 * PAGE_SIZE)
        hv.destroy_vm("v")
        with pytest.raises(HypervisorError):
            hv.access(vm, 0)

    def test_the_adopting_hypervisor_runs_the_vm(self):
        hv, vm = self._released()
        other = Hypervisor("other", FrameAllocator(64))
        other.adopt_vm(vm)
        other.access(vm, 0)
        assert other.stats("v").accesses == 17
        with pytest.raises(HypervisorError):
            hv.access(vm, 0)
