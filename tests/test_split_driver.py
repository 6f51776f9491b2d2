"""The split-driver Explicit SD: elastic, revocable remote swap."""

import pytest

from repro.core.rack import Rack
from repro.hypervisor.explicit_sd import ExplicitSdVm
from repro.hypervisor.split_driver import SplitDriverSwap
from repro.hypervisor.vm import VmSpec
from repro.memory.buffers import LOCAL_FALLBACK_S
from repro.units import MiB, PAGE_SIZE


@pytest.fixture
def rack():
    r = Rack(["user", "zombie"], memory_bytes=128 * MiB, buff_size=4 * MiB)
    r.make_zombie("zombie")
    return r


def _device(rack, capacity_pages=4096, grow_mib=4):
    return SplitDriverSwap(rack.server("user").manager,
                           capacity_pages=capacity_pages,
                           grow_step_bytes=grow_mib * MiB)


class TestElasticGrowth:
    def test_starts_with_no_remote_memory(self, rack):
        device = _device(rack)
        assert device.store.total_slots == 0

    def test_first_swap_triggers_allocation(self, rack):
        device = _device(rack)
        device.swap_out("page-0", b"data")
        assert device.grow_requests == 1
        assert device.grow_granted_bytes == 4 * MiB
        assert device.remote_fraction() == 1.0

    def test_growth_is_stepwise(self, rack):
        device = _device(rack, grow_mib=4)
        pages_per_step = (4 * MiB) // PAGE_SIZE
        for i in range(pages_per_step + 1):
            device.swap_out(i)
        assert device.grow_requests == 2

    def test_round_trip(self, rack):
        device = _device(rack)
        device.swap_out("k", b"split-driver")
        data, _ = device.swap_in("k")
        assert data[:12] == b"split-driver"


class TestLocalFallback:
    def test_exhausted_rack_falls_back_to_local(self, rack):
        # Drain the zombie pool into another store first.
        manager = rack.server("user").manager
        hoard, granted = manager.request_swap(1024 * MiB)
        device = _device(rack)
        device.swap_out("k", b"precious")
        assert device.store.fallback_count == 1
        assert device.remote_fraction() == 0.0
        data, elapsed = device.swap_in("k")
        assert data[:8] == b"precious"
        assert elapsed >= LOCAL_FALLBACK_S  # the slower path

    def test_repair_after_pool_frees_up(self, rack):
        manager = rack.server("user").manager
        hoard, _ = manager.request_swap(1024 * MiB)
        device = _device(rack)
        device.swap_out("k", b"x")
        assert device.store.fallback_count == 1
        manager.release_store(hoard)  # pool memory returns
        restored = device.repair()
        assert restored == 1
        assert device.remote_fraction() == 1.0

    def test_reclaim_moves_pages_to_local_then_repair(self, rack):
        device = _device(rack)
        for i in range(8):
            device.swap_out(i, b"v%d" % i)
        # The zombie wakes and takes everything back.
        rack.wake("zombie", reclaim_bytes=128 * MiB)
        for i in range(8):
            data, _ = device.swap_in(i)
            assert data[:1] == b"v"

    def test_unreachable_lease_falls_back_to_local(self, rack):
        # The lease has free slots, but its host just dropped off the
        # fabric and the controller has not invalidated it yet.
        device = _device(rack)
        device.swap_out("first", b"remote")
        rack.fabric.partition("zombie")
        device.swap_out("k", b"precious")
        assert device.store.fallback_count == 1
        assert device.store.degraded_skips == 1
        assert device.swap_in("k")[0][:8] == b"precious"

    def test_revoked_pages_count_as_local(self, rack):
        # A revocation pushes pages to the local backup behind the
        # device's back; the remote share must still see them.
        device = _device(rack)
        for i in range(512):
            device.swap_out(i)
        manager = rack.server("user").manager
        assert manager.us_reclaim(device.store.lease_ids()[:1]) == 1
        assert device.store.fallback_count == 512
        assert device.remote_fraction() == 0.0
        for i in range(256):
            device.swap_in(i)
        assert device.remote_fraction() == 0.0
        assert device.store.fallback_count == 256


class TestGuestIntegration:
    def test_explicit_sd_vm_over_split_driver(self, rack):
        spec = VmSpec("sd", 64 * PAGE_SIZE)
        device = _device(rack, capacity_pages=128)
        guest = ExplicitSdVm(spec, 16 * PAGE_SIZE, device, watermark=1.0)
        for ppn in range(64):
            guest.access(ppn)
        assert device.swap_outs > 0
        assert device.grow_requests >= 1
        # Faulting an evicted page swaps in through the backend.
        victim = next(p for p in range(64)
                      if not guest.table.entry(p).present)
        guest.access(victim)
        assert device.swap_ins == 1
