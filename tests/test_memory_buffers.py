"""The remote page store over leased buffers."""

import pytest

from repro.errors import BufferError_, MemoryRegionError, SwapError
from repro.memory.buffers import LOCAL_FALLBACK_S, BufferLease, RemotePageStore
from repro.rdma.fabric import Fabric, InterRackLink
from repro.units import PAGE_SIZE


def _store(lease_pages=(8,), transfer_content=True):
    fabric = Fabric()
    user = fabric.add_node("user")
    server = fabric.add_node("server")
    store = RemotePageStore(user, transfer_content=transfer_content)
    for i, n_pages in enumerate(lease_pages):
        mr = server.register_mr(n_pages * PAGE_SIZE)
        store.add_lease(BufferLease(
            buffer_id=100 + i, host="server", rkey=mr.rkey,
            size_bytes=n_pages * PAGE_SIZE, zombie=True,
        ))
    return fabric, store


class TestStoreLoad:
    def test_content_round_trip(self):
        _, store = _store()
        key, _ = store.store(b"page-content")
        data, _ = store.load(key)
        assert data[:12] == b"page-content"
        assert len(data) == PAGE_SIZE

    def test_zero_page_default(self):
        _, store = _store()
        key, _ = store.store()
        data, _ = store.load(key)
        assert data == bytes(PAGE_SIZE)

    def test_keys_are_stable_and_unique(self):
        _, store = _store()
        keys = [store.store()[0] for _ in range(5)]
        assert len(set(keys)) == 5

    def test_oversized_payload_rejected(self):
        _, store = _store()
        with pytest.raises(SwapError):
            store.store(b"x" * (PAGE_SIZE + 1))

    def test_capacity_enforced(self):
        _, store = _store(lease_pages=(2,))
        store.store()
        store.store()
        with pytest.raises(SwapError):
            store.store()

    def test_free_releases_slot(self):
        _, store = _store(lease_pages=(1,))
        key, _ = store.store()
        store.free(key)
        store.store()  # slot reusable

    def test_unknown_key_rejected(self):
        _, store = _store()
        with pytest.raises(BufferError_):
            store.load(999)
        with pytest.raises(BufferError_):
            store.free(999)

    def test_slot_accounting(self):
        _, store = _store(lease_pages=(4,))
        assert store.total_slots == 4
        store.store()
        assert store.used_slot_count == 1
        assert store.free_slot_count == 3

    def test_fills_leases_in_order(self):
        _, store = _store(lease_pages=(1, 4))
        key1, _ = store.store()
        key2, _ = store.store()
        assert store._locations[key1][0] == 100  # first lease first
        assert store._locations[key2][0] == 101


class TestLeaseManagement:
    def test_duplicate_lease_rejected(self):
        fabric, store = _store()
        lease = store.leases()[0]
        with pytest.raises(BufferError_):
            store.add_lease(lease)

    def test_remove_unknown_lease_rejected(self):
        _, store = _store()
        with pytest.raises(BufferError_):
            store.remove_lease(999)

    def test_lease_ids(self):
        _, store = _store(lease_pages=(2, 2))
        assert store.lease_ids() == [100, 101]


class TestRevocation:
    def test_pages_rehome_to_remaining_lease(self):
        _, store = _store(lease_pages=(2, 4))
        key, _ = store.store(b"survivor")
        fallbacks = store.remove_lease(100)
        assert fallbacks == 0
        data, _ = store.load(key)
        assert data[:8] == b"survivor"

    def test_fallback_to_local_backup_when_full(self):
        _, store = _store(lease_pages=(2,))
        key, _ = store.store(b"precious")
        fallbacks = store.remove_lease(100)
        assert fallbacks == 1
        data, elapsed = store.load(key)
        assert data[:8] == b"precious"
        assert elapsed == LOCAL_FALLBACK_S
        assert store.local_fallback_loads == 1

    def test_fallback_key_still_freeable(self):
        _, store = _store(lease_pages=(1,))
        key, _ = store.store(b"x")
        store.remove_lease(100)
        store.free(key)
        with pytest.raises(BufferError_):
            store.load(key)

    def test_double_revocation_rehomes_with_correct_keys(self):
        _, store = _store(lease_pages=(1, 1, 1))
        key, _ = store.store(b"wander")
        store.remove_lease(100)   # rehomes to 101
        store.remove_lease(101)   # rehomes to 102
        data, _ = store.load(key)
        assert data[:6] == b"wander"


class TestFastMode:
    def test_timing_only_mode_keeps_accounting(self):
        _, store = _store(lease_pages=(4,), transfer_content=False)
        key, elapsed = store.store(b"ignored")
        assert elapsed > 0
        data, _ = store.load(key)
        assert data == bytes(0)  # no content moved
        assert store.pages_stored == 1
        assert store.pages_loaded == 1

    def test_fast_mode_still_power_gated(self):
        from repro.acpi.platform import build_platform
        from repro.acpi.states import SleepState
        from repro.errors import RdmaError
        from repro.units import GiB
        fabric = Fabric()
        user = fabric.add_node("user")
        platform = build_platform("server", memory_bytes=1 * GiB)
        server = fabric.add_node("server", platform=platform)
        mr = server.register_mr(4 * PAGE_SIZE)
        store = RemotePageStore(user, transfer_content=False)
        store.add_lease(BufferLease(1, "server", mr.rkey,
                                    4 * PAGE_SIZE, zombie=False))
        key, _ = store.store()
        platform.suspend(SleepState.S3)
        with pytest.raises(RdmaError):
            store.load(key)

    @staticmethod
    def _deregistered_outcome(transfer_content):
        # The lender dropped lease 100's MR (a crash reset, or AS_resync)
        # while the user still holds the lease.
        fabric, store = _store(lease_pages=(2, 2),
                               transfer_content=transfer_content)
        stale, _ = store.store()
        fabric.node("server").deregister_mr(store.leases()[0].rkey)
        with pytest.raises(MemoryRegionError):
            store.load(stale)
        key, _ = store.store()
        return store._locations[key], store.degraded_skips

    def test_deregistered_mr_fails_both_modes_alike(self):
        # The timing-only path once skipped the rkey lookup, so a store or
        # load against a deregistered MR succeeded silently.
        assert self._deregistered_outcome(False) \
            == self._deregistered_outcome(True) == ((101, 0), 1)

    @pytest.mark.parametrize("transfer_content", [True, False])
    def test_both_modes_charge_the_inter_rack_surcharge(self,
                                                        transfer_content):
        fabric, store = _store(transfer_content=transfer_content)
        fabric.set_rack("user", "rack0")
        fabric.set_rack("server", "rack1")
        fabric.set_inter_rack_link(InterRackLink())
        _, elapsed = store.store()
        assert fabric.cross_rack_bytes == PAGE_SIZE
        assert elapsed == pytest.approx(
            fabric.costs.transfer_time(PAGE_SIZE)
            + InterRackLink().extra_latency_s)
