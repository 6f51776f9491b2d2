"""The remote page store over leased buffers."""

import random

import pytest

from repro.errors import BufferError_, MemoryRegionError, SwapError
from repro.memory.buffers import (_LOCAL, LOCAL_FALLBACK_S, ZERO_PAGE,
                                  BufferLease, RemotePageStore)
from repro.rdma.fabric import Fabric, InterRackLink
from repro.units import PAGE_SIZE


def _store(lease_pages=(8,)):
    fabric = Fabric()
    user = fabric.add_node("user")
    server = fabric.add_node("server")
    store = RemotePageStore(user)
    for i, n_pages in enumerate(lease_pages):
        mr = server.register_mr(n_pages * PAGE_SIZE)
        store.add_lease(BufferLease(
            buffer_id=100 + i, host="server", rkey=mr.rkey,
            size_bytes=n_pages * PAGE_SIZE, zombie=True,
        ))
    return fabric, store


#: The two kinds of page: one given bytes, and a zero page (``None``).
PAGE_KINDS = pytest.mark.parametrize("data", [b"page-bytes", None],
                                     ids=["bytes", "zero"])


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


class TestPageKinds:
    """A zero page pays exactly the verb a page with bytes pays."""

    @PAGE_KINDS
    def test_round_trip_keeps_accounting(self, data):
        fabric, store = _store(lease_pages=(4,))
        key, stored_s = store.store(data)
        loaded, loaded_s = store.load(key)
        assert stored_s == loaded_s == fabric.costs.transfer_time(PAGE_SIZE)
        assert (fabric.stats.reads, fabric.stats.writes) == (1, 1)
        assert fabric.stats.bytes_read == fabric.stats.bytes_written \
            == PAGE_SIZE
        assert store.pages_stored == store.pages_loaded == 1
        if data is None:
            assert loaded is ZERO_PAGE
        else:
            assert loaded[:len(data)] == data and len(loaded) == PAGE_SIZE

    def test_zero_page_moves_no_bytes(self):
        fabric, store = _store(lease_pages=(1,))
        key, _ = store.store(b"stale")
        store.free(key)
        # The slot keeps the old page's bytes in the MR; a zero page put
        # there neither overwrites nor reads them, and is not mirrored.
        key, _ = store.store()
        mr = fabric.node("server").pd.lookup(store.leases()[0].rkey)
        assert mr.read(0, 5) == b"stale"
        assert store.load(key)[0] is ZERO_PAGE
        assert store._backup == {}

    @PAGE_KINDS
    def test_power_gated(self, data):
        from repro.acpi.platform import build_platform
        from repro.acpi.states import SleepState
        from repro.errors import RdmaError
        from repro.units import GiB
        fabric = Fabric()
        user = fabric.add_node("user")
        platform = build_platform("server", memory_bytes=1 * GiB)
        server = fabric.add_node("server", platform=platform)
        mr = server.register_mr(4 * PAGE_SIZE)
        store = RemotePageStore(user)
        store.add_lease(BufferLease(1, "server", mr.rkey,
                                    4 * PAGE_SIZE, zombie=False))
        key, _ = store.store(data)
        platform.suspend(SleepState.S3)
        with pytest.raises(RdmaError):
            store.load(key)

    @PAGE_KINDS
    def test_deregistered_mr_fails(self, data):
        # The lender dropped lease 100's MR (a crash reset, or AS_resync)
        # while the user still holds the lease: loads fail, and stores
        # skip the lease.
        fabric, store = _store(lease_pages=(2, 2))
        stale, _ = store.store(data)
        fabric.node("server").deregister_mr(store.leases()[0].rkey)
        with pytest.raises(MemoryRegionError):
            store.load(stale)
        key, _ = store.store(data)
        assert store._locations[key] == (101, 0)
        assert store.degraded_skips == 1

    @PAGE_KINDS
    def test_charges_the_inter_rack_surcharge(self, data):
        fabric, store = _store()
        fabric.set_rack("user", "rack0")
        fabric.set_rack("server", "rack1")
        fabric.set_inter_rack_link(InterRackLink())
        _, elapsed = store.store(data)
        assert fabric.cross_rack_bytes == PAGE_SIZE
        assert elapsed == pytest.approx(
            fabric.costs.transfer_time(PAGE_SIZE)
            + InterRackLink().extra_latency_s)


def _observable(fabric, store):
    """Everything a caller can see of a store, keys aside: the live pages
    in store order with their homes and bytes, and every counter."""
    pages = [(handle, store._backup.get(key))
             for key, handle in store._locations.items()]
    free = {bid: list(s.free_slots) for bid, s in store._leases.items()}
    counters = (store.pages_stored, store.pages_loaded,
                store.local_fallback_stores, store.local_fallback_loads,
                store.degraded_skips, store.fallback_count,
                store.time_spent_s)
    stats = fabric.stats
    return (pages, free, counters, stats.reads, stats.writes,
            stats.bytes_read, stats.bytes_written, stats.busy_seconds)


class TestExchange:
    """``exchange`` is ``load`` + ``free`` + ``store`` (falling back to the
    local backup) in one call, down to the last counter and float."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_load_free_store(self, seed):
        rng = random.Random(seed)
        twins = [_store(lease_pages=(3, 2)) for _ in range(2)]
        keys = [[], []]
        forced = 0
        for _ in range(120):
            data = rng.choice([None, b"bytes-%d" % rng.randrange(99)])
            pick = rng.randrange(len(keys[0])) if keys[0] else None
            if rng.random() < 0.1:
                forced += 1
                for (_, store), held in zip(twins, keys):
                    held.append(store.store_fallback(data)[0])
                continue
            (fabric, fused), (_, split) = twins
            old = keys[0].pop(pick) if pick is not None else None
            loaded, new, read_s, write_s = fused.exchange(old, data)
            keys[0].append(new)
            want_data, want_read = None, 0.0
            if pick is not None:
                old = keys[1].pop(pick)
                want_data, want_read = split.load(old)
                split.free(old)
            try:
                new, want_write = split.store(data)
            except SwapError:
                new, want_write = split.store_fallback(data)
            keys[1].append(new)
            assert (loaded, read_s, write_s) == (want_data, want_read,
                                                 want_write)
            assert _observable(*twins[0]) == _observable(*twins[1])
        # Some exchanges found every lease full and fell back themselves.
        assert twins[0][1].local_fallback_stores > forced

    def test_the_freed_slot_takes_the_new_page(self):
        _, store = _store(lease_pages=(2,))
        store.store()
        key, _ = store.store(b"old")
        data, new, _, _ = store.exchange(key, b"new")
        assert data[:3] == b"old"
        assert store._locations[new] == (100, 1)
        assert store.load(new)[0][:3] == b"new"

    def test_without_a_key_it_only_stores(self):
        fabric, store = _store()
        data, key, read_s, write_s = store.exchange(None)
        assert (data, read_s) == (None, 0.0)
        assert write_s == fabric.costs.transfer_time(PAGE_SIZE)
        assert (fabric.stats.reads, fabric.stats.writes) == (0, 1)
        assert store.load(key)[0] is ZERO_PAGE

    def test_a_full_store_falls_back_to_the_local_backup(self):
        _, store = _store(lease_pages=(1,))
        store.store()
        local, _ = store.store_fallback(b"slow")
        _, new, read_s, write_s = store.exchange(local, b"still slow")
        assert read_s == write_s == LOCAL_FALLBACK_S
        assert store._locations[new] == _LOCAL
        assert store.fallback_count == 1

    @PAGE_KINDS
    def test_a_refused_read_changes_nothing(self, data):
        fabric, store = _store(lease_pages=(2,))
        key, _ = store.store(data)
        fabric.node("server").deregister_mr(store.leases()[0].rkey)
        before = _observable(fabric, store)
        with pytest.raises(MemoryRegionError):
            store.exchange(key, data)
        assert _observable(fabric, store) == before


def _scanned_fallbacks(store):
    return sum(1 for loc in store._locations.values() if loc == _LOCAL)


class TestFallbackCount:
    """``fallback_count`` is kept, not scanned: it must equal the scan."""

    @pytest.mark.parametrize("seed", range(8))
    def test_counter_matches_scan_over_random_ops(self, seed):
        rng = random.Random(seed)
        fabric = Fabric()
        user = fabric.add_node("user")
        servers = [fabric.add_node(f"s{i}") for i in range(3)]
        store = RemotePageStore(user)
        next_id = iter(range(1, 10_000))

        def grant(server):
            mr = server.register_mr(4 * PAGE_SIZE)
            store.add_lease(BufferLease(next(next_id), server.name, mr.rkey,
                                        4 * PAGE_SIZE, zombie=True))

        for server in servers:
            grant(server)
        keys = []
        peak = 0
        for _ in range(300):
            op = rng.randrange(7)
            if op <= 1:
                data = rng.choice([None, b"bytes"])
                try:
                    keys.append(store.store(data)[0])
                except SwapError:
                    keys.append(store.store_fallback(data)[0])
            elif op == 2 and keys:
                store.free(keys.pop(rng.randrange(len(keys))))
            elif op == 3 and keys:
                store.load(rng.choice(keys))
            elif op == 4 and store.lease_ids():
                store.remove_lease(rng.choice(store.lease_ids()))
            elif op == 5 and store.lease_ids():
                store.drop_host(rng.choice(store.leases()).host)
            else:
                grant(rng.choice(servers))
                store.restore_fallbacks()
            assert store.fallback_count == _scanned_fallbacks(store)
            peak = max(peak, store.fallback_count)
        assert peak > 0
        assert store.fallback_count + store.used_slot_count == len(keys)
