"""MemSan: one injected defect per finding class, plus clean-run checks.

Each defect test bypasses a *runtime* guard the way a real bug would (a
lingering MR registration, a stale ``remote_ok`` cache, a handler that
forgot to fence) and asserts MemSan's independent shadow state still
catches the silent violation.  The defended-path tests assert the converse:
an operation the runtime already rejected is not double-reported.
"""

import gc

import pytest

from repro.acpi.platform import build_platform
from repro.acpi.states import SleepState
from repro.analysis.harness import RamExtHarness
from repro.core.database import BufferDatabase
from repro.core.protocol import BufferDescriptor, BufferKind
from repro.errors import BufferError_, FencingError, RdmaError
from repro.memory.buffers import BufferLease, RemotePageStore
from repro.rdma.fabric import Fabric
from repro.rdma.rpc import RpcClient, RpcServer
from repro.sanitize import MemorySanitizer
from repro.sanitize.memsan import (DOUBLE_FREE, EPOCH_REGRESSION,
                                   LOST_BUFFER_ACCESS, POWER_DOMAIN,
                                   USE_AFTER_RECLAIM)
from repro.sanitize.pytest_plugin import get_session_sanitizer
from repro.units import GiB, PAGE_SIZE


@pytest.fixture
def san(request):
    """The active sanitizer: the session one under ``--memsan``, else local.

    Stacking a second install over the session sanitizer would double-patch
    the hook points and double-report every finding, so the session instance
    is reused when present; its findings are drained at teardown so the
    plugin's autouse check does not fail the very tests that inject defects.
    """
    session = get_session_sanitizer(request.config)
    if session is not None:
        yield session
        session.drain_findings()
    else:
        with MemorySanitizer() as sanitizer:
            yield sanitizer


def _make_store(platform=None):
    """A user node with one 8-page lease served by ``server``."""
    fabric = Fabric()
    user = fabric.add_node("user")
    server = fabric.add_node("server", platform=platform)
    store = RemotePageStore(user)
    mr = server.register_mr(8 * PAGE_SIZE)
    store.add_lease(BufferLease(buffer_id=100, host="server", rkey=mr.rkey,
                                size_bytes=8 * PAGE_SIZE, zombie=True))
    return fabric, store, mr


def _kinds(sanitizer):
    return [f.kind for f in sanitizer.drain_findings()]


class TestCleanRuns:
    def test_normal_cycle_produces_no_findings(self, san):
        _, store, _ = _make_store()
        key, _ = store.store(b"payload")
        store.load(key)
        store.free(key)
        store.remove_lease(100)
        assert _kinds(san) == []

    def test_regranted_buffer_is_legitimate_again(self, san):
        _, store, mr = _make_store()
        lease = store.leases()[0]
        store.remove_lease(100)
        store.add_lease(lease)  # controller re-granted the same buffer
        key, _ = store.store(b"fresh")
        store.load(key)
        assert _kinds(san) == []


class TestUseAfterReclaim:
    def test_verb_after_revocation_is_flagged(self, san):
        fabric, store, mr = _make_store()
        store.store(b"doomed")
        store.remove_lease(100)
        # The serving host never deregistered the MR (the injected defect),
        # so a read through a fresh QP succeeds silently.
        qp = fabric.node("user").connect_qp("server")
        fabric.node("user").rdma_read_timed(qp, mr.rkey, 0, PAGE_SIZE)
        assert USE_AFTER_RECLAIM in _kinds(san)

    def test_deregistered_mr_is_defended_not_flagged(self, san):
        fabric, store, mr = _make_store()
        store.remove_lease(100)
        fabric.node("server").deregister_mr(mr.rkey)  # the correct cleanup
        qp = fabric.node("user").connect_qp("server")
        with pytest.raises(RdmaError):
            fabric.node("user").rdma_read_timed(qp, mr.rkey, 0, PAGE_SIZE)
        assert _kinds(san) == []

    def test_drop_host_marks_all_of_its_leases(self, san):
        fabric, store, mr = _make_store()
        store.store(b"x")
        store.drop_host("server")
        qp = fabric.node("user").connect_qp("server")
        fabric.node("user").rdma_write_timed(qp, mr.rkey, 0, b"stale write")
        assert USE_AFTER_RECLAIM in _kinds(san)


    def test_zero_page_verb_on_reclaimed_buffer_is_flagged(self, san):
        harness = RamExtHarness(vm_pages=300, local_fraction=0.5)
        store = harness.hypervisor.store_for("bench-vm")
        buffer_id = store.lease_ids()[0]
        stale = store._leases[buffer_id]
        harness.rack.server("user").manager.us_reclaim([buffer_id])
        # The injected defect: the store keeps placing pages in the
        # revoked lease, whose MR the lender never deregistered.
        stale.qp = store.node.connect_qp(stale.lease.host)
        store._leases[buffer_id] = stale
        store._order.insert(0, buffer_id)
        for ppn in range(harness.vm.spec.total_pages):
            harness.hypervisor.access(harness.vm, ppn)
        assert USE_AFTER_RECLAIM in _kinds(san)


class TestDoubleFree:
    def test_second_free_is_flagged(self, san):
        _, store, _ = _make_store()
        key, _ = store.store(b"once")
        store.free(key)
        with pytest.raises(BufferError_):
            store.free(key)
        assert DOUBLE_FREE in _kinds(san)

    def test_free_after_exchange_is_flagged(self, san):
        _, store, _ = _make_store()
        key, _ = store.store(b"traded")
        store.exchange(key, b"victim")
        with pytest.raises(BufferError_):
            store.free(key)
        assert DOUBLE_FREE in _kinds(san)

    def test_freeing_a_never_valid_key_is_not_a_double_free(self, san):
        _, store, _ = _make_store()
        with pytest.raises(BufferError_):
            store.free(999)
        assert _kinds(san) == []


class TestLostBufferAccess:
    def test_read_of_lost_buffer_is_flagged(self, san):
        _, store, mr = _make_store()
        key, _ = store.store(b"orphaned")
        db = BufferDatabase()
        db.add(BufferDescriptor(buffer_id=100, host="server", offset=0,
                                size_bytes=8 * PAGE_SIZE,
                                kind=BufferKind.ZOMBIE, rkey=mr.rkey))
        db.set_kind(100, BufferKind.LOST)  # recovery declared the host dead
        # The user keeps reading through its still-open lease: silent.
        store.load(key)
        assert LOST_BUFFER_ACCESS in _kinds(san)

    def test_healed_buffer_is_accessible_again(self, san):
        _, store, mr = _make_store()
        key, _ = store.store(b"back")
        db = BufferDatabase()
        db.add(BufferDescriptor(buffer_id=100, host="server", offset=0,
                                size_bytes=8 * PAGE_SIZE,
                                kind=BufferKind.ZOMBIE, rkey=mr.rkey))
        db.set_kind(100, BufferKind.LOST)
        db.set_kind(100, BufferKind.ZOMBIE)  # false alarm: host healed
        store.load(key)
        assert _kinds(san) == []


class TestPowerDomain:
    def test_stale_remote_ok_cache_is_flagged(self, san):
        platform = build_platform("server", memory_bytes=1 * GiB)
        _, store, _ = _make_store(platform=platform)
        key, _ = store.store(b"resident")
        platform.suspend(SleepState.S3)  # DRAM in self-refresh: no DMA
        platform.remote_ok = True        # injected defect: stale cache
        store.load(key)                  # gate reads the stale flag: silent
        assert POWER_DOMAIN in _kinds(san)

    def test_honest_cache_is_defended_not_flagged(self, san):
        platform = build_platform("server", memory_bytes=1 * GiB)
        _, store, _ = _make_store(platform=platform)
        key, _ = store.store(b"resident")
        platform.suspend(SleepState.S3)
        with pytest.raises(RdmaError):
            store.load(key)
        assert _kinds(san) == []

    def test_zombie_host_is_a_legal_target(self, san):
        platform = build_platform("server", memory_bytes=1 * GiB)
        _, store, _ = _make_store(platform=platform)
        key, _ = store.store(b"zombie-served")
        platform.go_zombie()
        store.load(key)  # the whole point of Sz
        assert _kinds(san) == []


class TestEpochRegression:
    def _channel(self):
        fabric = Fabric()
        server = RpcServer(fabric.add_node("srv"))
        client = RpcClient(fabric.add_node("cli"), server)
        return server, client

    def test_unfenced_stale_epoch_is_flagged(self, san):
        server, client = self._channel()
        # Injected defect: a handler that takes the epoch stamp but never
        # fences (forgot to admit the epoch to its watermark).
        server.register("GS_reclaim", lambda nb, epoch=None: nb)
        client.call("GS_reclaim", 2, epoch=5)
        client.call("GS_reclaim", 1, epoch=3)  # deposed controller: silent
        assert EPOCH_REGRESSION in _kinds(san)

    def test_each_issuing_rack_has_its_own_watermark(self, san):
        server, client = self._channel()
        server.register("GS_reclaim", lambda nb, epoch=None, rack=None: nb)
        client.call("GS_reclaim", 2, epoch=5, rack="rack2")
        # Another rack's epochs are unrelated: not a regression.
        client.call("GS_reclaim", 1, epoch=3, rack="rack1")
        assert _kinds(san) == []
        client.call("GS_reclaim", 1, epoch=2, rack="rack1")
        assert EPOCH_REGRESSION in _kinds(san)

    def test_fenced_call_is_defended_not_flagged(self, san):
        server, client = self._channel()
        watermark = {"epoch": 0}

        def fenced(nb, epoch=None):
            if epoch is not None and epoch < watermark["epoch"]:
                raise FencingError(f"stale epoch {epoch}")
            watermark["epoch"] = epoch or watermark["epoch"]
            return nb

        server.register("GS_reclaim", fenced)
        client.call("GS_reclaim", 2, epoch=5)
        with pytest.raises(FencingError):
            client.call("GS_reclaim", 1, epoch=3)
        assert _kinds(san) == []


class TestLeakReport:
    def test_live_store_with_leases_is_reported(self, san):
        gc.collect()  # drop stores earlier tests left uncollected
        _, store, _ = _make_store()
        leaks = san.leak_report()
        assert any(leak.node == "user" and 100 in leak.lease_ids
                   for leak in leaks)
        store.remove_lease(100)
        assert all(leak.node != "user" for leak in san.leak_report())

    def test_dead_store_is_not_reported(self, san):
        _, store, _ = _make_store()
        del store
        gc.collect()
        assert all(leak.node != "user" for leak in san.leak_report())

    def test_server_with_unaccounted_frames_is_reported(self, san):
        from repro.core.rack import Rack
        from repro.units import MiB
        rack = Rack(["lender", "leaky"], memory_bytes=64 * MiB,
                    buff_size=8 * MiB)
        rack.make_zombie("lender")           # every frame backs a lent run
        assert san.frame_leak_report() == []
        stray = rack.server("leaky").allocator.alloc_many(3)
        leaks = san.frame_leak_report()
        assert [(leak.host, leak.unaccounted) for leak in leaks] == [
            ("leaky", 3)]
        rack.server("leaky").allocator.free_many(stray)
        assert san.frame_leak_report() == []
