"""The global memory controller protocol, over a real RPC fabric."""

import pytest

from repro.core.controller import GlobalMemoryController
from repro.core.protocol import BufferDescriptor, BufferKind, Method
from repro.errors import AllocationError, ControllerError
from repro.rdma.fabric import Fabric
from repro.rdma.rpc import RpcClient, RpcServer
from repro.units import MiB

BUFF = 16 * MiB


class FakeAgent:
    """A scriptable remote-mem-mgr endpoint for controller tests."""

    def __init__(self, fabric, name, lendable=0):
        self.name = name
        self.node = fabric.add_node(name)
        self.rpc = RpcServer(self.node)
        self.rpc.register(Method.US_RECLAIM.value, self.us_reclaim)
        self.rpc.register(Method.AS_GET_FREE_MEM.value, self.as_get_free_mem)
        self.reclaimed = []
        self.lendable = lendable
        self._next_id = hash(name) % 1000 + 5000

    def us_reclaim(self, ids):
        self.reclaimed.extend(ids)
        return len(ids)

    def as_get_free_mem(self):
        out = []
        for _ in range(self.lendable):
            out.append(BufferDescriptor(
                buffer_id=self._next_id, host=self.name, offset=0,
                size_bytes=BUFF, kind=BufferKind.ACTIVE, rkey=self._next_id,
            ))
            self._next_id += 1
        self.lendable = 0
        return out


def _setup(agents=("a1", "a2"), lendable=0):
    fabric = Fabric()
    node = fabric.add_node("ctr")
    controller = GlobalMemoryController(node, buff_size=BUFF)
    fakes = {}
    for name in agents:
        fake = FakeAgent(fabric, name, lendable=lendable)
        controller.attach_agent(name, RpcClient(node, fake.rpc))
        fakes[name] = fake
    return fabric, controller, fakes


def _buffers(host, start_id, count, kind=BufferKind.ZOMBIE):
    return [BufferDescriptor(buffer_id=start_id + i, host=host, offset=0,
                             size_bytes=BUFF, kind=kind, rkey=start_id + i)
            for i in range(count)]


class TestGotoZombieAndWake:
    def test_lends_buffers(self):
        _, ctr, _ = _setup()
        count = ctr.gs_goto_zombie("z1", _buffers("z1", 10, 3))
        assert count == 3
        assert "z1" in ctr.zombie_hosts
        assert ctr.db.free_bytes() == 3 * BUFF

    def test_foreign_buffer_rejected(self):
        _, ctr, _ = _setup()
        with pytest.raises(ControllerError):
            ctr.gs_goto_zombie("z1", _buffers("other-host", 10, 1))

    def test_wake_relabels_buffers_active(self):
        _, ctr, _ = _setup()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 2))
        ctr.gs_wake("z1")
        assert "z1" not in ctr.zombie_hosts
        assert all(b.kind is BufferKind.ACTIVE for b in ctr.db.by_host("z1"))

    def test_active_lending_relabelled_on_zombie_entry(self):
        _, ctr, _ = _setup()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 1, kind=BufferKind.ZOMBIE))
        ctr.gs_wake("z1")
        ctr.gs_goto_zombie("z1", _buffers("z1", 20, 1))
        assert all(b.kind is BufferKind.ZOMBIE for b in ctr.db.by_host("z1"))


class TestAllocation:
    def test_ext_allocates_zombie_first(self):
        _, ctr, _ = _setup()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 2))
        ctr.db.add(_buffers("a1", 50, 2, kind=BufferKind.ACTIVE)[0])
        granted = ctr.gs_alloc_ext("a2", 2 * BUFF)
        assert all(b.kind is BufferKind.ZOMBIE for b in granted)
        assert all(b.user == "a2" for b in granted)

    def test_ext_stripes_across_hosts(self):
        _, ctr, _ = _setup()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 4))
        ctr.gs_goto_zombie("z2", _buffers("z2", 20, 4))
        granted = ctr.gs_alloc_ext("a1", 4 * BUFF)
        hosts = [b.host for b in granted]
        assert hosts.count("z1") == 2 and hosts.count("z2") == 2

    def test_ext_excludes_own_host(self):
        _, ctr, _ = _setup()
        ctr.gs_goto_zombie("a1", _buffers("a1", 10, 2))
        ctr.gs_goto_zombie("z1", _buffers("z1", 20, 2))
        granted = ctr.gs_alloc_ext("a1", 2 * BUFF)
        assert all(b.host != "a1" for b in granted)

    def test_ext_grows_pool_from_active_servers(self):
        _, ctr, fakes = _setup(lendable=2)
        granted = ctr.gs_alloc_ext("a1", 2 * BUFF)
        assert len(granted) == 2
        assert all(b.host == "a2" for b in granted)  # a1 excluded

    def test_ext_revokes_swap_as_last_resort(self):
        _, ctr, fakes = _setup()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 2))
        swap = ctr.gs_alloc_swap("a2", 2 * BUFF)
        assert len(swap) == 2
        granted = ctr.gs_alloc_ext("a1", 2 * BUFF)
        assert len(granted) == 2
        assert sorted(fakes["a2"].reclaimed) == [b.buffer_id for b in swap]

    def test_ext_fails_when_rack_exhausted(self):
        _, ctr, _ = _setup()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 1))
        with pytest.raises(AllocationError):
            ctr.gs_alloc_ext("a1", 5 * BUFF)

    def test_swap_is_best_effort(self):
        _, ctr, _ = _setup()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 1))
        granted = ctr.gs_alloc_swap("a1", 5 * BUFF)
        assert len(granted) == 1  # fewer than asked, no exception

    def test_release_returns_buffers_to_pool(self):
        _, ctr, _ = _setup()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 2))
        granted = ctr.gs_alloc_ext("a1", 2 * BUFF)
        ctr.gs_release("a1", [b.buffer_id for b in granted])
        assert ctr.db.free_bytes() == 2 * BUFF

    def test_release_foreign_buffer_rejected(self):
        _, ctr, _ = _setup()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 1))
        granted = ctr.gs_alloc_ext("a1", BUFF)
        with pytest.raises(ControllerError):
            ctr.gs_release("a2", [granted[0].buffer_id])


class TestReclaim:
    def test_unallocated_buffers_reclaimed_first(self):
        _, ctr, fakes = _setup()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 3))
        ctr.gs_alloc_ext("a1", BUFF)  # allocates buffer 10
        ids = ctr.gs_reclaim("z1", 2)
        assert 10 not in ids  # free ones went first
        assert fakes["a1"].reclaimed == []

    def test_allocated_buffers_revoked_when_needed(self):
        _, ctr, fakes = _setup()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 2))
        granted = ctr.gs_alloc_ext("a1", 2 * BUFF)
        ids = ctr.gs_reclaim("z1", 2)
        assert sorted(ids) == [10, 11]
        assert sorted(fakes["a1"].reclaimed) == sorted(
            b.buffer_id for b in granted
        )

    def test_over_reclaim_rejected(self):
        _, ctr, _ = _setup()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 1))
        with pytest.raises(ControllerError):
            ctr.gs_reclaim("z1", 5)


class TestLruZombie:
    def test_picks_least_allocated(self):
        _, ctr, _ = _setup()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 2))
        ctr.gs_goto_zombie("z2", _buffers("z2", 20, 2))
        # allocate both of z1's buffers (z2 still has one free after one alloc)
        for b in ctr.db.by_host("z1"):
            ctr.db.assign(b.buffer_id, "a1")
        assert ctr.gs_get_lru_zombie() == "z2"

    def test_none_without_zombies(self):
        _, ctr, _ = _setup()
        assert ctr.gs_get_lru_zombie() is None


class TestMirroring:
    def test_mutations_forwarded(self):
        _, ctr, _ = _setup()
        mirrored = []

        class Client:
            """The standby's client, reduced to recording each entry."""

            def call(self, verb, op, args, **stamp):
                mirrored.append(op)

        ctr.mirror = Client()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 1))
        ctr.gs_alloc_ext("a1", BUFF)
        assert "zombie_add" in mirrored
        assert "add" in mirrored
        assert "assign" in mirrored

    def test_heartbeat(self):
        _, ctr, _ = _setup()
        assert ctr.heartbeat() == "alive"
        assert ctr.heartbeats_sent == 1

    def test_pool_summary(self):
        _, ctr, _ = _setup()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 2))
        summary = ctr.pool_summary()
        assert summary["buffers"] == 2
        assert summary["zombie_hosts"] == 1


class TestRevokeAtomicity:
    def _allocated_pair(self):
        """Two users, one buffer each, all served by zombie z1."""
        fabric, ctr, fakes = _setup()
        ctr.gs_goto_zombie("z1", _buffers("z1", 10, 4))
        ctr.gs_alloc_swap("a1", BUFF)
        ctr.gs_alloc_swap("a2", BUFF)
        return fabric, ctr, fakes

    def test_missing_channel_validated_before_any_send(self):
        _, ctr, fakes = self._allocated_pair()
        ctr.agent_clients.pop("a2")
        with pytest.raises(ControllerError):
            ctr.gs_reclaim("z1", 4)
        # a1's channel was fine, but nothing was revoked from it either:
        # the batch failed atomically, before the first US_reclaim.
        assert fakes["a1"].reclaimed == []
        assert len(ctr.db.by_host("z1")) == 4  # state untouched

    def test_midbatch_rpc_failure_logs_compensating_event(self):
        from repro.core.events import EventKind
        from repro.errors import RpcError

        fabric, ctr, fakes = self._allocated_pair()
        fabric.partition("a2")  # appears *after* channel validation
        with pytest.raises(ControllerError):
            ctr.gs_reclaim("z1", 4)
        # a1 already dropped its lease; the event records exactly that,
        # so a journal consumer can reconcile the half-applied batch.
        assert len(fakes["a1"].reclaimed) == 1
        failures = ctr.events.of_kind(EventKind.REVOKE_FAILED)
        assert len(failures) == 1
        assert failures[0].detail["completed_users"] == ["a1"]
        assert failures[0].detail["buffers"]
