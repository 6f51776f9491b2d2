"""Secondary-controller HA and the remote-mem-mgr agent."""

import pytest

from repro.acpi.states import SleepState
from repro.core.controller import GlobalMemoryController
from repro.core.manager import RemoteMemoryManager
from repro.core.protocol import Method
from repro.core.rack import Rack
from repro.core.secondary import SecondaryController
from repro.errors import (BufferError_, ConfigurationError, ControllerError,
                          FailoverError, FencingError)
from repro.hypervisor.vm import VmSpec
from repro.memory.frames import FrameAllocator
from repro.rdma.fabric import Fabric
from repro.rdma.rpc import RpcClient
from repro.sim.engine import Engine
from repro.units import MiB, PAGE_SIZE

BUFF = 4 * MiB
BUFF_PAGES = BUFF // PAGE_SIZE
HEARTBEAT = Method.HEARTBEAT.value
MIRROR_OP = Method.MIRROR_OP.value


def _wired(lender_pages=4 * BUFF_PAGES, user_pages=4 * BUFF_PAGES):
    """Controller + secondary + two managers, fully wired on one fabric."""
    engine = Engine()
    fabric = Fabric(engine=engine)
    ctr_node = fabric.add_node("ctr")
    sec_node = fabric.add_node("sec")
    controller = GlobalMemoryController(ctr_node, buff_size=BUFF)
    secondary = SecondaryController(sec_node, heartbeat_period_s=1.0,
                                    miss_threshold=3)
    controller.mirror = RpcClient(ctr_node, secondary.rpc)
    secondary.watch(RpcClient(sec_node, controller.rpc))

    managers = {}
    for name, pages in (("lender", lender_pages), ("user", user_pages)):
        node = fabric.add_node(name)
        manager = RemoteMemoryManager(name, node, FrameAllocator(pages),
                                      buff_size=BUFF)
        manager.controller = RpcClient(node, controller.rpc)
        controller.attach_agent(name, RpcClient(ctr_node, manager.rpc))
        managers[name] = manager
    return engine, fabric, controller, secondary, managers


class TestManagerLending:
    def test_delegate_for_zombie_lends_all_free_memory(self):
        _, _, ctr, _, mgrs = _wired()
        count = mgrs["lender"].delegate_for_zombie()
        assert count == 4
        assert mgrs["lender"].lent_bytes == 4 * BUFF
        assert mgrs["lender"].allocator.free_frames == 0
        assert "lender" in ctr.zombie_hosts

    def test_as_get_free_mem_keeps_a_reserve(self):
        _, _, _, _, mgrs = _wired()
        lender = mgrs["lender"]
        lender.lend_reserve_fraction = 0.25
        descriptors = lender.as_get_free_mem()
        assert len(descriptors) == 3  # 75 % of 4 buffers worth
        assert lender.allocator.free_frames == BUFF_PAGES

    def test_reclaim_returns_frames(self):
        _, _, _, _, mgrs = _wired()
        lender = mgrs["lender"]
        lender.delegate_for_zombie()
        recovered = lender.reclaim(2)
        assert recovered == 2 * BUFF
        assert lender.allocator.free_frames == 2 * BUFF_PAGES

    def test_reclaim_all(self):
        _, _, ctr, _, mgrs = _wired()
        lender = mgrs["lender"]
        lender.delegate_for_zombie()
        lender.reclaim_bytes(lender.lent_bytes)
        assert lender.lent_bytes == 0
        assert len(ctr.db) == 0

    def test_reclaim_bytes_rounds_to_buffers(self):
        _, _, _, _, mgrs = _wired()
        lender = mgrs["lender"]
        lender.delegate_for_zombie()
        recovered = lender.reclaim_bytes(BUFF + 1)
        assert recovered == 2 * BUFF

    def test_detached_manager_raises(self):
        fabric = Fabric()
        node = fabric.add_node("orphan")
        manager = RemoteMemoryManager("orphan", node, FrameAllocator(16))
        with pytest.raises(ControllerError):
            manager.delegate_for_zombie()


class TestManagerUserSide:
    def test_request_ext_builds_store(self):
        _, _, _, _, mgrs = _wired()
        mgrs["lender"].delegate_for_zombie()
        store = mgrs["user"].request_ext(2 * BUFF)
        assert store.total_slots == 2 * BUFF_PAGES
        key, _ = store.store(b"hello")
        assert store.load(key)[0][:5] == b"hello"

    def test_request_swap_best_effort(self):
        _, _, _, _, mgrs = _wired()
        mgrs["lender"].delegate_for_zombie()
        store, granted = mgrs["user"].request_swap(100 * BUFF)
        assert granted <= 4 * BUFF

    def test_extend_swap_adds_leases(self):
        _, _, _, _, mgrs = _wired()
        mgrs["lender"].delegate_for_zombie()
        store, granted = mgrs["user"].request_swap(BUFF)
        extra = mgrs["user"].extend_swap(store, BUFF)
        assert extra == BUFF
        assert len(store.lease_ids()) == 2

    def test_release_store_frees_pool(self):
        _, _, ctr, _, mgrs = _wired()
        mgrs["lender"].delegate_for_zombie()
        store = mgrs["user"].request_ext(2 * BUFF)
        mgrs["user"].release_store(store)
        assert ctr.db.free_bytes() == 4 * BUFF

    def test_us_reclaim_rehomes_pages(self):
        _, _, ctr, _, mgrs = _wired()
        mgrs["lender"].delegate_for_zombie()
        store = mgrs["user"].request_ext(2 * BUFF)
        key, _ = store.store(b"survive-this")
        victim = store.lease_ids()[0]
        mgrs["user"].us_reclaim([victim])
        assert store.load(key)[0][:12] == b"survive-this"
        assert mgrs["user"].reclaims_served == 1

    def test_controller_driven_reclaim_end_to_end(self):
        """The full wake path: lender reclaims, user's pages survive."""
        _, _, _, _, mgrs = _wired()
        mgrs["lender"].delegate_for_zombie()
        store = mgrs["user"].request_ext(2 * BUFF)
        key, _ = store.store(b"data")
        mgrs["lender"].reclaim(4)  # revokes the user's buffers via US_reclaim
        data, _ = store.load(key)
        assert data[:4] == b"data"
        assert store.local_fallback_loads >= 0  # may or may not fall back
        assert mgrs["lender"].allocator.free_frames == 4 * BUFF_PAGES


class TestSecondaryParameters:
    def test_zero_miss_threshold_rejected(self):
        # With 0 it would fail over on its first missed heartbeat.
        fabric = Fabric()
        with pytest.raises(ConfigurationError):
            SecondaryController(fabric.add_node("sec"), miss_threshold=0)

    def test_non_finite_heartbeat_period_rejected(self):
        fabric = Fabric()
        with pytest.raises(ConfigurationError):
            SecondaryController(fabric.add_node("sec"),
                                heartbeat_period_s=float("nan"))


class TestMirroringAndFailover:
    def test_secondary_tracks_state(self):
        _, _, ctr, sec, mgrs = _wired()
        mgrs["lender"].delegate_for_zombie()
        assert len(sec.db) == len(ctr.db)
        assert sec.zombie_hosts == ctr.zombie_hosts

    def test_heartbeat_keeps_secondary_quiet(self):
        engine, _, _, sec, _ = _wired()
        engine.run(until=10.0)
        assert sec.heartbeats_ok == 10
        assert sec.promoted is None

    def test_failover_after_missed_heartbeats(self):
        engine, _, ctr, sec, _ = _wired()
        promoted = []
        sec.on_failover = lambda s: promoted.append(s.promote(BUFF))
        ctr.rpc.unregister(Method.HEARTBEAT.value)  # crash the primary
        engine.run(until=10.0)
        assert len(promoted) == 1
        assert promoted[0].db is not ctr.db

    def test_promoted_controller_has_mirrored_state(self):
        engine, _, ctr, sec, mgrs = _wired()
        mgrs["lender"].delegate_for_zombie()
        store = mgrs["user"].request_ext(BUFF)
        new_ctr = sec.promote(BUFF)
        assert len(new_ctr.db) == len(ctr.db)
        assert new_ctr.zombie_hosts == {"lender"}
        allocated = [b for b in new_ctr.db.all_buffers() if b.allocated]
        assert len(allocated) == 1

    def test_double_promotion_rejected(self):
        _, _, _, sec, _ = _wired()
        sec.promote(BUFF)
        with pytest.raises(FailoverError):
            sec.promote(BUFF)

    def test_promotion_preserves_known_hosts(self):
        """Active (non-zombie) hosts must survive a failover too."""
        _, _, _, sec, mgrs = _wired()
        mgrs["lender"].delegate_for_zombie()
        assert sec.known_hosts == {"lender", "user"}
        new_ctr = sec.promote(BUFF)
        assert new_ctr.known_hosts == {"lender", "user"}
        assert new_ctr.zombie_hosts == {"lender"}


class TestMirrorCatchUp:
    def test_deferred_mirror_op_is_resent_not_lost(self):
        # Lose the *reply* of one mirror op: the secondary applies it, the
        # primary times out.  Before the sequenced mirror log, that op's
        # journal suffix was silently skipped forever and the standby
        # diverged; now the next emission re-sends it and the secondary
        # skips the already-applied sequence number.
        from repro.rdma.fabric import REPLY_LOSS
        engine, fabric, ctr, sec, mgrs = _wired()
        fabric.message_faults.script("ctr", "sec", REPLY_LOSS,
                                     method=Method.MIRROR_OP.value)
        mgrs["lender"].delegate_for_zombie()  # emits a stream of ops
        assert ctr.mirror_deferred >= 1
        assert sec.mirror_skips >= 1
        assert ctr.mirror_lag == 0
        assert len(sec.db) == len(ctr.db)
        assert {b.buffer_id for b in sec.db.all_buffers()} == \
            {b.buffer_id for b in ctr.db.all_buffers()}
        assert sec.zombie_hosts == ctr.zombie_hosts

    def test_partitioned_standby_queues_ops_and_catches_up(self):
        engine, fabric, ctr, sec, mgrs = _wired()
        fabric.partition("sec")
        mgrs["lender"].delegate_for_zombie()  # must not fail the primary
        assert ctr.mirror_lag > 0
        assert len(sec.db) == 0
        fabric.heal("sec")
        # No further mutations: the standby's next heartbeat probe
        # piggybacks the replication catch-up.
        engine.run(until=1.5)
        assert ctr.mirror_lag == 0
        assert len(sec.db) == len(ctr.db)
        assert sec.zombie_hosts == ctr.zombie_hosts


class TestFencingEpochs:
    def test_stale_mirror_op_rejected(self):
        _, _, _, sec, _ = _wired()
        seq = sec.mirror_applied_seq + 1

        def mirror(host, epoch, seq):
            return sec.rpc.dispatch(MIRROR_OP, ("zombie_add", (host,)),
                                    {"seq": seq}, stamp=(None, epoch))

        mirror("h1", epoch=1, seq=seq)
        sec.promote(BUFF)  # epoch 1 -> 2
        with pytest.raises(FencingError):
            mirror("h2", epoch=1, seq=seq + 1)
        mirror("h2", epoch=2, seq=seq + 1)  # current
        assert "h2" in sec.zombie_hosts

    def test_manager_rejects_stale_epoch(self):
        _, _, _, _, mgrs = _wired()
        dispatch = mgrs["user"].rpc.dispatch
        assert dispatch(HEARTBEAT, (), {}, stamp=(None, 2)) == "alive"
        with pytest.raises(FencingError):
            dispatch(HEARTBEAT, (), {}, stamp=(None, 1))
        with pytest.raises(FencingError):
            dispatch(Method.US_RECLAIM.value, ([],), {}, stamp=(None, 1))
        # watermark kept
        assert dispatch(HEARTBEAT, (), {}, stamp=(None, 2)) == "alive"

    def test_agent_call_from_deposed_controller_fences_it(self):
        _, _, ctr, _, mgrs = _wired()
        # The rack learned epoch 2.
        mgrs["user"].rpc.dispatch(HEARTBEAT, (), {}, stamp=(None, 2))
        assert not ctr.fenced
        with pytest.raises(FencingError):
            ctr._agent_call("user", Method.HEARTBEAT)  # stamps epoch 1
        assert ctr.fenced
        # Once fenced, every guarded handler rejects — even via RPC.
        client = RpcClient(ctr.node, ctr.rpc)
        with pytest.raises(FencingError):
            client.call(Method.GS_ALLOC_SWAP.value, "user", BUFF)


class TestRackFailoverEndToEnd:
    def _rack(self):
        rack = Rack(["user", "z1"], memory_bytes=64 * MiB, buff_size=4 * MiB)
        rack.make_zombie("z1")
        hv = rack.server("user").hypervisor
        vm = rack.create_vm("user", VmSpec("cvm", 16 * MiB),
                            local_fraction=0.5)
        for ppn in range(vm.spec.total_pages):
            hv.write_page(vm, ppn, b"failover-%04d" % ppn)
        return rack, hv, vm

    def test_promote_reattach_and_fence_old_primary(self):
        rack, hv, vm = self._rack()
        old = rack.controller
        old_epoch = old.epoch
        rack.kill_controller()
        rack.engine.run(until=10.0)

        # The secondary promoted and the rack switched over.
        new = rack.controller
        assert new is not old
        assert new.epoch == old_epoch + 1
        assert rack.secondary.promoted is new
        assert new.known_hosts == {"user", "z1"}
        assert new.zombie_hosts == {"z1"}

        # Old allocations keep working: content survives the failover.
        for ppn in range(vm.spec.total_pages):
            assert hv.read_page(vm, ppn) == b"failover-%04d" % ppn

        # New allocations go through the promoted controller.
        vm2 = rack.create_vm("user", VmSpec("post", 8 * MiB),
                             local_fraction=0.5)
        assert vm2.spec.name == "post"
        assert new.db.by_user("user")

        # The healed old primary is fenced on first contact: its stale
        # epoch is rejected by the agent, and it stops serving.
        with pytest.raises(FencingError):
            old._agent_call("user", Method.HEARTBEAT)
        assert old.fenced
        with pytest.raises(FencingError):
            RpcClient(old.node, old.rpc).call(
                Method.GS_ALLOC_SWAP.value, "user", 4 * MiB
            )
        # Its mirror stream is stale too: the secondary refuses the write.
        old.db.zombie_add("rogue")
        with pytest.raises(FencingError):
            old._pump_mirror()
        assert "rogue" not in rack.secondary.zombie_hosts

    def test_recovery_coordinator_survives_failover(self):
        rack, hv, vm = self._rack()
        rack.kill_controller()
        rack.engine.run(until=10.0)
        assert rack.controller.recovery is rack.recovery
        # Losing the zombie after the failover still invalidates cleanly.
        rack.crash_server("z1")
        assert rack.server("user").manager.report_host_failure("z1")
        assert "z1" in rack.recovery.lost_hosts
        for ppn in range(vm.spec.total_pages):
            assert hv.read_page(vm, ppn) == b"failover-%04d" % ppn
