"""Rack assembly: server roles, Sz transitions, VM creation, failover."""

import pytest

from repro.acpi.states import SleepState
from repro.core.rack import Rack
from repro.core.server import ServerRole
from repro.errors import (ConfigurationError, PlacementError, VmStateError)
from repro.hypervisor.vm import VmSpec
from repro.units import MiB, PAGE_SIZE


class TestConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Rack(["a", "a"])

    def test_empty_rack_rejected(self):
        with pytest.raises(ConfigurationError):
            Rack([])

    def test_controller_nodes_exist(self, small_rack):
        assert "global-mem-ctr" in small_rack.fabric.nodes
        assert "secondary-ctr" in small_rack.fabric.nodes

    def test_unknown_server_lookup(self, small_rack):
        with pytest.raises(ConfigurationError):
            small_rack.server("nope")


class TestZombieTransitions:
    def test_go_zombie_delegates_memory(self, small_rack):
        small_rack.make_zombie("s3")
        server = small_rack.server("s3")
        assert server.is_zombie
        assert server.manager.lent_bytes > 0
        assert small_rack.pool_summary()["zombie_hosts"] == 1
        assert ServerRole.ZOMBIE in server.roles()

    def test_zombie_with_vms_refused(self, rack_with_zombie):
        rack = rack_with_zombie
        rack.create_vm("s1", VmSpec("v", 32 * MiB), local_fraction=0.5)
        with pytest.raises(VmStateError):
            rack.make_zombie("s1")

    def test_wake_reclaims(self, rack_with_zombie):
        rack = rack_with_zombie
        server = rack.server("s3")
        lent = server.manager.lent_bytes
        latency = rack.wake("s3", reclaim_bytes=lent)
        assert latency == SleepState.SZ.wake_latency_s
        assert server.manager.lent_bytes == 0
        assert not server.is_zombie

    def test_partial_reclaim_keeps_lending(self, rack_with_zombie):
        rack = rack_with_zombie
        server = rack.server("s3")
        lent = server.manager.lent_bytes
        rack.wake("s3", reclaim_bytes=rack.buff_size)
        assert server.manager.lent_bytes == lent - rack.buff_size
        assert ServerRole.ACTIVE in server.roles()

    def test_zombie_lists(self, rack_with_zombie):
        rack = rack_with_zombie
        assert [s.name for s in rack.zombie_servers()] == ["s3"]
        assert {s.name for s in rack.active_servers()} == {"s1", "s2"}


class TestVmOperations:
    def test_create_vm_with_remote_memory(self, rack_with_zombie):
        rack = rack_with_zombie
        vm = rack.create_vm("s1", VmSpec("v", 64 * MiB), local_fraction=0.5)
        assert vm.local_frames_limit == (32 * MiB) // PAGE_SIZE
        store = rack.server("s1").hypervisor.store_for("v")
        assert store.total_slots >= (32 * MiB) // PAGE_SIZE
        assert ServerRole.USER in rack.server("s1").roles()

    def test_fully_local_vm_needs_no_store(self, small_rack):
        vm = small_rack.create_vm("s1", VmSpec("v", 32 * MiB),
                                  local_fraction=1.0)
        assert small_rack.server("s1").hypervisor.store_for("v") is None

    def test_oversized_local_part_refused(self, rack_with_zombie):
        rack = rack_with_zombie
        with pytest.raises(PlacementError):
            rack.create_vm("s1", VmSpec("v", 4096 * MiB), local_fraction=1.0)

    def test_invalid_fraction(self, small_rack):
        with pytest.raises(ConfigurationError):
            small_rack.create_vm("s1", VmSpec("v", 32 * MiB),
                                 local_fraction=0.0)

    def test_destroy_vm_releases_buffers(self, rack_with_zombie):
        rack = rack_with_zombie
        rack.create_vm("s1", VmSpec("v", 64 * MiB), local_fraction=0.5)
        free_before = rack.pool_summary()["free_bytes"]
        rack.destroy_vm("s1", "v")
        assert rack.pool_summary()["free_bytes"] > free_before

    def test_vm_paging_through_the_rack(self, rack_with_zombie):
        rack = rack_with_zombie
        vm = rack.create_vm("s1", VmSpec("v", 16 * MiB), local_fraction=0.5)
        hv = rack.server("s1").hypervisor
        for ppn in range(vm.spec.total_pages):
            hv.access(vm, ppn)
        stats = hv.stats("v")
        assert stats.evictions > 0
        assert rack.fabric.stats.writes > 0


class TestFailover:
    def test_kill_and_promote(self, rack_with_zombie):
        rack = rack_with_zombie
        old = rack.controller
        rack.kill_controller()
        rack.engine.run(until=10.0)
        assert rack.secondary.promoted is not None
        assert rack.controller is not old

    def test_rack_functional_after_failover(self, rack_with_zombie):
        rack = rack_with_zombie
        rack.kill_controller()
        rack.engine.run(until=10.0)
        # allocation still works against the promoted controller
        vm = rack.create_vm("s1", VmSpec("v", 32 * MiB), local_fraction=0.5)
        assert vm is not None
        assert rack.controller.gs_get_lru_zombie() == "s3"

    def test_zombie_survives_failover(self, rack_with_zombie):
        rack = rack_with_zombie
        lent_before = rack.pool_summary()["total_bytes"]
        rack.kill_controller()
        rack.engine.run(until=10.0)
        assert rack.pool_summary()["total_bytes"] == lent_before


class TestPower:
    def test_zombie_cuts_rack_power(self, small_rack):
        before = small_rack.total_power_watts()
        small_rack.make_zombie("s3")
        assert small_rack.total_power_watts() < before


class TestLenderFrameConservation:
    """``used_frames`` == frames behind lent buffers + VM-resident frames.

    The per-frame set gave this for free; the extent map must still give
    it across every path that carves or returns a buffer's frame run.
    """

    @staticmethod
    def _assert_conserved(rack):
        for server in rack.servers.values():
            assert server.unaccounted_frames == 0, server.name
            assert (server.allocator.free_frames + server.allocator.used_frames
                    == server.allocator.total_frames), server.name

    def _borrowing_rack(self):
        rack = Rack(["user", "z1", "z2"], memory_bytes=128 * MiB,
                    buff_size=8 * MiB)
        rack.make_zombie("z1")
        rack.make_zombie("z2")
        vm = rack.create_vm("user", VmSpec("vm", 48 * MiB),
                            local_fraction=0.5)
        hv = rack.server("user").hypervisor
        for ppn in range(vm.spec.total_pages):
            hv.access(vm, ppn, write=True)
        return rack, vm, hv

    def test_zombie_borrow_wake_reclaim(self):
        rack, vm, hv = self._borrowing_rack()
        self._assert_conserved(rack)
        z1 = rack.server("z1")
        assert z1.manager.lent_frames == z1.allocator.used_frames > 0
        rack.wake("z1", reclaim_bytes=z1.manager.lent_bytes // 2)
        self._assert_conserved(rack)
        assert 0 < z1.manager.lent_frames < z1.allocator.total_frames
        rack.wake("z2", reclaim_bytes=rack.server("z2").manager.lent_bytes)
        assert rack.server("z2").allocator.used_frames == 0
        for ppn in range(vm.spec.total_pages):
            hv.access(vm, ppn)
        self._assert_conserved(rack)
        rack.destroy_vm("user", "vm")
        self._assert_conserved(rack)
        assert rack.server("user").allocator.used_frames == 0

    def test_crash_reset_then_resync(self):
        rack, vm, hv = self._borrowing_rack()
        rack.start_host_monitoring(probe_period_s=0.5, miss_threshold=3)
        rack.crash_server("z1")
        rack.engine.run(until=5.0)
        self._assert_conserved(rack)           # records held while down
        rack.heal_server("z1")                 # reset_after_crash
        z1 = rack.server("z1")
        assert z1.allocator.used_frames == 0 == z1.manager.lent_frames
        rack.engine.run(until=12.0)            # AS_resync: nothing left
        self._assert_conserved(rack)
        rack.make_zombie("z1")                 # the freed runs carve again
        assert z1.manager.lent_frames == z1.allocator.total_frames
        self._assert_conserved(rack)

    def test_partition_heal_resync_drops_stale_runs(self):
        rack, vm, hv = self._borrowing_rack()
        rack.start_host_monitoring(probe_period_s=0.5, miss_threshold=3)
        rack.fabric.partition("z1")
        rack.engine.run(until=5.0)
        rack.fabric.heal("z1")
        rack.engine.run(until=12.0)
        z1 = rack.server("z1")
        assert z1.manager.lent_frames > 0      # stale, CPU still off
        rack.wake("z1")
        rack.engine.run(until=14.0)            # AS_resync frees the runs
        assert z1.manager.lent_frames == 0 == z1.allocator.used_frames
        self._assert_conserved(rack)

    def test_migration_between_lender_and_user(self):
        rack = Rack(["a", "b", "z"], memory_bytes=128 * MiB,
                    buff_size=8 * MiB)
        rack.make_zombie("z")
        vm = rack.create_vm("a", VmSpec("vm", 32 * MiB), local_fraction=0.5)
        hv = rack.server("a").hypervisor
        for ppn in range(vm.spec.total_pages):
            hv.access(vm, ppn, write=True)
        rack.migrate_vm("vm", "a", "b")       # adopt_vm backs pages by a run
        self._assert_conserved(rack)
        hv_b = rack.server("b").hypervisor
        for ppn in range(vm.spec.total_pages):
            hv_b.access(vm, ppn)               # evictions free run frames singly
        self._assert_conserved(rack)
        rack.destroy_vm("b", "vm")
        assert rack.server("b").allocator.used_frames == 0


class TestMonitoringParameters:
    """Host monitoring is validated where its parameters enter, before
    anything is changed."""

    def _assert_rejected(self, **params):
        rack = Rack(["a", "b"], memory_bytes=32 * MiB, buff_size=8 * MiB)
        with pytest.raises(ConfigurationError):
            rack.start_host_monitoring(**params)
        assert rack.recovery.miss_threshold == 3
        assert rack.engine.pending() == 1  # the standby's heartbeat only

    def test_zero_miss_threshold_rejected(self):
        self._assert_rejected(miss_threshold=0)

    def test_zero_probe_period_rejected(self):
        self._assert_rejected(probe_period_s=0.0)

    def test_nan_probe_period_rejected(self):
        self._assert_rejected(probe_period_s=float("nan"))

    def test_negative_probe_period_rejected(self):
        self._assert_rejected(probe_period_s=-1.0)

    def test_coordinator_rejects_an_infinite_period(self):
        rack = Rack(["a", "b"], memory_bytes=32 * MiB, buff_size=8 * MiB)
        with pytest.raises(ConfigurationError):
            rack.recovery.start(probe_period_s=float("inf"), miss_threshold=3)
