"""End-to-end integration: the full stack working together.

These tests exercise the complete paper pipeline — OSPM suspend path →
memory delegation → controller allocation → hypervisor paging over real
RDMA verbs → reclaim on wake → controller failover — with content checks
at every step.
"""

import pytest

from repro.acpi.states import SleepState
from repro.cloud.zombiestack import ZombieStackOrchestrator
from repro.core.rack import Rack
from repro.errors import RdmaError
from repro.hypervisor.vm import VmSpec
from repro.units import MiB


class TestFullPipeline:
    def test_zombie_lifecycle_with_live_vm(self):
        """VM pages to a zombie, zombie wakes and reclaims, VM survives."""
        rack = Rack(["user", "z1", "z2"], memory_bytes=256 * MiB,
                    buff_size=8 * MiB)
        rack.make_zombie("z1")
        rack.make_zombie("z2")

        vm = rack.create_vm("user", VmSpec("vm", 64 * MiB),
                            local_fraction=0.5)
        hv = rack.server("user").hypervisor
        # Touch everything twice: force demotion and remote fills.
        for _ in range(2):
            for ppn in range(vm.spec.total_pages):
                hv.access(vm, ppn)
        stats = hv.stats("vm")
        assert stats.evictions > 0
        assert stats.remote_fills > 0

        # Striping: both zombies should serve buffers.
        store = hv.store_for("vm")
        hosts = {lease.host for lease in store.leases()}
        assert hosts == {"z1", "z2"}

        # Wake z1 and take all its memory back; pages must survive.
        rack.wake("z1", reclaim_bytes=256 * MiB)
        for ppn in range(vm.spec.total_pages):
            hv.access(vm, ppn)
        assert rack.server("z1").manager.lent_bytes == 0

    def test_sz_serves_while_s3_does_not(self):
        rack = Rack(["user", "sleeper"], memory_bytes=128 * MiB,
                    buff_size=8 * MiB)
        rack.make_zombie("sleeper")
        vm = rack.create_vm("user", VmSpec("vm", 32 * MiB),
                            local_fraction=0.5)
        hv = rack.server("user").hypervisor
        for ppn in range(vm.spec.total_pages):
            hv.access(vm, ppn)
        # Force the sleeper all the way down to S3: remote access must die.
        platform = rack.server("sleeper").platform
        platform.firmware.enter_sleep(SleepState.S3)
        platform.remote_ok = platform._compute_remote_ok()
        demoted = next(p for p in range(vm.spec.total_pages)
                       if not vm.table.entry(p).present)
        with pytest.raises(RdmaError):
            hv.access(vm, demoted)

    def test_failover_mid_workload(self):
        rack = Rack(["user", "zombie"], memory_bytes=128 * MiB,
                    buff_size=8 * MiB)
        rack.make_zombie("zombie")
        vm = rack.create_vm("user", VmSpec("vm", 32 * MiB),
                            local_fraction=0.5)
        hv = rack.server("user").hypervisor
        for ppn in range(vm.spec.total_pages):
            hv.access(vm, ppn)

        rack.kill_controller()
        rack.engine.run(until=10.0)
        assert rack.secondary.promoted is not None

        # Data path unaffected (one-sided verbs bypass the controller)...
        for ppn in range(vm.spec.total_pages):
            hv.access(vm, ppn)
        # ...and the control plane works against the new primary.
        rack.destroy_vm("user", "vm")
        assert rack.pool_summary()["free_bytes"] > 0

    def test_two_user_servers_share_one_zombie(self):
        rack = Rack(["u1", "u2", "zombie"], memory_bytes=256 * MiB,
                    buff_size=8 * MiB)
        rack.make_zombie("zombie")
        vm1 = rack.create_vm("u1", VmSpec("vm1", 48 * MiB),
                             local_fraction=0.5)
        vm2 = rack.create_vm("u2", VmSpec("vm2", 48 * MiB),
                             local_fraction=0.5)
        for server, vm in (("u1", vm1), ("u2", vm2)):
            hv = rack.server(server).hypervisor
            for ppn in range(vm.spec.total_pages):
                hv.access(vm, ppn)
        summary = rack.pool_summary()
        assert summary["free_bytes"] < summary["total_bytes"]

    def test_energy_ordering_on_the_real_rack(self):
        """Sz draws less than idle S0 but more than S3, on real boards."""
        rack = Rack(["a", "b", "c"], memory_bytes=128 * MiB)
        s0_power = rack.total_power_watts()
        rack.make_zombie("c")
        sz_power = rack.total_power_watts()
        rack.wake("c")
        rack.server("c").suspend(SleepState.S3)
        s3_power = rack.total_power_watts()
        assert s3_power < sz_power < s0_power


class TestConsolidationIntegration:
    @staticmethod
    def _spread(names, vms):
        """One VM per host, in order, each with one page of known bytes."""
        rack = Rack(names, memory_bytes=256 * MiB, buff_size=8 * MiB)
        orch = ZombieStackOrchestrator(rack, vcpu_capacity=32,
                                       underload_vcpu_fraction=0.4)
        for name, vcpus, mem_mib in vms:
            orch.vcpu_capacity = vcpus  # no booked host has room: a fresh one
            vm = orch.boot_vm(VmSpec(name, mem_mib * MiB, vcpus=vcpus))
            rack.server(orch.placements[name]).hypervisor.write_page(
                vm, 1, name.encode())
        orch.vcpu_capacity = 32
        return rack, orch

    @staticmethod
    def _contents_survive(rack, orch):
        for name, host in orch.placements.items():
            hv = rack.server(host).hypervisor
            assert hv.read_page(hv.vms[name], 1) == name.encode()

    def test_neat_cycle_shrinks_cluster_then_serves_memory(self):
        """Consolidation evacuates underloaded hosts into Sz, then the
        memory they lend backs a remote placement."""
        rack, orch = self._spread(
            [f"h{i}" for i in range(4)],
            [("busy", 24, 64), ("small", 4, 32), ("tiny", 2, 32)])
        report = orch.consolidate()
        assert report.migrations >= 2
        assert set(report.new_zombies) >= {"h1", "h2"}
        zombies = {s.name for s in rack.zombie_servers()}
        assert zombies
        assert rack.pool_summary()["free_bytes"] > 0
        self._contents_survive(rack, orch)

        # A new VM whose memory exceeds any active host's free RAM.
        biggest_free = max(s.free_bytes for s in rack.active_servers())
        big = orch.boot_vm(VmSpec("big", biggest_free + 96 * MiB))
        assert big.local_fraction < 1.0
        lenders = rack.controller.db.allocated_count_by_host()
        assert {h for h, n in lenders.items() if n} <= zombies

    def test_repeated_cycles_are_stable(self):
        rack, orch = self._spread(
            [f"h{i}" for i in range(6)],
            [(f"vm{i}", 4, 32) for i in range(6)])
        first = orch.consolidate()
        second = orch.consolidate()
        # After convergence, further cycles stop churning.
        assert first.migrations > 0
        assert second.migrations == 0
        assert len(set(orch.placements.values())) < 6
        self._contents_survive(rack, orch)
