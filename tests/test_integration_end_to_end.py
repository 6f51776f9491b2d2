"""End-to-end integration: the full stack working together.

These tests exercise the complete paper pipeline — OSPM suspend path →
memory delegation → controller allocation → hypervisor paging over real
RDMA verbs → reclaim on wake → controller failover — with content checks
at every step.
"""

import pytest

from repro.acpi.states import SleepState
from repro.cloud.model import ClusterModel, HostPowerState, VmInstance
from repro.cloud.neat import NeatConsolidator
from repro.core.rack import Rack
from repro.errors import RdmaError
from repro.hypervisor.vm import VmSpec
from repro.units import MiB, PAGE_SIZE


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
    def test_neat_cycle_shrinks_cluster_then_serves_memory(self):
        """Zombie-aware Neat: evacuate, suspend to Sz, then the freed
        memory backs a remote placement."""
        cluster = ClusterModel([f"h{i}" for i in range(4)])
        cluster.host("h0").add_vm(VmInstance("busy", 0.5, 0.4,
                                             cpu_usage=0.5, mem_usage=0.3))
        cluster.host("h1").add_vm(VmInstance("small", 0.1, 0.1,
                                             cpu_usage=0.05, mem_usage=0.05))
        cluster.host("h2").add_vm(VmInstance("tiny", 0.05, 0.1,
                                             cpu_usage=0.03, mem_usage=0.05))
        neat = NeatConsolidator(cluster, zombie_aware=True)
        report = neat.run_cycle()
        assert report.suspended_hosts
        zombies = cluster.zombie_hosts()
        assert zombies
        assert cluster.remote_pool_free > 0

        # New VM whose memory exceeds any single host's free RAM.
        from repro.cloud.nova import NovaScheduler
        nova = NovaScheduler(cluster)
        big = VmInstance("big", 0.2, 0.8, cpu_usage=0.1, mem_usage=0.5)
        host = nova.place(big)
        assert big.local_mem_fraction < 1.0

    def test_repeated_cycles_are_stable(self):
        cluster = ClusterModel([f"h{i}" for i in range(6)])
        for i in range(6):
            cluster.host(f"h{i}").add_vm(VmInstance(
                f"vm{i}", 0.1, 0.15, cpu_usage=0.05, mem_usage=0.1
            ))
        neat = NeatConsolidator(cluster, zombie_aware=True)
        first = neat.run_cycle()
        second = neat.run_cycle()
        # After convergence, further cycles stop churning.
        assert second.migrations <= first.migrations
        on = [h for h in cluster.on_hosts() if h.vms]
        assert len(on) < 6
