"""Nova placement on a rack, piece by piece.

A VM's local/remote split, what one host holds, how zombies lend to the
pool, and the filters and weigher ``ZombieStackOrchestrator`` applies
(Section 5.1).  Each host has 256 MiB, of which 224 MiB are free.
"""

import math

import pytest

from repro.acpi.states import SleepState
from repro.cloud.zombiestack import ZombieStackOrchestrator
from repro.core.rack import Rack
from repro.errors import (ConfigurationError, HypervisorError,
                          PlacementError, VmStateError)
from repro.hypervisor.vm import VmSpec
from repro.units import MiB, PAGE_SIZE


def _rack(names=("a", "b", "c")):
    return Rack(list(names), memory_bytes=256 * MiB, buff_size=8 * MiB)


def _spec(name, mem_mib=48, vcpus=8):
    return VmSpec(name, mem_mib * MiB, vcpus=vcpus)


def _pool_free(rack):
    return rack.pool_summary()["free_bytes"]


class TestVmInstance:
    def test_local_remote_split(self):
        rack = _rack()
        rack.make_zombie("c")
        vm = rack.create_vm("a", _spec("v", mem_mib=64), local_fraction=0.5)
        assert vm.local_frames_limit * PAGE_SIZE == 32 * MiB
        assert vm.hypervisor.store_for("v").total_slots * PAGE_SIZE \
            >= 32 * MiB

    def test_invalid_requests(self):
        with pytest.raises(ConfigurationError):
            _spec("v", vcpus=0)
        with pytest.raises(ConfigurationError):
            VmSpec("v", 0)
        with pytest.raises(ConfigurationError):
            _rack().create_vm("a", _spec("v"), local_fraction=1.5)


class TestHostModel:
    def test_aggregates(self):
        rack = _rack()
        orch = ZombieStackOrchestrator(rack, vcpu_capacity=32)
        orch.boot_vm(_spec("v1", vcpus=8))
        orch.boot_vm(_spec("v2", vcpus=4))
        host = rack.server(orch.placements["v1"])
        assert host.vm_count == 2
        assert host.hypervisor.vcpus_booked == 12

    def test_capacity_enforced(self):
        orch = ZombieStackOrchestrator(_rack(("a",)), vcpu_capacity=8)
        orch.boot_vm(_spec("v1", vcpus=6))
        with pytest.raises(PlacementError):
            orch.boot_vm(_spec("v2", vcpus=4))
        assert orch.placements == {"v1": "a"}

    def test_memory_enforced_on_local_part_only(self):
        rack = _rack()
        rack.make_zombie("c")
        # 400 MiB booked on a 256 MiB host: only the 200 MiB local part
        # has to fit there.
        vm = rack.create_vm("a", _spec("v", mem_mib=400), local_fraction=0.5)
        assert vm.local_frames_limit * PAGE_SIZE == 200 * MiB
        with pytest.raises(PlacementError):
            rack.create_vm("b", _spec("w", mem_mib=480), local_fraction=0.5)

    def test_cannot_place_on_sleeping_host(self):
        rack = _rack(("a", "b", "c"))
        rack.make_zombie("b")
        rack.server("c").suspend(SleepState.S3)
        orch = ZombieStackOrchestrator(rack, vcpu_capacity=32)
        for index in range(4):
            orch.boot_vm(_spec(f"v{index}", mem_mib=16))
        assert set(orch.placements.values()) == {"a"}
        assert rack.server("b").is_zombie
        assert rack.server("c").state is SleepState.S3

    def test_remove_unknown(self):
        rack = _rack()
        with pytest.raises(HypervisorError):
            rack.destroy_vm("a", "ghost")


class TestClusterModel:
    def test_suspend_requires_empty_host(self):
        rack = _rack()
        orch = ZombieStackOrchestrator(rack)
        orch.boot_vm(_spec("v"))
        host = orch.placements["v"]
        with pytest.raises(VmStateError):
            rack.make_zombie(host)
        with pytest.raises(VmStateError):
            rack.server(host).suspend(SleepState.S3)
        assert rack.server(host).state is SleepState.S0

    def test_zombie_lends_memory_to_pool(self):
        rack = _rack()
        assert _pool_free(rack) == 0
        rack.make_zombie("b")
        lent = rack.server("b").manager.lent_bytes
        assert lent > 200 * MiB
        assert _pool_free(rack) == lent
        assert [s.name for s in rack.zombie_servers()] == ["b"]

    def test_s3_lends_nothing(self):
        rack = _rack()
        rack.server("b").suspend(SleepState.S3)
        assert rack.server("b").manager.lent_bytes == 0
        assert _pool_free(rack) == 0
        assert rack.zombie_servers() == []

    def test_remote_pool_consumed_by_remote_placements(self):
        rack = _rack()
        rack.make_zombie("c")
        before = _pool_free(rack)
        rack.create_vm("a", _spec("v1", mem_mib=64), local_fraction=0.5)
        rack.create_vm("b", _spec("v2", mem_mib=64), local_fraction=0.75)
        assert before - _pool_free(rack) == (32 + 16) * MiB
        rack.destroy_vm("a", "v1")
        assert before - _pool_free(rack) == 16 * MiB

    def test_wake_with_reclaim(self):
        rack = _rack()
        rack.make_zombie("c")
        server = rack.server("c")
        lent = server.manager.lent_bytes
        rack.wake("c", reclaim_bytes=lent // 2)
        assert server.state is SleepState.S0
        assert 0 < server.manager.lent_bytes < lent
        assert _pool_free(rack) == server.manager.lent_bytes


class TestNovaScheduler:
    def test_relaxed_filter_uses_remote_pool(self):
        rack = _rack()
        rack.make_zombie("c")
        orch = ZombieStackOrchestrator(rack)
        existing = orch.boot_vm(_spec("existing", mem_mib=64))
        hv = rack.server("a").hypervisor
        for ppn in range(existing.spec.total_pages):
            hv.access(existing, ppn)
        free = rack.server("a").free_bytes
        # 'a' holds less than the 300 MiB VM but more than half of it:
        # the relaxed filter lets the loaded host take it, the pool the rest.
        vm = orch.boot_vm(_spec("big", mem_mib=300))
        assert orch.placements["big"] == "a"
        assert vm.local_fraction == pytest.approx(free / (300 * MiB))
        assert vm.store is not None
        assert rack.controller.db.allocated_count_by_host().get("c", 0) > 0

    def test_cpu_filter_always_applies(self):
        rack = _rack()
        rack.make_zombie("c")
        orch = ZombieStackOrchestrator(rack, vcpu_capacity=8)
        orch.boot_vm(_spec("full", vcpus=8))
        orch.boot_vm(_spec("half", vcpus=4))
        # Stacking would pick the fuller host, and the pool could back
        # any memory, but only one host has a vCPU left.
        orch.boot_vm(_spec("one", vcpus=1, mem_mib=8))
        assert orch.placements["one"] == orch.placements["half"]
        assert rack.server("c").is_zombie

    def test_stacking_prefers_loaded_host(self):
        rack = _rack()
        rack.create_vm("b", _spec("existing", vcpus=4), local_fraction=1.0)
        orch = ZombieStackOrchestrator(rack)
        orch.boot_vm(_spec("new", vcpus=4))
        # 'b' is not first by name; it wins because it is the most booked.
        assert orch.placements["new"] == "b"

    def test_invalid_threshold(self):
        for threshold in (1.5, -0.5, math.nan):
            with pytest.raises(ConfigurationError):
                ZombieStackOrchestrator(_rack(), local_threshold=threshold)
        assert ZombieStackOrchestrator(
            _rack(), local_threshold=1.0).local_threshold == 1.0
