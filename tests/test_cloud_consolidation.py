"""Neat consolidation on a rack: which hosts are underloaded, and what
one ``ZombieStackOrchestrator.consolidate()`` cycle does with them
(Section 5.2)."""

import pytest

from repro.acpi.states import SleepState
from repro.cloud.zombiestack import ZombieStackOrchestrator
from repro.core.rack import Rack
from repro.errors import ConfigurationError
from repro.hypervisor.vm import VmSpec
from repro.units import MiB


def _rack(names=("a", "b", "c")):
    return Rack(list(names), memory_bytes=256 * MiB, buff_size=8 * MiB)


def _spec(name, mem_mib=32, vcpus=8):
    return VmSpec(name, mem_mib * MiB, vcpus=vcpus)


def _underloaded_rack():
    """a busy (20 of 32 vCPUs), b underloaded (4), c empty."""
    rack = _rack()
    rack.create_vm("a", _spec("busy", vcpus=20), local_fraction=1.0)
    rack.create_vm("b", _spec("small", vcpus=4), local_fraction=1.0)
    orch = ZombieStackOrchestrator(rack, vcpu_capacity=32,
                                   underload_vcpu_fraction=0.5)
    return rack, orch


class TestNeatDetection:
    def test_underload_detection(self):
        _, orch = _underloaded_rack()
        assert [s.name for s in orch.underloaded_servers()] == ["b"]

    def test_empty_hosts_not_underloaded(self):
        _, orch = _underloaded_rack()
        assert "c" not in [s.name for s in orch.underloaded_servers()]
        idle = ZombieStackOrchestrator(_rack(), underload_vcpu_fraction=1.0)
        assert idle.underloaded_servers() == []

    def test_threshold_validation(self):
        # The limit is strict: a host booked exactly at it is not underloaded.
        rack = _rack()
        rack.create_vm("a", _spec("at", vcpus=8), local_fraction=1.0)
        rack.create_vm("b", _spec("below", vcpus=7), local_fraction=1.0)
        orch = ZombieStackOrchestrator(rack, vcpu_capacity=32,
                                       underload_vcpu_fraction=0.25)
        assert [s.name for s in orch.underloaded_servers()] == ["b"]
        # 1.0 is the top of the range: every host short of full qualifies.
        whole = ZombieStackOrchestrator(rack, vcpu_capacity=32,
                                        underload_vcpu_fraction=1.0)
        assert [s.name for s in whole.underloaded_servers()] == ["a", "b"]
        with pytest.raises(ConfigurationError):
            ZombieStackOrchestrator(rack, underload_vcpu_fraction=1.01)


class TestNeatCycle:
    def test_underloaded_host_evacuated_and_suspended(self):
        rack, orch = _underloaded_rack()
        report = orch.consolidate()
        assert report.migrations == 1
        assert orch.placements["small"] == "a"
        assert "b" in report.new_zombies
        assert rack.server("b").vm_count == 0
        assert rack.server("b").state is not SleepState.S0
        assert rack.server("a").state is SleepState.S0
        assert rack.server("a").hypervisor.vcpus_booked == 24

    def test_zombie_aware_suspends_to_sz(self):
        rack, orch = _underloaded_rack()
        before = rack.pool_summary()["free_bytes"]
        orch.consolidate()
        server = rack.server("b")
        assert server.is_zombie
        assert server.manager.lent_bytes > 0
        assert rack.pool_summary()["free_bytes"] >= \
            before + server.manager.lent_bytes

    def test_wakes_zombie_when_no_room(self):
        rack, orch = _underloaded_rack()
        orch.consolidate()
        assert {s.name for s in rack.zombie_servers()} == {"b", "c"}
        assert rack.active_servers() == [rack.server("a")]
        # 'a' holds 24 of 32 vCPUs: a 16-vCPU VM needs a zombie back, the
        # one the controller names least entangled.
        woken = rack.controller.gs_get_lru_zombie()
        orch.boot_vm(_spec("late", vcpus=16))
        assert orch.placements["late"] == woken
        assert rack.server(woken).state is SleepState.S0
        assert [s.name for s in rack.zombie_servers()] \
            == sorted({"b", "c"} - {woken})
