"""The ZombieStack orchestrator over a real rack, and admission control."""

import math

import pytest

from repro.acpi.states import SleepState
from repro.cloud.admission import AdmissionController
from repro.cloud.zombiestack import ZombieStackOrchestrator
from repro.core.rack import Rack
from repro.errors import (AdmissionError, AllocationError, ConfigurationError,
                          PlacementError)
from repro.hypervisor.vm import VmSpec
from repro.units import GiB, MiB, PAGE_SIZE


def _rack(names=("a", "b", "c")):
    return Rack(list(names), memory_bytes=256 * MiB, buff_size=8 * MiB)


def _spec(name, mem_mib=48, vcpus=8):
    return VmSpec(name, mem_mib * MiB, vcpus=vcpus)


class TestPlacement:
    def test_boot_places_and_tracks(self):
        orch = ZombieStackOrchestrator(_rack())
        vm = orch.boot_vm(_spec("web"))
        assert orch.placements["web"] in ("a", "b", "c")
        assert vm.local_fraction >= 0.5

    def test_stacking_fills_one_host_first(self):
        orch = ZombieStackOrchestrator(_rack(), vcpu_capacity=32)
        orch.boot_vm(_spec("v1", mem_mib=16))
        orch.boot_vm(_spec("v2", mem_mib=16))
        assert orch.placements["v1"] == orch.placements["v2"]

    def test_vcpu_filter_spreads_when_full(self):
        orch = ZombieStackOrchestrator(_rack(), vcpu_capacity=8)
        orch.boot_vm(_spec("v1", vcpus=8))
        orch.boot_vm(_spec("v2", vcpus=8))
        assert orch.placements["v1"] != orch.placements["v2"]

    def test_admission_blocks_remote_overcommit(self):
        rack = _rack(("a", "b"))
        orch = ZombieStackOrchestrator(rack)
        orch.admission.resize_rack(64 * MiB)  # tiny guaranteed pool
        orch.boot_vm(_spec("v1", mem_mib=64))
        with pytest.raises(AdmissionError):
            orch.boot_vm(_spec("v2", mem_mib=64))

    def test_failed_placement_releases_admission(self):
        orch = ZombieStackOrchestrator(_rack(("a",)), vcpu_capacity=8)
        orch.boot_vm(_spec("v1", vcpus=8))
        with pytest.raises(PlacementError):
            orch.boot_vm(_spec("v2", vcpus=8))
        assert "v2" not in orch.admission.reservations

    def test_admitted_boot_is_refused_before_the_pool_runs_short(self):
        # Hypothesis once drew this for test_cluster_never_overcommits:
        # the filter counted a's own pool buffers (never granted to a) and
        # b's and c's slack in bytes (lent in whole buffers only), so a
        # passed, GS_alloc_ext ran 1 buffer short and the AllocationError
        # kept vm1's reservation.
        orch = ZombieStackOrchestrator(_rack(), vcpu_capacity=16)
        orch.boot_vm(VmSpec("vm0", 425 * MiB, vcpus=1))
        with pytest.raises(PlacementError):
            orch.boot_vm(VmSpec("vm1", 433 * MiB, vcpus=1))
        assert list(orch.admission.reservations) == ["vm0"]

    def test_any_failed_boot_releases_admission(self):
        rack = _rack()
        orch = ZombieStackOrchestrator(rack)

        def refuse(*args, **kwargs):
            raise AllocationError("the pool ran short")

        rack.create_vm = refuse
        with pytest.raises(AllocationError):
            orch.boot_vm(_spec("v1"))
        assert not orch.admission.reservations

    def test_wakes_zombie_when_rack_is_tight(self):
        rack = _rack()
        orch = ZombieStackOrchestrator(rack, vcpu_capacity=8)
        rack.make_zombie("c")
        orch.boot_vm(_spec("v1", vcpus=8))
        orch.boot_vm(_spec("v2", vcpus=8))
        # a and b are vCPU-full: the third VM needs c back.
        orch.boot_vm(_spec("v3", vcpus=8))
        assert not rack.server("c").is_zombie
        assert orch.placements["v3"] == "c"

    def test_stop_vm_releases_everything(self):
        orch = ZombieStackOrchestrator(_rack())
        orch.boot_vm(_spec("v1"))
        orch.stop_vm("v1")
        assert "v1" not in orch.placements
        assert "v1" not in orch.admission.reservations
        with pytest.raises(PlacementError):
            orch.stop_vm("v1")

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            ZombieStackOrchestrator(_rack(), local_threshold=0.0)
        with pytest.raises(ConfigurationError):
            ZombieStackOrchestrator(_rack(), vcpu_capacity=0)
        # At or below 0 no host is ever underloaded, so consolidation
        # would be silently off.
        for fraction in (0.0, -0.25, 1.5, math.nan):
            with pytest.raises(ConfigurationError):
                ZombieStackOrchestrator(_rack(),
                                        underload_vcpu_fraction=fraction)


class TestRelaxedPlacement:
    """Nova's RAM filter relaxed to 50 % local memory (Section 5.1).

    Each host has 224 MiB free; where a rack has more than one server the
    last one is a zombie whose memory backs the remote part.
    """

    @staticmethod
    def _orchestrator(names, threshold):
        rack = _rack(names)
        if len(names) > 1:
            rack.make_zombie(names[-1])
        return rack, ZombieStackOrchestrator(rack, local_threshold=threshold)

    @pytest.mark.parametrize("mem_mib, local_fraction", [
        (320, 0.7),  # larger than any host's free RAM: 96 MiB go remote
        (64, 1.0),   # fits: fully local, nothing borrowed
    ], ids=["remote-part-on-zombie", "fully-local-when-room"])
    def test_placed(self, mem_mib, local_fraction):
        rack, orch = self._orchestrator(("a", "b", "c"), 0.5)
        pool_before = rack.pool_summary()["free_bytes"]
        vm = orch.boot_vm(_spec("vm", mem_mib=mem_mib))
        assert vm.local_fraction == pytest.approx(local_fraction)
        remote = vm.spec.memory_bytes - vm.local_frames_limit * PAGE_SIZE
        assert pool_before - rack.pool_summary()["free_bytes"] == remote
        lenders = rack.controller.db.allocated_count_by_host()
        assert {h for h, n in lenders.items() if n} == ({"c"} if remote else set())

    @pytest.mark.parametrize("names, threshold, mem_mib", [
        (("a", "b", "c"), 0.5, 480),  # 240 MiB local needed, 224 free
        (("a",), 0.5, 320),           # no pool and no peer to lend 96 MiB
        (("a", "b", "c"), 1.0, 320),  # full booking: what 0.5 places
    ], ids=["half-does-not-fit", "pool-cannot-cover-remote", "full-booking"])
    def test_refused(self, names, threshold, mem_mib):
        _, orch = self._orchestrator(names, threshold)
        with pytest.raises(PlacementError):
            orch.boot_vm(_spec("vm", mem_mib=mem_mib))
        assert "vm" not in orch.placements
        assert "vm" not in orch.admission.reservations


class TestConsolidation:
    def test_underload_detection(self):
        orch = ZombieStackOrchestrator(_rack(), vcpu_capacity=32,
                                       underload_vcpu_fraction=0.5)
        orch.boot_vm(_spec("small", vcpus=4))
        assert [s.name for s in orch.underloaded_servers()] \
            == [orch.placements["small"]]

    def test_cycle_migrates_and_parks_in_sz(self):
        rack = _rack()
        orch = ZombieStackOrchestrator(rack, vcpu_capacity=32,
                                       underload_vcpu_fraction=0.5)
        v1 = orch.boot_vm(_spec("v1", vcpus=12, mem_mib=32))
        # Force v2 onto a different host to create an underloaded one.
        orch.vcpu_capacity = 16
        v2 = orch.boot_vm(_spec("v2", vcpus=8, mem_mib=32))
        host1, host2 = orch.placements["v1"], orch.placements["v2"]
        assert host1 != host2
        # Touch some pages so the migration has real state to move.
        for name, vm in (("v1", v1), ("v2", v2)):
            hv = rack.server(orch.placements[name]).hypervisor
            for ppn in range(0, vm.spec.total_pages, 4):
                hv.access(vm, ppn)

        orch.vcpu_capacity = 32
        report = orch.consolidate()
        # Both hosts were underloaded: the cycle packs everything onto the
        # fewest hosts and parks the emptied ones in Sz.
        assert report.migrations >= 1
        assert report.new_zombies
        assert all(rack.server(name).is_zombie
                   for name in report.new_zombies)
        assert orch.placements["v1"] == orch.placements["v2"]
        assert rack.pool_summary()["free_bytes"] > 0

    def test_second_cycle_after_convergence_migrates_nothing(self):
        rack = _rack()
        orch = ZombieStackOrchestrator(rack, vcpu_capacity=12,
                                       underload_vcpu_fraction=0.5)
        orch.boot_vm(_spec("v1", vcpus=12, mem_mib=32))
        orch.boot_vm(_spec("v2", vcpus=4, mem_mib=32))
        orch.vcpu_capacity = 32
        assert orch.consolidate().migrations >= 1
        again = orch.consolidate()
        assert again.migrations == 0
        assert again.new_zombies == [] and again.demoted_to_s3 == []

    def test_migration_target_needs_room_for_resident_pages_only(self):
        rack = _rack()
        rack.make_zombie("c")
        orch = ZombieStackOrchestrator(rack, vcpu_capacity=24,
                                       underload_vcpu_fraction=0.5)
        anchor = orch.boot_vm(_spec("anchor", vcpus=24, mem_mib=16))
        big = orch.boot_vm(_spec("big", vcpus=4, mem_mib=320))
        assert orch.placements == {"anchor": "a", "big": "b"}
        hv_a = rack.server("a").hypervisor
        for ppn in range(anchor.spec.total_pages):
            hv_a.access(anchor, ppn)
        hv_b = rack.server("b").hypervisor
        for ppn in range(16):
            hv_b.access(big, ppn)
        # 'a' has room for big's 16 resident pages, not for its 224 MiB
        # local part, let alone its 320 MiB booking.
        assert rack.server("a").free_bytes < big.local_frames_limit * PAGE_SIZE
        orch.vcpu_capacity = 32
        report = orch.consolidate()
        assert report.migrations == 1
        assert orch.placements["big"] == "a"
        assert rack.server("b").state is not SleepState.S0

    def test_periodic_consolidation_on_the_engine(self):
        rack = _rack()
        orch = ZombieStackOrchestrator(rack, vcpu_capacity=32,
                                       underload_vcpu_fraction=0.5,
                                       consolidation_period_s=60.0)
        orch.vcpu_capacity = 16
        orch.boot_vm(_spec("v1", vcpus=12, mem_mib=32))
        orch.boot_vm(_spec("v2", vcpus=4, mem_mib=32))
        orch.vcpu_capacity = 32
        rack.engine.run(until=61.0)
        assert len(rack.zombie_servers()) >= 1

    def test_full_cycle_boot_consolidate_boot(self):
        """Consolidation frees a host; a later burst wakes it again."""
        rack = _rack()
        orch = ZombieStackOrchestrator(rack, vcpu_capacity=12,
                                       underload_vcpu_fraction=0.5)
        orch.boot_vm(_spec("v1", vcpus=12, mem_mib=32))
        orch.boot_vm(_spec("v2", vcpus=4, mem_mib=32))
        orch.vcpu_capacity = 16
        orch.consolidate()
        zombies_mid = len(rack.zombie_servers())
        assert zombies_mid >= 1
        # Burst: needs more vCPUs than the remaining active hosts hold.
        orch.boot_vm(_spec("burst1", vcpus=12, mem_mib=32))
        orch.boot_vm(_spec("burst2", vcpus=12, mem_mib=32))
        assert len(rack.zombie_servers()) < zombies_mid


class TestSleeperHandling:
    """Regression tests for bugs the metered-day benchmark surfaced."""

    def test_active_servers_excludes_s3(self):
        from repro.acpi.states import SleepState
        rack = _rack()
        rack.server("c").suspend(SleepState.S3)
        names = {s.name for s in rack.active_servers()}
        assert names == {"a", "b"}

    def test_consolidate_never_zombifies_a_sleeper(self):
        from repro.acpi.states import SleepState
        rack = _rack()
        orch = ZombieStackOrchestrator(rack)
        rack.server("c").suspend(SleepState.S3)
        orch.consolidate()  # must not call go_zombie on the S3 server
        assert rack.server("c").state is SleepState.S3

    def test_placement_wakes_s3_sleeper_when_no_zombie(self):
        from repro.acpi.states import SleepState
        rack = _rack()
        orch = ZombieStackOrchestrator(rack, vcpu_capacity=8)
        rack.server("b").suspend(SleepState.S3)
        rack.server("c").suspend(SleepState.S3)
        orch.boot_vm(_spec("v1", vcpus=8))
        # 'a' is full and no zombies exist: the S3 sleeper must come back.
        orch.boot_vm(_spec("v2", vcpus=8))
        assert orch.placements["v2"] in ("b", "c")
        woken = orch.placements["v2"]
        assert rack.server(woken).state is SleepState.S0


class TestAdmission:
    def test_admit_within_capacity(self):
        ctrl = AdmissionController(10 * GiB, safety_fraction=0.9)
        ctrl.admit("vm1", 4 * GiB)
        ctrl.admit("vm2", 4 * GiB)
        assert ctrl.available_bytes == 1 * GiB

    def test_overcommit_refused(self):
        ctrl = AdmissionController(10 * GiB, safety_fraction=0.9)
        ctrl.admit("vm1", 8 * GiB)
        with pytest.raises(AdmissionError):
            ctrl.admit("vm2", 2 * GiB)

    def test_double_admit_refused(self):
        ctrl = AdmissionController(10 * GiB)
        ctrl.admit("vm1", GiB)
        with pytest.raises(AdmissionError):
            ctrl.admit("vm1", GiB)

    def test_release_frees_capacity(self):
        ctrl = AdmissionController(10 * GiB)
        ctrl.admit("vm1", 8 * GiB)
        assert ctrl.release("vm1") == 8 * GiB
        ctrl.admit("vm2", 8 * GiB)

    def test_release_unknown_refused(self):
        with pytest.raises(AdmissionError):
            AdmissionController(GiB).release("ghost")

    def test_shrink_below_reservations_refused(self):
        ctrl = AdmissionController(10 * GiB)
        ctrl.admit("vm1", 8 * GiB)
        with pytest.raises(AdmissionError):
            ctrl.resize_rack(5 * GiB)

    def test_grow_rack(self):
        ctrl = AdmissionController(10 * GiB)
        ctrl.resize_rack(20 * GiB)
        ctrl.admit("vm1", 15 * GiB)
