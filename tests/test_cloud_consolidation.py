"""Neat consolidation cycles, and admission control."""

import pytest

from repro.cloud.admission import AdmissionController
from repro.cloud.model import ClusterModel, HostPowerState, VmInstance
from repro.cloud.neat import NeatConsolidator
from repro.errors import AdmissionError, ConfigurationError
from repro.units import GiB


def _vm(name, cpu=0.2, mem=0.2, cpu_usage=None, mem_usage=None):
    return VmInstance(name, cpu_request=cpu, mem_request=mem,
                      cpu_usage=cpu if cpu_usage is None else cpu_usage,
                      mem_usage=mem if mem_usage is None else mem_usage)


def _cluster_with_underload():
    """h1 busy, h2 underloaded with one small VM, h3 empty."""
    cluster = ClusterModel(["h1", "h2", "h3"])
    cluster.host("h1").add_vm(_vm("busy", cpu=0.5, mem=0.3, cpu_usage=0.5))
    cluster.host("h2").add_vm(_vm("small", cpu=0.1, mem=0.1, cpu_usage=0.05))
    return cluster


class TestNeatDetection:
    def test_underload_detection(self):
        cluster = _cluster_with_underload()
        neat = NeatConsolidator(cluster)
        assert [h.name for h in neat.underloaded_hosts()] == ["h2"]

    def test_empty_hosts_not_underloaded(self):
        cluster = _cluster_with_underload()
        neat = NeatConsolidator(cluster)
        assert "h3" not in [h.name for h in neat.underloaded_hosts()]

    def test_overload_detection(self):
        cluster = ClusterModel(["h1"])
        cluster.host("h1").add_vm(_vm("hog", cpu=0.9, mem=0.2, cpu_usage=0.9))
        neat = NeatConsolidator(cluster)
        assert [h.name for h in neat.overloaded_hosts()] == ["h1"]

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            NeatConsolidator(ClusterModel(["h"]), underload_threshold=0.9,
                             overload_threshold=0.5)


class TestNeatCycle:
    def test_underloaded_host_evacuated_and_suspended(self):
        cluster = _cluster_with_underload()
        neat = NeatConsolidator(cluster, zombie_aware=False)
        report = neat.run_cycle()
        assert report.migrations == 1
        assert "h2" in report.suspended_hosts
        assert cluster.host("h2").state is HostPowerState.SUSPENDED
        assert "small" in cluster.host("h1").vms

    def test_zombie_aware_suspends_to_sz(self):
        cluster = _cluster_with_underload()
        neat = NeatConsolidator(cluster, zombie_aware=True)
        neat.run_cycle()
        assert cluster.host("h2").state is HostPowerState.ZOMBIE
        assert cluster.remote_pool_free > 0

    def test_vanilla_blocked_by_memory(self):
        cluster = ClusterModel(["h1", "h2"])
        cluster.host("h1").add_vm(_vm("big", cpu=0.3, mem=0.8, cpu_usage=0.3))
        cluster.host("h2").add_vm(_vm("small", cpu=0.1, mem=0.5,
                                      cpu_usage=0.05))
        neat = NeatConsolidator(cluster, zombie_aware=False)
        report = neat.run_cycle()
        # small's 0.5 booking does not fit next to big's 0.8
        assert report.failed_migrations >= 1
        assert cluster.host("h2").state is HostPowerState.ON

    def test_zombie_aware_places_with_30pct_wss(self):
        cluster = ClusterModel(["h1", "h2", "h3"])
        cluster.host("h1").add_vm(_vm("big", cpu=0.3, mem=0.8, cpu_usage=0.3))
        cluster.host("h2").add_vm(_vm("small", cpu=0.1, mem=0.5,
                                      cpu_usage=0.05, mem_usage=0.4))
        cluster.suspend("h3", zombie=True)  # provides the remote pool
        neat = NeatConsolidator(cluster, zombie_aware=True)
        report = neat.run_cycle()
        assert report.migrations == 1
        assert cluster.host("h2").state is HostPowerState.ZOMBIE
        moved = cluster.host("h1").vms["small"]
        assert moved.local_mem_fraction < 1.0

    def test_overload_offloads_smallest_vms(self):
        cluster = ClusterModel(["h1", "h2"])
        host = cluster.host("h1")
        host.add_vm(_vm("big", cpu=0.6, mem=0.2, cpu_usage=0.6))
        host.add_vm(_vm("small", cpu=0.3, mem=0.1, cpu_usage=0.3))
        neat = NeatConsolidator(cluster, zombie_aware=False)
        report = neat.run_cycle()
        assert "small" in cluster.host("h2").vms
        assert cluster.host("h1").cpu_utilization <= 0.8

    def test_wakes_zombie_when_no_room(self):
        cluster = ClusterModel(["h1", "h2", "h3"])
        cluster.host("h1").add_vm(_vm("hog1", cpu=0.7, mem=0.2,
                                      cpu_usage=0.85))
        cluster.host("h1").add_vm(_vm("hog2", cpu=0.25, mem=0.2,
                                      cpu_usage=0.1))
        cluster.host("h2").add_vm(_vm("full", cpu=0.9, mem=0.2,
                                      cpu_usage=0.7))
        cluster.suspend("h3", zombie=True)
        neat = NeatConsolidator(cluster, zombie_aware=True)
        report = neat.run_cycle()
        assert "h3" in report.woken_hosts
        assert cluster.host("h3").state is HostPowerState.ON


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
