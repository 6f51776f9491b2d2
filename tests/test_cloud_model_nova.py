"""Cluster model and Nova placement."""

import pytest

from repro.cloud.model import (ClusterModel, HostModel, HostPowerState,
                               VmInstance)
from repro.cloud.nova import NovaScheduler
from repro.errors import ConfigurationError, PlacementError


def _vm(name, cpu=0.2, mem=0.3, cpu_usage=0.1, mem_usage=0.2, **kw):
    return VmInstance(name, cpu_request=cpu, mem_request=mem,
                      cpu_usage=cpu_usage, mem_usage=mem_usage, **kw)


class TestVmInstance:
    def test_local_remote_split(self):
        vm = _vm("v", mem=0.4, local_mem_fraction=0.5)
        assert vm.local_mem == pytest.approx(0.2)
        assert vm.remote_mem == pytest.approx(0.2)

    def test_idle_criterion(self):
        assert _vm("v", cpu_usage=0.005).idle
        assert not _vm("v", cpu_usage=0.02).idle

    def test_working_set_falls_back_to_booking(self):
        assert _vm("v", mem=0.4, mem_usage=0.0).working_set == 0.4

    def test_invalid_requests(self):
        with pytest.raises(ConfigurationError):
            _vm("v", cpu=0.0)
        with pytest.raises(ConfigurationError):
            _vm("v", mem=1.5)


class TestHostModel:
    def test_aggregates(self):
        host = HostModel("h")
        host.add_vm(_vm("a", cpu=0.3, mem=0.2))
        host.add_vm(_vm("b", cpu=0.2, mem=0.3))
        assert host.cpu_booked == pytest.approx(0.5)
        assert host.free_cpu == pytest.approx(0.5)
        assert host.free_mem == pytest.approx(0.5)

    def test_capacity_enforced(self):
        host = HostModel("h")
        host.add_vm(_vm("a", cpu=0.9, mem=0.2))
        with pytest.raises(PlacementError):
            host.add_vm(_vm("b", cpu=0.2, mem=0.2))

    def test_memory_enforced_on_local_part_only(self):
        host = HostModel("h")
        host.add_vm(_vm("a", cpu=0.1, mem=0.9, local_mem_fraction=0.3))
        host.add_vm(_vm("b", cpu=0.1, mem=0.9, local_mem_fraction=0.3))
        assert host.free_mem == pytest.approx(1.0 - 2 * 0.27)

    def test_cannot_place_on_sleeping_host(self):
        host = HostModel("h", state=HostPowerState.SUSPENDED)
        with pytest.raises(PlacementError):
            host.add_vm(_vm("a"))

    def test_remove_unknown(self):
        with pytest.raises(PlacementError):
            HostModel("h").remove_vm("ghost")


class TestClusterModel:
    def test_suspend_requires_empty_host(self):
        cluster = ClusterModel(["h1", "h2"])
        cluster.host("h1").add_vm(_vm("a"))
        with pytest.raises(PlacementError):
            cluster.suspend("h1", zombie=True)

    def test_zombie_lends_memory_to_pool(self):
        cluster = ClusterModel(["h1", "h2"])
        cluster.suspend("h2", zombie=True)
        assert cluster.remote_pool_free == pytest.approx(0.94)
        assert cluster.zombie_hosts()[0].name == "h2"

    def test_s3_lends_nothing(self):
        cluster = ClusterModel(["h1", "h2"])
        cluster.suspend("h2", zombie=False)
        assert cluster.remote_pool_free == 0.0

    def test_remote_pool_consumed_by_remote_placements(self):
        cluster = ClusterModel(["h1", "h2"])
        cluster.suspend("h2", zombie=True)
        cluster.host("h1").add_vm(_vm("a", mem=0.5, local_mem_fraction=0.5))
        assert cluster.remote_pool_free == pytest.approx(0.94 - 0.25)

    def test_wake_with_reclaim(self):
        cluster = ClusterModel(["h1", "h2"])
        cluster.suspend("h2", zombie=True)
        host = cluster.wake("h2", reclaim=0.5)
        assert host.state is HostPowerState.ON
        assert host.lent_mem == pytest.approx(0.44)


class TestNovaScheduler:
    def test_vanilla_requires_full_booking(self):
        cluster = ClusterModel(["h1"])
        cluster.host("h1").add_vm(_vm("existing", cpu=0.1, mem=0.6))
        nova = NovaScheduler(cluster, remote_memory_aware=False)
        with pytest.raises(PlacementError):
            nova.place(_vm("big", cpu=0.1, mem=0.6))

    def test_relaxed_filter_uses_remote_pool(self):
        cluster = ClusterModel(["h1", "h2"])
        cluster.suspend("h2", zombie=True)
        cluster.host("h1").add_vm(_vm("existing", cpu=0.1, mem=0.6))
        nova = NovaScheduler(cluster, remote_memory_aware=True)
        host = nova.place(_vm("big", cpu=0.1, mem=0.6))
        assert host.name == "h1"
        vm = host.vms["big"]
        assert vm.local_mem_fraction < 1.0

    def test_relaxed_filter_still_needs_half_locally(self):
        cluster = ClusterModel(["h1", "h2"])
        cluster.suspend("h2", zombie=True)
        cluster.host("h1").add_vm(_vm("existing", cpu=0.1, mem=0.8))
        nova = NovaScheduler(cluster, local_threshold=0.5)
        with pytest.raises(PlacementError):
            nova.place(_vm("big", cpu=0.1, mem=0.6))

    def test_relaxed_filter_needs_pool_capacity(self):
        cluster = ClusterModel(["h1"])  # no zombie: empty pool
        cluster.host("h1").add_vm(_vm("existing", cpu=0.1, mem=0.6))
        nova = NovaScheduler(cluster, remote_memory_aware=True)
        with pytest.raises(PlacementError):
            nova.place(_vm("big", cpu=0.1, mem=0.6))

    def test_cpu_filter_always_applies(self):
        cluster = ClusterModel(["h1", "h2"])
        cluster.suspend("h2", zombie=True)
        cluster.host("h1").add_vm(_vm("existing", cpu=0.9, mem=0.1))
        nova = NovaScheduler(cluster)
        with pytest.raises(PlacementError):
            nova.place(_vm("big", cpu=0.2, mem=0.1))

    def test_stacking_prefers_loaded_host(self):
        cluster = ClusterModel(["h1", "h2"])
        cluster.host("h1").add_vm(_vm("existing", cpu=0.3, mem=0.1))
        nova = NovaScheduler(cluster, remote_memory_aware=False,
                             stacking=True)
        assert nova.place(_vm("new", cpu=0.1, mem=0.1)).name == "h1"

    def test_spreading_prefers_empty_host(self):
        cluster = ClusterModel(["h1", "h2"])
        cluster.host("h1").add_vm(_vm("existing", cpu=0.3, mem=0.1))
        nova = NovaScheduler(cluster, remote_memory_aware=False,
                             stacking=False)
        assert nova.place(_vm("new", cpu=0.1, mem=0.1)).name == "h2"

    def test_fully_local_when_room(self):
        cluster = ClusterModel(["h1", "h2"])
        cluster.suspend("h2", zombie=True)
        nova = NovaScheduler(cluster)
        host = nova.place(_vm("v", cpu=0.1, mem=0.3))
        assert host.vms["v"].local_mem_fraction == 1.0

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            NovaScheduler(ClusterModel(["h"]), local_threshold=0.0)
