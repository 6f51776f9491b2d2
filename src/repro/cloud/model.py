"""Cluster model for the cloud schedulers.

Resources are normalized to one server (capacity 1.0 CPU, 1.0 memory), the
Google-trace convention.  A VM books resources and exposes its actual
utilization; a host aggregates its VMs and tracks its power state; the
cluster tracks the rack-wide remote-memory pool contributed by zombies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import ConfigurationError, PlacementError


class HostPowerState(enum.Enum):
    """The power states the cloud layer steers hosts through."""

    ON = "S0"
    SUSPENDED = "S3"
    ZOMBIE = "Sz"
    OFF = "S5"


@dataclass
class VmInstance:
    """One VM as the cloud layer sees it."""

    name: str
    cpu_request: float
    mem_request: float
    cpu_usage: float = 0.0
    mem_usage: float = 0.0
    #: Fraction of booked memory that must be local on the host (the
    #: remainder may live in remote buffers).  1.0 = fully local.
    local_mem_fraction: float = 1.0

    def __post_init__(self) -> None:
        for name in ("cpu_request", "mem_request"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ConfigurationError(
                    f"VM {self.name!r}: {name} out of (0, 1]"
                )
        if not 0.0 <= self.local_mem_fraction <= 1.0:
            raise ConfigurationError(
                f"VM {self.name!r}: local_mem_fraction out of [0, 1]"
            )

    @property
    def local_mem(self) -> float:
        return self.mem_request * self.local_mem_fraction

    @property
    def remote_mem(self) -> float:
        return self.mem_request - self.local_mem

    @property
    def working_set(self) -> float:
        """Approximate WSS: the memory the VM actually touches."""
        return self.mem_usage if self.mem_usage > 0 else self.mem_request

    @property
    def idle(self) -> bool:
        """Oasis's idle criterion: CPU utilization below 1 % of a server."""
        return self.cpu_usage < 0.01


@dataclass
class HostModel:
    """One server from the scheduler's point of view."""

    name: str
    cpu_capacity: float = 1.0
    mem_capacity: float = 1.0
    state: HostPowerState = HostPowerState.ON
    vms: Dict[str, VmInstance] = field(default_factory=dict)
    #: Memory this host lends to the rack pool (only meaningful when
    #: ZOMBIE or when an active server shares slack).
    lent_mem: float = 0.0

    # -- aggregates --------------------------------------------------------
    @property
    def cpu_booked(self) -> float:
        return sum(vm.cpu_request for vm in self.vms.values())

    @property
    def mem_booked_local(self) -> float:
        return sum(vm.local_mem for vm in self.vms.values())

    @property
    def cpu_used(self) -> float:
        return sum(vm.cpu_usage for vm in self.vms.values())

    @property
    def cpu_utilization(self) -> float:
        return self.cpu_used / self.cpu_capacity

    @property
    def free_cpu(self) -> float:
        return self.cpu_capacity - self.cpu_booked

    @property
    def free_mem(self) -> float:
        return self.mem_capacity - self.mem_booked_local - self.lent_mem

    # -- mutations ---------------------------------------------------------
    def add_vm(self, vm: VmInstance) -> None:
        if self.state is not HostPowerState.ON:
            raise PlacementError(
                f"host {self.name}: cannot place on a {self.state.value} host"
            )
        if vm.name in self.vms:
            raise PlacementError(f"host {self.name}: duplicate VM {vm.name}")
        if vm.cpu_request > self.free_cpu + 1e-9:
            raise PlacementError(
                f"host {self.name}: CPU exhausted for VM {vm.name}"
            )
        if vm.local_mem > self.free_mem + 1e-9:
            raise PlacementError(
                f"host {self.name}: memory exhausted for VM {vm.name}"
            )
        self.vms[vm.name] = vm

    def remove_vm(self, name: str) -> VmInstance:
        vm = self.vms.pop(name, None)
        if vm is None:
            raise PlacementError(f"host {self.name}: unknown VM {name}")
        return vm


class ClusterModel:
    """The rack/DC as the schedulers see it."""

    def __init__(self, host_names: List[str]):
        if not host_names:
            raise ConfigurationError("cluster needs at least one host")
        self.hosts: Dict[str, HostModel] = {
            name: HostModel(name) for name in host_names
        }

    def host(self, name: str) -> HostModel:
        try:
            return self.hosts[name]
        except KeyError:
            raise ConfigurationError(f"unknown host {name!r}") from None

    def on_hosts(self) -> List[HostModel]:
        return [h for h in self.hosts.values()
                if h.state is HostPowerState.ON]

    def zombie_hosts(self) -> List[HostModel]:
        return [h for h in self.hosts.values()
                if h.state is HostPowerState.ZOMBIE]

    @property
    def remote_pool_free(self) -> float:
        """Rack remote memory not yet consumed by remote placements."""
        lent = sum(h.lent_mem for h in self.hosts.values())
        used = sum(vm.remote_mem for h in self.hosts.values()
                   for vm in h.vms.values())
        return lent - used

    def wake(self, name: str, reclaim: float = 0.0) -> HostModel:
        """Bring a suspended/zombie host back to ON, reclaiming memory."""
        host = self.host(name)
        if host.state is HostPowerState.ON:
            return host
        host.state = HostPowerState.ON
        host.lent_mem = max(0.0, host.lent_mem - reclaim)
        return host

    def suspend(self, name: str, zombie: bool) -> HostModel:
        """Push an empty host to Sz (lending its memory) or S3."""
        host = self.host(name)
        if host.vms:
            raise PlacementError(
                f"host {name}: {len(host.vms)} VMs still placed"
            )
        if zombie:
            host.state = HostPowerState.ZOMBIE
            host.lent_mem = host.mem_capacity * 0.94  # keep a small reserve
        else:
            host.state = HostPowerState.SUSPENDED
            host.lent_mem = 0.0
        return host
