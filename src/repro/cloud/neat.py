"""OpenStack-Neat-style dynamic consolidation, vanilla and zombie-aware.

The four Neat steps (Section 5.2): find underloaded hosts (evacuate and
suspend them), find overloaded hosts (offload until healthy), select the
VMs to migrate, place them.  The ZombieStack variant changes two things:

- placement only requires 30 % of a VM's *working set* locally (vanilla
  requires the full booking);
- evacuated hosts go to **Sz** (their memory joins the rack pool) instead
  of S3, and when a host must be woken, ``GS_get_lru_zombie`` semantics
  pick the zombie with the least lent memory in use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cloud.model import (ClusterModel, HostModel, HostPowerState,
                               VmInstance)
from repro.cloud.nova import NovaScheduler
from repro.errors import ConfigurationError, PlacementError


@dataclass
class ConsolidationReport:
    """What one consolidation cycle did."""

    migrations: int = 0
    suspended_hosts: List[str] = field(default_factory=list)
    woken_hosts: List[str] = field(default_factory=list)
    failed_migrations: int = 0


class NeatConsolidator:
    """One consolidation engine, parameterized by the zombie awareness."""

    def __init__(self, cluster: ClusterModel,
                 underload_threshold: float = 0.2,
                 overload_threshold: float = 0.8,
                 zombie_aware: bool = False,
                 wss_local_fraction: float = 0.3):
        if not 0.0 < underload_threshold < overload_threshold <= 1.0:
            raise ConfigurationError(
                "need 0 < underload < overload <= 1"
            )
        self.cluster = cluster
        self.underload_threshold = underload_threshold
        self.overload_threshold = overload_threshold
        self.zombie_aware = zombie_aware
        self.wss_local_fraction = wss_local_fraction
        self.scheduler = NovaScheduler(
            cluster, remote_memory_aware=zombie_aware, stacking=True
        )

    # -- detection (Neat steps 1-2) -----------------------------------------
    def underloaded_hosts(self) -> List[HostModel]:
        return [h for h in self.cluster.on_hosts()
                if h.vms and h.cpu_utilization < self.underload_threshold]

    def overloaded_hosts(self) -> List[HostModel]:
        return [h for h in self.cluster.on_hosts()
                if h.cpu_utilization > self.overload_threshold]

    # -- VM selection (Neat step 3) -----------------------------------------
    def select_vms_for_offload(self, host: HostModel) -> List[VmInstance]:
        """Smallest-first VMs whose removal clears the overload."""
        ordered = sorted(host.vms.values(),
                         key=lambda vm: (vm.cpu_usage, vm.name))
        selected: List[VmInstance] = []
        load = host.cpu_utilization
        for vm in ordered:
            if load <= self.overload_threshold:
                break
            selected.append(vm)
            load -= vm.cpu_usage / host.cpu_capacity
        return selected

    # -- placement (Neat step 4) -------------------------------------------
    def _placeable(self, vm: VmInstance, exclude: str) -> Optional[HostModel]:
        candidates = [h for h in self.scheduler.filter_hosts(vm)
                      if h.name != exclude]
        if self.zombie_aware:
            # The relaxed constraint: 30 % of the working set locally.
            needed = vm.working_set * self.wss_local_fraction
            candidates = [h for h in self.cluster.on_hosts()
                          if h.name != exclude
                          and vm.cpu_request <= h.free_cpu + 1e-9
                          and needed <= h.free_mem + 1e-9]
        ranked = self.scheduler.weigh(candidates)
        return ranked[0] if ranked else None

    def _wake_target(self, report: ConsolidationReport) -> Optional[HostModel]:
        """Wake a host for placements that found no room."""
        if self.zombie_aware:
            zombies = self.cluster.zombie_hosts()
            if zombies:
                # GS_get_lru_zombie: least lent memory in use.
                target = min(zombies, key=lambda h: (h.lent_mem, h.name))
                self.cluster.wake(target.name, reclaim=target.lent_mem)
                report.woken_hosts.append(target.name)
                return target
        suspended = [h for h in self.cluster.hosts.values()
                     if h.state is HostPowerState.SUSPENDED]
        if suspended:
            target = sorted(suspended, key=lambda h: h.name)[0]
            self.cluster.wake(target.name)
            report.woken_hosts.append(target.name)
            return target
        return None

    def _migrate(self, vm: VmInstance, source: HostModel,
                 report: ConsolidationReport) -> bool:
        target = self._placeable(vm, exclude=source.name)
        if target is None:
            target = self._wake_target(report)
            if target is None or target.name == source.name:
                report.failed_migrations += 1
                return False
            if vm.cpu_request > target.free_cpu + 1e-9:
                report.failed_migrations += 1
                return False
        source.remove_vm(vm.name)
        if self.zombie_aware:
            local = min(1.0, max(self.wss_local_fraction,
                                 target.free_mem / vm.mem_request))
            vm.local_mem_fraction = local
        else:
            vm.local_mem_fraction = 1.0
        try:
            target.add_vm(vm)
        except PlacementError:
            source.add_vm(vm)  # roll back
            report.failed_migrations += 1
            return False
        report.migrations += 1
        return True

    # -- the cycle ---------------------------------------------------------
    def run_cycle(self) -> ConsolidationReport:
        """One full Neat pass: offload overloads, evacuate underloads."""
        report = ConsolidationReport()
        for host in self.overloaded_hosts():
            for vm in self.select_vms_for_offload(host):
                self._migrate(vm, host, report)
        # Evacuate the least-loaded hosts first: best odds of emptying.
        for host in sorted(self.underloaded_hosts(),
                           key=lambda h: (h.cpu_utilization, h.name)):
            vms = sorted(host.vms.values(), key=lambda vm: vm.name)
            moved = all(self._migrate(vm, host, report) for vm in vms)
            if moved and not host.vms:
                self.cluster.suspend(host.name, zombie=self.zombie_aware)
                report.suspended_hosts.append(host.name)
        return report
