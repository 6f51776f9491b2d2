"""Oasis [55]: hybrid consolidation with partial VM migration.

After the normal consolidation plan, Oasis selects underused servers
(CPU utilization below a threshold, 20 % in the paper) and *partially
migrates* their idle VMs (CPU < 1 %): only the working set moves to another
server, the remaining memory pages are relocated to a low-power *memory
server* (consuming ~40 % of a regular server), and the source is suspended.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.model import ClusterModel, VmInstance
from repro.cloud.neat import ConsolidationReport, NeatConsolidator
from repro.errors import ConfigurationError

#: An Oasis memory server consumes about 40 % of a regular server (paper
#: assumption taken from the original Oasis work).
MEMORY_SERVER_POWER_FRACTION = 0.40


@dataclass
class OasisReport(ConsolidationReport):
    """Consolidation report extended with partial-migration accounting."""

    partial_migrations: int = 0
    memory_relocated: float = 0.0  # server-memory units on memory servers


class OasisConsolidator(NeatConsolidator):
    """Neat plus the partial-migration post-pass."""

    def __init__(self, cluster: ClusterModel,
                 underload_threshold: float = 0.2,
                 overload_threshold: float = 0.8,
                 working_set_fraction: float = 0.3):
        super().__init__(cluster, underload_threshold, overload_threshold,
                         zombie_aware=False)
        if not 0.0 < working_set_fraction <= 1.0:
            raise ConfigurationError(
                f"working_set_fraction out of (0,1]: {working_set_fraction}"
            )
        self.working_set_fraction = working_set_fraction
        self.memory_server_load = 0.0

    def run_cycle(self) -> OasisReport:
        report = OasisReport()
        # Partial migration of idle VMs runs first: moving just the working
        # set is far cheaper than the full migration Neat would attempt.
        self._partial_pass(report)
        base = super().run_cycle()
        report.migrations = base.migrations
        report.suspended_hosts.extend(base.suspended_hosts)
        report.woken_hosts = base.woken_hosts
        report.failed_migrations = base.failed_migrations
        self.memory_server_load += report.memory_relocated
        return report

    def _partial_pass(self, report: OasisReport) -> None:
        for host in sorted(self.underloaded_hosts(),
                           key=lambda h: (h.cpu_utilization, h.name)):
            idle_vms = [vm for vm in host.vms.values() if vm.idle]
            if not idle_vms or len(idle_vms) != len(host.vms):
                continue  # only fully-idle hosts can be vacated this way
            placed_all = True
            for vm in sorted(idle_vms, key=lambda v: v.name):
                shrunk = self._shrink_to_working_set(vm)
                target = self._placeable(shrunk, exclude=host.name)
                if target is None:
                    placed_all = False
                    break
                host.remove_vm(vm.name)
                target.add_vm(shrunk)
                report.partial_migrations += 1
                report.memory_relocated += (vm.mem_request
                                            - shrunk.mem_request)
            if placed_all and not host.vms:
                self.cluster.suspend(host.name, zombie=False)
                report.suspended_hosts.append(host.name)

    def _shrink_to_working_set(self, vm: VmInstance) -> VmInstance:
        """The partially-migrated VM: only its working set moves."""
        wss = max(0.01, vm.working_set * self.working_set_fraction)
        return VmInstance(
            name=vm.name,
            cpu_request=max(0.01, vm.cpu_usage * 2),  # idle: tiny booking
            mem_request=min(vm.mem_request, wss),
            cpu_usage=vm.cpu_usage,
            mem_usage=min(vm.mem_usage, wss),
        )
