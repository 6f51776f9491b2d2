"""The ZombieStack orchestrator: the cloud OS driving a *real* rack.

Ties the pieces of Section 5 together against a
:class:`~repro.core.rack.Rack`: remote-memory-aware placement
with the 50 % local threshold, admission control over guaranteed
RAM-Extension reservations, wake-up of the least-entangled zombie
(``GS_get_lru_zombie``) when placement fails, and a consolidation cycle
that live-migrates VMs off underloaded hosts and parks the emptied hosts
in Sz.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cloud.admission import AdmissionController
from repro.core.rack import Rack
from repro.core.server import RackServer
from repro.errors import ConfigurationError, PlacementError
from repro.hypervisor.vm import Vm, VmSpec
from repro.sim.process import PeriodicProcess
from repro.units import buffers_for

#: Default vCPU capacity of one rack server.
DEFAULT_VCPU_CAPACITY = 32


@dataclass
class OrchestratorReport:
    """What one consolidation cycle did."""

    migrations: int = 0
    new_zombies: List[str] = field(default_factory=list)
    demoted_to_s3: List[str] = field(default_factory=list)


class ZombieStackOrchestrator:
    """Placement + consolidation over a live rack."""

    def __init__(self, rack: Rack,
                 local_threshold: float = 0.5,
                 vcpu_capacity: int = DEFAULT_VCPU_CAPACITY,
                 underload_vcpu_fraction: float = 0.25,
                 consolidation_period_s: Optional[float] = None):
        if not 0.0 < local_threshold <= 1.0:
            raise ConfigurationError(
                f"local_threshold out of (0,1]: {local_threshold}"
            )
        if vcpu_capacity <= 0:
            raise ConfigurationError("vcpu_capacity must be positive")
        if not 0.0 < underload_vcpu_fraction <= 1.0:
            raise ConfigurationError(
                f"underload_vcpu_fraction out of (0,1]: "
                f"{underload_vcpu_fraction}"
            )
        self.rack = rack
        self.local_threshold = local_threshold
        self.vcpu_capacity = vcpu_capacity
        self.underload_vcpu_fraction = underload_vcpu_fraction
        total_memory = sum(s.platform.memory_bytes
                           for s in rack.servers.values())
        self.admission = AdmissionController(total_memory)
        self.placements: Dict[str, str] = {}  # vm name -> host
        self._consolidator: Optional[PeriodicProcess] = None
        if consolidation_period_s is not None:
            self._consolidator = PeriodicProcess(
                rack.engine, consolidation_period_s,
                self.consolidate, name="zombiestack-consolidation",
            )
            self._consolidator.start()

    # -- placement ----------------------------------------------------------
    def _local_fraction(self, server: RackServer, spec: VmSpec) -> float:
        """The share of ``spec`` placed on ``server``: everything that fits
        locally, never less than the threshold (the Nova weigher's
        behaviour)."""
        return min(1.0, max(self.local_threshold,
                            server.free_bytes / spec.memory_bytes))

    def _candidates(self, spec: VmSpec) -> List[RackServer]:
        """Hosts passing the CPU filter and the relaxed RAM filter."""
        needed_local = int(spec.memory_bytes * self.local_threshold)
        controller = self.rack.controller
        buff_size = controller.buff_size
        free = [controller.db.free_buckets(zombie) for zombie in (True, False)]
        active = self.rack.active_servers()
        out = []
        for server in active:
            hv = server.hypervisor
            if hv.vcpus_booked + spec.vcpus > self.vcpu_capacity:
                continue
            if needed_local > server.free_bytes:
                continue
            # Whatever does not fit locally must be coverable remotely, in
            # whole buffers: by free pool buffers *another* host serves
            # (the controller never grants a host its own memory) or by
            # buffers carved out of other active servers' slack
            # (AS_get_free_mem lends whole buffers only).
            local = int(spec.memory_bytes * self._local_fraction(server, spec))
            remote_needed = buffers_for(spec.memory_bytes - local, buff_size)
            pooled = sum(len(ids) for tier in free
                         for host, ids in tier.items() if host != server.name)
            lendable = sum(
                int(peer.free_bytes
                    * (1.0 - peer.manager.lend_reserve_fraction))
                // buff_size
                for peer in active if peer.name != server.name
            )
            if remote_needed > pooled + lendable:
                continue
            out.append(server)
        # Stacking: most-booked first (consolidation-friendly).
        out.sort(key=lambda s: (-s.hypervisor.vcpus_booked, s.name))
        return out

    def boot_vm(self, spec: VmSpec, policy: str = "Mixed") -> Vm:
        """Admit and place a VM, waking a zombie if the rack is tight.

        The guaranteed remote part (``(1 - threshold) * memory``) passes
        admission control before any placement is attempted.
        """
        remote_part = spec.memory_bytes - int(spec.memory_bytes
                                              * self.local_threshold)
        self.admission.admit(spec.name, remote_part)
        try:
            return self._place(spec, policy)
        except Exception:
            # Not placed, whatever the reason: the reservation goes too.
            self.admission.release(spec.name)
            raise

    def _place(self, spec: VmSpec, policy: str) -> Vm:
        candidates = self._candidates(spec)
        if not candidates:
            woken = self._wake_lru_zombie()
            if woken is None:
                raise PlacementError(
                    f"no host for VM {spec.name!r} and no zombie to wake"
                )
            candidates = self._candidates(spec)
            if not candidates:
                raise PlacementError(
                    f"no host for VM {spec.name!r} even after waking "
                    f"{woken}"
                )
        server = candidates[0]
        host = server.name
        vm = self.rack.create_vm(
            host, spec, local_fraction=self._local_fraction(server, spec),
            policy=policy)
        self.placements[spec.name] = host
        return vm

    def _wake_lru_zombie(self) -> Optional[str]:
        """Wake the zombie with the least allocated memory (Section 5.2).

        Falls back to resuming an S3 sleeper (Wake-on-LAN) when no zombie
        exists — servers previously demoted below Sz are still capacity.
        """
        target = self.rack.controller.gs_get_lru_zombie()
        if target is not None:
            server = self.rack.server(target)
            self.rack.wake(target, reclaim_bytes=server.manager.lent_bytes)
            return target
        from repro.acpi.states import SleepState
        sleepers = sorted(
            (s for s in self.rack.servers.values()
             if s.state in (SleepState.S3, SleepState.S4)),
            key=lambda s: s.name,
        )
        if not sleepers:
            return None
        self.rack.fabric.wake_on_lan(sleepers[0].name)
        sleepers[0].manager.announce_wake()
        return sleepers[0].name

    def stop_vm(self, name: str) -> None:
        host = self.placements.pop(name, None)
        if host is None:
            raise PlacementError(f"unknown VM {name!r}")
        self.rack.destroy_vm(host, name)
        self.admission.release(name)

    # -- consolidation --------------------------------------------------
    def underloaded_servers(self) -> List[RackServer]:
        """Active servers whose vCPU booking is below the threshold."""
        limit = self.vcpu_capacity * self.underload_vcpu_fraction
        return [s for s in self.rack.active_servers()
                if s.vm_count and s.hypervisor.vcpus_booked < limit]

    def consolidate(self) -> OrchestratorReport:
        """One cycle: evacuate underloaded hosts, park them in Sz.

        Afterwards, idle hosts that never held a VM are parked too ("by
        default, all inactive servers are pushed into Sz"), always keeping
        at least one active server as headroom.
        """
        report = OrchestratorReport()
        for server in sorted(self.underloaded_servers(),
                             key=lambda s: (s.hypervisor.vcpus_booked,
                                            s.name)):
            if self._evacuate(server, report):
                server.go_zombie()
                report.new_zombies.append(server.name)
        empty = sorted(
            (s for s in self.rack.active_servers() if s.vm_count == 0),
            key=lambda s: s.name,
        )
        active_count = len(self.rack.active_servers())
        for server in empty:
            if active_count <= 1:
                break
            server.go_zombie()
            report.new_zombies.append(server.name)
            active_count -= 1
        self.demote_surplus_zombies(report)
        return report

    def demote_surplus_zombies(self, report: Optional[OrchestratorReport]
                               = None) -> List[str]:
        """Push unneeded zombies all the way down to S3 (Section 4.4).

        "If the global-mem-ctr holds huge amounts of free memory (e.g. more
        than the total memory of a rack server), the cloud manager may
        decide to transition zombie servers to S3 for further reducing the
        energy consumption."  A zombie qualifies when none of its buffers
        are allocated and the pool would still hold more than one server's
        memory of slack without it.
        """
        from repro.acpi.states import SleepState
        demoted: List[str] = []
        server_mem = max(s.platform.memory_bytes
                         for s in self.rack.servers.values())
        counts = self.rack.controller.db.allocated_count_by_host()
        for server in sorted(self.rack.zombie_servers(),
                             key=lambda s: s.name):
            if counts.get(server.name, 0) > 0:
                continue  # its memory is in use: must stay in Sz
            pool_free = self.rack.pool_summary()["free_bytes"]
            if pool_free - server.manager.lent_bytes < server_mem:
                break  # keep at least one server's worth of slack in Sz
            # Wake briefly to run the reclaim protocol, then drop to S3.
            self.rack.wake(server.name,
                           reclaim_bytes=server.manager.lent_bytes)
            server.suspend(SleepState.S3)
            demoted.append(server.name)
            if report is not None:
                report.demoted_to_s3.append(server.name)
        return demoted

    def _evacuate(self, source: RackServer,
                  report: OrchestratorReport) -> bool:
        for vm_name in sorted(source.hypervisor.vms):
            vm = source.hypervisor.vms[vm_name]
            target = self._migration_target(source, vm)
            if target is None:
                return False
            self.rack.migrate_vm(vm_name, source.name, target.name)
            self.placements[vm_name] = target.name
            report.migrations += 1
        return source.vm_count == 0

    def _migration_target(self, source: RackServer,
                          vm: Vm) -> Optional[RackServer]:
        """The relaxed migration constraint (Section 5.2).

        The VM's remote part stays wherever it already is (ownership
        transfer), so the target only needs room for the VM's measured
        resident pages, not for its whole booking.
        """
        from repro.units import PAGE_SIZE
        needed_local = vm.table.resident_pages * PAGE_SIZE
        for server in self.rack.active_servers():
            if server.name == source.name:
                continue
            hv = server.hypervisor
            if hv.vcpus_booked + vm.spec.vcpus > self.vcpu_capacity:
                continue
            if needed_local > server.free_bytes:
                continue
            return server
        return None
