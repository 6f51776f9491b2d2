"""Live VM migration: vanilla pre-copy vs. the ZombieStack protocol.

Vanilla pre-copy iterates over the VM's *entire* memory a fixed number of
rounds, re-sending pages dirtied during each round; its duration is
dominated by total VM memory and barely moves with the working-set size —
exactly what Fig. 9 shows.

ZombieStack migration (Section 5.3) stops the VM, copies only the *local*
(hot) pages to the destination, and leaves the remote (cold) part where it
is — only ownership pointers for the remote buffers are updated.  Its
duration therefore grows with the WSS (which bounds the local resident set)
and stays below vanilla, with the largest win at small WSS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, MigrationError
from repro.hypervisor.vm import Vm, VmState
from repro.units import PAGE_SIZE

#: Effective migration link bandwidth, bytes/second (10 GbE-class with
#: protocol overhead; migrations use the datacenter network, not RDMA).
DEFAULT_BANDWIDTH = 1.0e9
#: Fixed pre-copy round count (the paper: "the number of iterations
#: performed by the hypervisor for transferring dirty pages is fixed").
PRECOPY_ROUNDS = 5
#: Fraction of the working set redirtied during one pre-copy round.
REDIRTY_FRACTION = 0.12
#: Constant protocol cost: connection setup, listening VM creation, resume.
SETUP_TIME_S = 0.8
#: Time to update ownership pointers for one remote buffer lease.
OWNERSHIP_UPDATE_S = 0.002


@dataclass(frozen=True)
class MigrationResult:
    """Outcome of one migration."""

    protocol: str
    total_time_s: float
    downtime_s: float
    pages_transferred: int
    remote_pages_kept: int = 0


def migrate_native(total_pages: int, wss_pages: int,
                   bandwidth: float = DEFAULT_BANDWIDTH) -> MigrationResult:
    """Vanilla iterative pre-copy of a ``total_pages`` VM."""
    _validate(total_pages, wss_pages, bandwidth)
    page_time = PAGE_SIZE / bandwidth
    transferred = total_pages  # round 1: everything
    dirty = int(wss_pages * REDIRTY_FRACTION)
    for _ in range(PRECOPY_ROUNDS - 1):
        transferred += dirty
    # Stop-and-copy of the final dirty set.
    transferred += dirty
    downtime = dirty * page_time + 0.05
    return MigrationResult(
        protocol="native",
        total_time_s=SETUP_TIME_S + transferred * page_time,
        downtime_s=downtime,
        pages_transferred=transferred,
    )


def migrate_zombiestack(local_resident_pages: int, remote_pages: int,
                        remote_leases: int = 1,
                        bandwidth: float = DEFAULT_BANDWIDTH) -> MigrationResult:
    """ZombieStack post-copy-style migration: hot local pages only.

    The VM is stopped, its local resident pages are copied, the remote
    buffers' ownership pointers are switched to the destination, and the VM
    resumes — remote (cold) memory never moves.
    """
    if local_resident_pages < 0 or remote_pages < 0 or remote_leases < 0:
        raise ConfigurationError("page/lease counts must be non-negative")
    if bandwidth <= 0:
        raise ConfigurationError(f"bandwidth must be positive, got {bandwidth}")
    page_time = PAGE_SIZE / bandwidth
    copy_time = local_resident_pages * page_time
    ownership = remote_leases * OWNERSHIP_UPDATE_S
    total = SETUP_TIME_S + copy_time + ownership
    return MigrationResult(
        protocol="zombiestack",
        total_time_s=total,
        # Stop-and-copy: the VM is down while its active part moves.
        downtime_s=copy_time + ownership,
        pages_transferred=local_resident_pages,
        remote_pages_kept=remote_pages,
    )


def migrate_vm_zombiestack(vm: Vm, remote_leases: int = 1,
                           bandwidth: float = DEFAULT_BANDWIDTH) -> MigrationResult:
    """Object-level wrapper: migrate a live :class:`Vm` by its real paging
    state (resident vs. remote page counts)."""
    if vm.state not in (VmState.RUNNING, VmState.PAUSED):
        raise MigrationError(f"VM {vm.name!r} is {vm.state.value}; cannot migrate")
    vm.transition(VmState.MIGRATING)
    try:
        return migrate_zombiestack(vm.table.resident_pages,
                                   vm.table.remote_pages,
                                   remote_leases, bandwidth)
    finally:
        vm.transition(VmState.RUNNING)


def _validate(total_pages: int, wss_pages: int, bandwidth: float) -> None:
    if total_pages <= 0:
        raise ConfigurationError(f"total_pages must be positive, got {total_pages}")
    if not 0 <= wss_pages <= total_pages:
        raise ConfigurationError(
            f"wss_pages {wss_pages} out of [0, {total_pages}]"
        )
    if bandwidth <= 0:
        raise ConfigurationError(f"bandwidth must be positive, got {bandwidth}")
