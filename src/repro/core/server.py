"""A rack server: platform + hypervisor + remote-mem-mgr, with role tracking.

The paper's five roles (Fig. 7): global controller and secondary controller
are dedicated machines (built by :mod:`~repro.core.rack`); every other
server is a *user* (consumes remote memory), *active* (serves remote memory
from S0), or *zombie* (serves remote memory from Sz) — and can be several
of these at once except zombie, which excludes running VMs.
"""

from __future__ import annotations

import enum

from repro.acpi.platform import ServerPlatform, build_platform
from repro.acpi.states import SleepState
from repro.core.manager import RemoteMemoryManager
from repro.errors import ConfigurationError, VmStateError
from repro.hypervisor.kvm import Hypervisor
from repro.memory.frames import FrameAllocator
from repro.rdma.fabric import Fabric, RdmaNode
from repro.units import DEFAULT_BUFF_SIZE, GiB, PAGE_SIZE, pages


class ServerRole(enum.Enum):
    """The paper's rack roles."""

    GLOBAL_CONTROLLER = "global-mem-ctr"
    SECONDARY_CONTROLLER = "secondary-ctr"
    USER = "user"
    ACTIVE = "active"
    ZOMBIE = "zombie"


#: Memory the host OS / hypervisor keeps for itself (never lent, never
#: given to VMs), capped at 1/8 of RAM for the scaled-down configurations
#: experiments run with.
DEFAULT_HOST_RESERVE = 1 * GiB


class RackServer:
    """One general-purpose server in the rack."""

    def __init__(self, name: str, fabric: Fabric,
                 memory_bytes: int = 16 * GiB,
                 buff_size: int = DEFAULT_BUFF_SIZE):
        if memory_bytes <= 0:
            raise ConfigurationError(
                f"{name}: memory_bytes must be positive, got {memory_bytes}"
            )
        self.name = name
        self.platform: ServerPlatform = build_platform(
            name, memory_bytes=memory_bytes
        )
        self.node: RdmaNode = fabric.add_node(name, platform=self.platform)
        usable = memory_bytes - min(DEFAULT_HOST_RESERVE, memory_bytes // 8)
        self.allocator = FrameAllocator(pages(usable))
        self.hypervisor = Hypervisor(name, self.allocator,
                                     telemetry=fabric.telemetry)
        self.manager = RemoteMemoryManager(name, self.node, self.allocator,
                                           buff_size=buff_size)
        # Sz entry triggers memory delegation from inside the suspend path
        # (Section 4.3: the OS "signals its remote-mem-mgr to trigger
        # memory delegation").
        self.platform.ospm.pre_sleep_hook = self._pre_sleep

    # -- introspection --------------------------------------------------
    @property
    def state(self) -> SleepState:
        return self.platform.state

    @property
    def is_zombie(self) -> bool:
        return self.platform.is_zombie

    @property
    def vm_count(self) -> int:
        return len(self.hypervisor.vms)

    @property
    def free_bytes(self) -> int:
        return self.allocator.free_frames * PAGE_SIZE

    @property
    def unaccounted_frames(self) -> int:
        """Frames handed out that no lent buffer and no VM accounts for.

        Zero whenever lender-side bookkeeping conserves frames: every
        allocated frame backs either a lent buffer's run or a VM's
        resident page.
        """
        held = self.manager.lent_frames + sum(
            vm.local_frames_used for vm in self.hypervisor.vms.values())
        return self.allocator.used_frames - held

    def roles(self) -> set:
        """The dynamic role set of this server right now."""
        roles = set()
        if self.is_zombie:
            roles.add(ServerRole.ZOMBIE)
        elif self.state is SleepState.S0:
            if self.manager.lent_bytes > 0:
                roles.add(ServerRole.ACTIVE)
            if self.manager._stores_by_buffer:
                roles.add(ServerRole.USER)
        return roles

    # -- power transitions -----------------------------------------------
    def go_zombie(self) -> None:
        """Suspend into Sz, delegating all free memory on the way down."""
        if self.vm_count:
            raise VmStateError(
                f"{self.name}: {self.vm_count} VMs still running; "
                "consolidate before suspending"
            )
        self.platform.go_zombie()

    def suspend(self, target: SleepState) -> None:
        if self.vm_count:
            raise VmStateError(
                f"{self.name}: {self.vm_count} VMs still running"
            )
        self.platform.suspend(target)

    def wake(self, reclaim_bytes: int = 0) -> float:
        """Resume to S0 and optionally reclaim lent memory.

        Returns the wake latency in seconds.
        """
        latency = self.platform.wake()
        self.manager.announce_wake()
        if reclaim_bytes > 0:
            self.manager.reclaim_bytes(reclaim_bytes)
        return latency

    def _pre_sleep(self, target: SleepState) -> None:
        if target is SleepState.SZ:
            self.manager.delegate_for_zombie()
