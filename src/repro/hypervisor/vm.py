"""Virtual machines: specification, lifecycle, and paging state.

A VM reserves ``memory_bytes`` of pseudo-physical memory (``VMMemSize``).
Under RAM Ext the hypervisor backs only ``local_bytes`` of it with machine
frames (``LocalMemSize``); the rest lives in remote buffers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import ConfigurationError, VmStateError
from repro.memory.page_table import PageTable
from repro.memory.replacement import ReplacementPolicy
from repro.units import pages

if TYPE_CHECKING:
    from repro.hypervisor.kvm import Hypervisor
    from repro.memory.buffers import RemotePageStore


class VmState(enum.Enum):
    """VM lifecycle states."""

    BUILDING = "building"
    RUNNING = "running"
    PAUSED = "paused"
    MIGRATING = "migrating"
    STOPPED = "stopped"


_ALLOWED = {
    VmState.BUILDING: {VmState.RUNNING, VmState.STOPPED},
    VmState.RUNNING: {VmState.PAUSED, VmState.MIGRATING, VmState.STOPPED},
    VmState.PAUSED: {VmState.RUNNING, VmState.MIGRATING, VmState.STOPPED},
    VmState.MIGRATING: {VmState.RUNNING, VmState.STOPPED},
    VmState.STOPPED: set(),
}


@dataclass(frozen=True)
class VmSpec:
    """What the tenant booked: name, reserved memory, vCPUs."""

    name: str
    memory_bytes: int
    vcpus: int = 8  # the paper: "every VM uses 8 processors"

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ConfigurationError(
                f"VM {self.name!r}: memory must be positive"
            )
        if self.vcpus <= 0:
            raise ConfigurationError(f"VM {self.name!r}: vcpus must be positive")

    @property
    def total_pages(self) -> int:
        return pages(self.memory_bytes)


@dataclass
class AccessStats:
    """Per-VM paging counters."""

    accesses: int = 0
    page_faults: int = 0
    demand_allocs: int = 0     # first-touch faults (no content to fetch)
    remote_fills: int = 0      # faults served by reading a remote slot
    prefetches: int = 0        # pages pulled in by sequential readahead
    evictions: int = 0
    policy_cycles: int = 0
    time_total_s: float = 0.0
    time_faults_s: float = 0.0

    @property
    def cycles_per_fault(self) -> float:
        return self.policy_cycles / self.page_faults if self.page_faults else 0.0


class Vm:
    """A VM instance and its paging state: one record per VM.

    Everything the fault path needs travels with the VM — its page
    table, replacement policy, remote page store, counters, written
    bytes and last remote fill — so a hit reads attributes, not tables
    keyed by name, and a migration hands over the one object.
    """

    def __init__(self, spec: VmSpec, local_bytes: int,
                 policy: ReplacementPolicy,
                 store: Optional["RemotePageStore"] = None):
        if local_bytes < 0 or local_bytes > spec.memory_bytes:
            raise ConfigurationError(
                f"VM {spec.name!r}: local_bytes {local_bytes} out of "
                f"[0, {spec.memory_bytes}]"
            )
        self.spec = spec
        #: ``spec.name``, read on every access: a plain attribute.
        self.name = spec.name
        self.local_frames_limit = pages(local_bytes) if local_bytes else 0
        self.policy = policy
        self.table = PageTable(spec.total_pages)
        self.state = VmState.BUILDING
        self.local_frames_used = 0
        #: The remote buffers backing the pages beyond the local quota.
        self.store = store
        self.stats = AccessStats()
        #: The bytes ``Hypervisor.write_page`` gave each page.  Only these
        #: pages move bytes through the remote store; every other page is
        #: a zero page that pays the verbs and copies nothing.
        self.contents: Dict[int, bytes] = {}
        #: The ppn of the last remote fill (sequential readahead's cue).
        self.last_fill: Optional[int] = None
        #: The hypervisor that holds the VM (None while detached): only
        #: it may run the VM's accesses.
        self.hypervisor: Optional["Hypervisor"] = None

    @property
    def local_fraction(self) -> float:
        """LocalMemSize / VMMemSize."""
        return self.local_frames_limit / self.spec.total_pages

    def transition(self, new_state: VmState) -> None:
        if new_state not in _ALLOWED[self.state]:
            raise VmStateError(
                f"VM {self.name!r}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state
