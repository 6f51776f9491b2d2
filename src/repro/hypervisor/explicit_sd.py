"""Explicit SD: a VM-visible swap device served over the split-driver model.

Unlike RAM Ext (hypervisor-managed, invisible to the guest), an Explicit SD
VM receives *less* visible RAM (``m - x``) plus a swap device of size ``x``
mounted by the guest.  Two behavioural consequences the paper measures:

- the guest OS and applications configure themselves for the smaller RAM
  they see and keep free-page watermarks, so the *usable* resident set is a
  fraction (``watermark``) of the visible RAM — which is why v2 generates
  more swap traffic than v1 for the same workload;
- every swap operation crosses the guest block layer and the split
  (frontend/backend) driver, adding a per-operation software overhead on
  top of the device latency.

The backend device is pluggable: remote RAM (via the rack's remote memory),
a local SSD, or a local HDD — the Table 2 comparison.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.memory.frames import FrameAllocator
from repro.memory.page_table import PageLocation, PageTable
from repro.memory.replacement import make_policy
from repro.memory.swap import SwapDevice
from repro.hypervisor.kvm import CPU_HZ, FAULT_BASE_S, LOCAL_ACCESS_S
from repro.hypervisor.vm import AccessStats, VmSpec
from repro.units import MICROSECOND, pages

#: Hot-path Enum members as module constants: see DESIGN.md,
#: "Host-time conventions".
_LOCAL = PageLocation.LOCAL
_REMOTE = PageLocation.REMOTE

#: Guest block-layer + split-driver cost per swap operation, seconds.
GUEST_IO_OVERHEAD_S = 2.0 * MICROSECOND
#: Fraction of guest-visible RAM actually usable for the workload's pages
#: (the kernel keeps free watermarks, caches, and its own footprint).
DEFAULT_WATERMARK = 0.85


class ExplicitSdVm:
    """A guest that pages between its (smaller) RAM and a swap device."""

    def __init__(self, spec: VmSpec, guest_ram_bytes: int,
                 device: SwapDevice, policy: str = "Clock",
                 watermark: float = DEFAULT_WATERMARK,
                 io_overhead_s: float = GUEST_IO_OVERHEAD_S,
                 **policy_kwargs):
        if not 0.0 < watermark <= 1.0:
            raise ConfigurationError(f"watermark out of (0,1]: {watermark}")
        if guest_ram_bytes <= 0 or guest_ram_bytes > spec.memory_bytes:
            raise ConfigurationError(
                f"guest RAM {guest_ram_bytes} out of (0, {spec.memory_bytes}]"
            )
        self.spec = spec
        self.device = device
        self.io_overhead_s = io_overhead_s
        usable_frames = max(1, int(pages(guest_ram_bytes) * watermark))
        self.allocator = FrameAllocator(usable_frames)
        self.table = PageTable(spec.total_pages)
        self.policy = make_policy(policy, **policy_kwargs)
        self.stats = AccessStats()

    @property
    def usable_frames(self) -> int:
        return self.allocator.total_frames

    def access(self, ppn: int, write: bool = False) -> float:
        """One guest access; returns simulated seconds."""
        stats = self.stats
        stats.accesses += 1
        entry = self.table.entry(ppn)
        if entry.location is _LOCAL:
            entry.accessed_epoch = self.table.epoch
            if write:
                entry.dirty = True
            stats.time_total_s += LOCAL_ACCESS_S
            self.device.tick(LOCAL_ACCESS_S)
            return LOCAL_ACCESS_S
        cost = self._fault(ppn)
        if write:
            entry.dirty = True
        stats.time_total_s += cost
        stats.time_faults_s += cost
        self.device.tick(cost)
        return cost

    def idle(self, seconds: float) -> None:
        """Model guest think time (lets the device backlog drain)."""
        self.stats.time_total_s += seconds
        self.device.tick(seconds)

    def _fault(self, ppn: int) -> float:
        stats = self.stats
        stats.page_faults += 1
        cost = FAULT_BASE_S
        entry = self.table.entry(ppn)
        if entry.location is _REMOTE:
            _, elapsed = self.device.swap_in((self.spec.name, ppn))
            cost += elapsed + self.io_overhead_s
            stats.remote_fills += 1
        else:
            stats.demand_allocs += 1
        frame = self.allocator.try_alloc()
        if frame is None:
            cost += self._swap_out_one()
            frame = self.allocator.alloc()
        self.table.map_local(ppn, frame)
        self.policy.note_resident(ppn)
        return cost

    def _swap_out_one(self) -> float:
        stats = self.stats
        before = self.policy.cycles_total
        victim = self.policy.select_victim(self.table)
        cycles = self.policy.cycles_total - before
        stats.policy_cycles += cycles
        elapsed = self.device.swap_out((self.spec.name, victim))
        frame = self.table.demote(victim, (0, victim))
        self.allocator.free(frame)
        stats.evictions += 1
        return cycles / CPU_HZ + elapsed + self.io_overhead_s
