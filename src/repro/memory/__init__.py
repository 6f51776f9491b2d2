"""The memory subsystem under the hypervisor.

- :mod:`~repro.memory.frames` — the host machine-frame allocator;
- :mod:`~repro.memory.page_table` — pseudo-physical → machine mappings with
  present/accessed/dirty bits, the structures the KVM fault handler walks;
- :mod:`~repro.memory.replacement` — the paper's three page-replacement
  policies (FIFO, Clock, Mixed) with per-operation cycle accounting;
- :mod:`~repro.memory.buffers` — leased remote-memory buffers and the
  page-slot store built on them;
- :mod:`~repro.memory.swap` — the swap-device protocol and the local SSD
  and HDD timing models.
"""

from repro.memory.frames import Frame, FrameAllocator, FrameRun
from repro.memory.page_table import PageTable, PageTableEntry, PageLocation
from repro.memory.replacement import (ReplacementPolicy, FifoPolicy,
                                      ClockPolicy, MixedPolicy, make_policy)
from repro.memory.buffers import BufferLease, RemotePageStore
from repro.memory.swap import SwapDevice, SsdSwap, HddSwap

__all__ = [
    "Frame", "FrameAllocator", "FrameRun",
    "PageTable", "PageTableEntry", "PageLocation",
    "ReplacementPolicy", "FifoPolicy", "ClockPolicy", "MixedPolicy",
    "make_policy", "BufferLease", "RemotePageStore",
    "SwapDevice", "SsdSwap", "HddSwap",
]
