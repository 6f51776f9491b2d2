"""Per-VM page tables: pseudo-physical pages → machine frames or remote slots.

A VM sees a contiguous *pseudo-physical* address space; the hypervisor
associates each pseudo-physical page number (ppn) with either a local machine
frame (present) or a remote-buffer slot (demoted), mirroring the paper's
modified KVM where "the actual machine memory can be distributed between
local physical and remote physical RAM".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

from repro.errors import ConfigurationError, PageTableError
from repro.memory.frames import Frame


class PageLocation(enum.Enum):
    """Where a pseudo-physical page's content currently lives."""

    UNALLOCATED = "unallocated"  # never touched: no frame yet (demand alloc)
    LOCAL = "local"              # present in a machine frame
    REMOTE = "remote"            # demoted to a remote buffer slot


#: Hot-path Enum members as module constants: see DESIGN.md,
#: "Host-time conventions".
_LOCAL = PageLocation.LOCAL
_REMOTE = PageLocation.REMOTE


@dataclass
class PageTableEntry:
    """One pseudo-physical page's mapping state."""

    ppn: int
    location: PageLocation = PageLocation.UNALLOCATED
    frame: Optional[Frame] = None
    remote_slot: Optional[Any] = None  # opaque store token (page key)
    accessed_epoch: int = -1  # >= table.epoch means "accessed bit set"
    dirty: bool = False

    @property
    def present(self) -> bool:
        return self.location is _LOCAL


class PageTable:
    """The hypervisor-side table for one VM."""

    def __init__(self, total_pages: int):
        if total_pages <= 0:
            raise ConfigurationError(f"page table needs >0 pages, got {total_pages}")
        self.total_pages = total_pages
        self._entries: Dict[int, PageTableEntry] = {}
        self.resident_pages = 0
        self.remote_pages = 0
        #: Accessed-bit epoch: an entry's bit is "set" iff its
        #: ``accessed_epoch`` equals the current epoch, which makes the
        #: periodic clear an O(1) bump instead of a full sweep.
        self.epoch = 0

    def entry(self, ppn: int) -> PageTableEntry:
        """The entry for ``ppn``, created lazily as UNALLOCATED."""
        entry = self._entries.get(ppn)
        if entry is None:
            # Only in-range pages ever get an entry, so a hit needs no
            # range check.
            if not 0 <= ppn < self.total_pages:
                raise PageTableError(
                    f"ppn {ppn} out of range [0, {self.total_pages})"
                )
            entry = PageTableEntry(ppn)
            self._entries[ppn] = entry
        return entry

    # -- state transitions -------------------------------------------------
    def map_local(self, ppn: int, frame: Frame) -> PageTableEntry:
        """Associate ``ppn`` with a machine frame (sets present)."""
        entry = self.entry(ppn)
        location = entry.location
        if location is _LOCAL:
            raise PageTableError(f"ppn {ppn} is already present")
        if location is _REMOTE:
            self.remote_pages -= 1
            entry.remote_slot = None
        entry.location = _LOCAL
        entry.frame = frame
        entry.accessed_epoch = self.epoch
        self.resident_pages += 1
        return entry

    def demote(self, ppn: int, remote_slot: Any) -> Frame:
        """Move a present page to a remote slot; returns the freed frame.

        Clears the present bit — exactly the fault-handler step the paper
        describes ("clears the present bit in the corresponding page table
        entry").
        """
        entry = self.entry(ppn)
        frame = entry.frame
        if entry.location is not _LOCAL or frame is None:
            raise PageTableError(f"cannot demote non-present ppn {ppn}")
        entry.frame = None
        entry.location = _REMOTE
        entry.remote_slot = remote_slot
        entry.accessed_epoch = -1
        entry.dirty = False
        self.resident_pages -= 1
        self.remote_pages += 1
        return frame

    def discard(self, ppn: int) -> Optional[Frame]:
        """Drop a page entirely (VM teardown); returns its frame if local."""
        entry = self._entries.pop(ppn, None)
        if entry is None:
            return None
        if entry.location is _LOCAL:
            self.resident_pages -= 1
            return entry.frame
        if entry.location is _REMOTE:
            self.remote_pages -= 1
        return None

    # -- bit management ---------------------------------------------------
    def is_accessed(self, entry: PageTableEntry) -> bool:
        """Whether the hardware accessed bit is set for ``entry``.

        Takes the entry, not its ppn: a replacement policy reads each
        candidate's entry once and asks this of it.  A bit survives one
        clearing epoch: a global flash-clear would momentarily unprotect
        even the hottest pages, which a real CLOCK hand (clearing
        gradually as it sweeps) never does.
        """
        return entry.accessed_epoch >= self.epoch - 1

    def mark_accessed(self, ppn: int, write: bool = False) -> None:
        entry = self.entry(ppn)
        if not entry.present:
            raise PageTableError(f"access bit set on non-present ppn {ppn}")
        entry.accessed_epoch = self.epoch
        if write:
            entry.dirty = True

    def clear_accessed_bits(self) -> int:
        """Periodic accessed-bit clearing (used by the Clock policy).

        Implemented as an O(1) epoch bump; returns the resident-page count,
        the sweep size whose cost the paper charges against Clock.
        """
        self.epoch += 1
        return self.resident_pages

    # -- views --------------------------------------------------------------
    def resident(self) -> Iterator[PageTableEntry]:
        """All present entries (iteration order is insertion order)."""
        return (e for e in self._entries.values() if e.present)
