"""Page-replacement policies: FIFO, Clock, and the paper's Mixed policy.

All three share the paper's structure: the hypervisor appends pages to a
FIFO list as they fault in, and the policy picks the victim when local
memory runs out:

- **FIFO** — evict the page with the oldest fault;
- **Clock** — walk the FIFO list and evict the first page whose hardware
  "accessed" bit is clear; all accessed bits are cleared periodically;
- **Mixed** — apply Clock to only the first ``x`` list entries (default 5),
  falling back to FIFO on the rest; this bounds both the bit-management and
  the list-iteration cost.

Each policy accounts its work in CPU cycles so the Fig. 8 (bottom)
policy-duration comparison can be regenerated.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.errors import ConfigurationError, PageTableError
from repro.memory.page_table import (PageLocation, PageTable,
                                     PageTableEntry)

#: Hot-path Enum members as module constants: see DESIGN.md,
#: "Host-time conventions".
_LOCAL = PageLocation.LOCAL

# Cycle cost constants (commodity x86 ballpark; only ratios matter).
BASE_FAULT_CYCLES = 60        # bookkeeping common to every victim selection
POP_CYCLES = 12               # dequeue + mapping lookup
EXAMINE_CYCLES = 18           # read one entry's accessed bit
CLEAR_CYCLES_PER_PAGE = 4     # reset one accessed bit during periodic sweep

_NO_VICTIM = "no resident page available for eviction"


class ReplacementPolicy:
    """Base class: the shared FIFO fault list plus cycle accounting."""

    name = "abstract"

    def __init__(self) -> None:
        self.fifo: Deque[int] = deque()
        self.cycles_total = 0
        self.victims_selected = 0

    # -- bookkeeping hooks ---------------------------------------------------
    def note_resident(self, ppn: int) -> None:
        """Record that ``ppn`` just faulted in (append to the FIFO list)."""
        self.fifo.append(ppn)

    def forget(self, ppn: int) -> None:
        """Drop a page from tracking (VM teardown).  O(n), rarely used."""
        try:
            self.fifo.remove(ppn)
        except ValueError:
            pass

    # -- victim selection --------------------------------------------------
    #: Whether the policy sweeps accessed bits (a ``_ClearingPolicy``):
    #: it then ticks the periodic clear and runs its ``_sweep`` first.
    sweeps = False

    def select_victim(self, table: PageTable) -> PageTableEntry:
        """Pick and remove the next victim page; returns its entry.

        Candidates come off the FIFO list and each one's entry is read
        once; the caller gets the chosen entry, so it never looks it up
        again.  Entries whose pages are no longer resident (stale: their
        entry is not LOCAL) are dropped as they come up.  A sweeping
        policy first ticks the periodic clear and runs its sweep; when
        the sweep finds nothing, or for FIFO, the head of the list is
        evicted.  Every selection charges ``BASE_FAULT_CYCLES`` plus the
        policy's own work to ``cycles_total``, and raises
        :class:`PageTableError` when no resident page is left.
        """
        fifo = self.fifo
        cycles = BASE_FAULT_CYCLES
        victim = None
        if fifo:
            if self.sweeps:
                self._since_clear += 1
                if self._since_clear >= self.clear_interval:
                    self._since_clear = 0
                    cycles += (table.clear_accessed_bits()
                               * CLEAR_CYCLES_PER_PAGE)
                victim, cycles = self._sweep(table, cycles)
            if victim is None:
                entries = table.entries
                while fifo:
                    entry = entries.get(fifo.popleft())
                    cycles += POP_CYCLES
                    if entry is not None and entry.location is _LOCAL:
                        victim = entry
                        break
        self.cycles_total += cycles
        if victim is None:
            raise PageTableError(f"{self.name}: {_NO_VICTIM}")
        self.victims_selected += 1
        return victim

    def requeue(self, ppn: int) -> None:
        """Put back a victim whose eviction failed: it stays resident and
        is the next candidate."""
        self.fifo.appendleft(ppn)


class FifoPolicy(ReplacementPolicy):
    """Evict the page with the oldest recorded fault."""

    name = "FIFO"


class _ClearingPolicy(ReplacementPolicy):
    """A policy that reads accessed bits and clears them every
    ``clear_interval`` victim selections, charging the sweep."""

    sweeps = True

    def __init__(self, clear_interval: int = 256):
        super().__init__()
        if clear_interval <= 0:
            raise ConfigurationError(
                f"clear_interval must be > 0, got {clear_interval}"
            )
        self.clear_interval = clear_interval
        self._since_clear = 0

    def _sweep(self, table: PageTable, cycles: int):
        """The clock pass over the non-empty FIFO list: returns
        ``(victim entry or None, cycles)``, with its work added."""
        raise NotImplementedError


class ClockPolicy(_ClearingPolicy):
    """CLOCK: sweep the list for a page with a clear accessed bit.

    Pages with a set bit get a *second chance*: the hand passes them (they
    rotate to the tail, as with a circular buffer and an advancing hand)
    and the first clear-bit page is evicted.  Accessed bits are cleared
    periodically (every ``clear_interval`` victim selections), and both the
    sweep work and the periodic clearing are charged in cycles — the cost
    that makes Clock the slowest policy per fault in Fig. 8 (bottom).
    """

    name = "Clock"

    def _sweep(self, table: PageTable, cycles: int):
        # One full hand sweep at most: accessed pages rotate to the tail
        # (second chance), stale entries are dropped, and the first
        # clear-bit page is the victim.  If every resident page was
        # recently accessed, select_victim degrades to FIFO.
        fifo = self.fifo
        entries = table.entries
        limit = len(fifo)
        scanned = 0
        while fifo and scanned < limit:
            ppn = fifo.popleft()
            scanned += 1
            cycles += EXAMINE_CYCLES
            entry = entries.get(ppn)
            if entry is None or entry.location is not _LOCAL:
                continue
            if not table.is_accessed(entry):
                return entry, cycles + POP_CYCLES
            fifo.append(ppn)  # hand passes; bit cleared only periodically
        return None, cycles


class MixedPolicy(_ClearingPolicy):
    """Clock on the first ``x`` FIFO entries, FIFO beyond them.

    The clock pass gives up to ``x`` head pages a second chance (set bit →
    rotate to the tail); if none of them is evictable the next head entry
    is evicted FIFO-style.  Bounding the sweep to ``x`` keeps the per-fault
    cost near FIFO's while still protecting recently-used pages — the
    paper's best policy.
    """

    name = "Mixed"

    def __init__(self, x: int = 5, clear_interval: int = 256):
        if x <= 0:
            raise ConfigurationError(f"x must be > 0, got {x}")
        super().__init__(clear_interval)
        self.x = x

    def _sweep(self, table: PageTable, cycles: int):
        # Clock pass with second chance over the first x live entries;
        # select_victim runs FIFO on the rest of the list.
        fifo = self.fifo
        entries = table.entries
        x = self.x
        examined = 0
        while fifo and examined < x:
            ppn = fifo.popleft()
            cycles += EXAMINE_CYCLES
            entry = entries.get(ppn)
            if entry is None or entry.location is not _LOCAL:
                continue
            examined += 1
            if not table.is_accessed(entry):
                return entry, cycles + POP_CYCLES
            # Second chance: clear the bit as the hand passes, rotate.
            entry.accessed_epoch = -1
            fifo.append(ppn)
        return None, cycles


POLICIES = {
    "FIFO": FifoPolicy,
    "Clock": ClockPolicy,
    "Mixed": MixedPolicy,
}


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Instantiate a policy by its paper name (``FIFO``/``Clock``/``Mixed``)."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; "
            f"expected one of {sorted(POLICIES)}"
        ) from None
    return cls(**kwargs)
