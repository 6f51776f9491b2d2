"""The Explicit SD split-driver (Section 4.5, after the 'Banana' model [47]).

The guest sees an ordinary block device (the *frontend*); its requests cross
the hypervisor boundary to the *backend*, which

- contacts the remote-mem-mgr to allocate remote memory **on demand and
  best-effort** ("the backend driver first contacts the remote-mem-mgr for
  allocating remote memory if available"),
- asynchronously mirrors every swapped-out page to local storage for fault
  tolerance, and
- serves pages from that slower local path whenever remote memory is
  unavailable — before any was granted, or after the controller reclaimed
  it.

This is what distinguishes an Explicit SD from RAM Ext operationally: its
capacity is *elastic and revocable*, so the guest can always swap, just not
always fast.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.core.manager import RemoteMemoryManager
from repro.memory.buffers import RemotePageStore
from repro.memory.swap import SwapDevice


class SplitDriverSwap(SwapDevice):
    """A guest swap device backed by elastic, best-effort remote memory.

    ``grow_step_bytes`` controls how much remote memory the backend asks
    the controller for when it runs out of slots (one ``GS_alloc_swap``
    per step).  Pages that find no remote slot live on the local mirror.
    """

    name = "split-driver"

    def __init__(self, manager: RemoteMemoryManager,
                 capacity_pages: int,
                 grow_step_bytes: Optional[int] = None):
        super().__init__(capacity_pages)
        self.manager = manager
        self.grow_step_bytes = grow_step_bytes or manager.buff_size
        self.store: RemotePageStore
        self.store, granted = manager.request_swap(0)
        self._keys: Dict[Hashable, int] = {}
        self.grow_requests = 0
        self.grow_granted_bytes = 0

    # -- capacity management ------------------------------------------------
    def _ensure_slot(self) -> bool:
        """Try to have at least one free remote slot; False = local path."""
        if self.store.free_slot_count > 0:
            return True
        self.grow_requests += 1
        granted = self.manager.extend_swap(self.store, self.grow_step_bytes)
        self.grow_granted_bytes += granted
        return self.store.free_slot_count > 0

    # -- SwapDevice interface ------------------------------------------------
    @property
    def used_pages(self) -> int:
        return len(self._keys)

    def contains(self, key: Hashable) -> bool:
        return key in self._keys

    def _write(self, key: Hashable, data: Optional[bytes]) -> float:
        self._ensure_slot()
        _, page_key, _, elapsed = self.store.exchange(None, data)
        self._keys[key] = page_key
        return elapsed

    def _read(self, key: Hashable) -> Tuple[Optional[bytes], float]:
        data, elapsed = self.store.load(self._keys[key])
        return data, elapsed

    def _discard(self, key: Hashable) -> None:
        self.store.free(self._keys.pop(key))

    # -- operations the paper describes ----------------------------------
    def repair(self) -> int:
        """Move local-path pages back to remote slots after growth."""
        if self.store.fallback_count == 0:
            return 0
        self._ensure_slot()
        return self.store.restore_fallbacks()

    def remote_fraction(self) -> float:
        """Share of swapped pages currently served from remote memory."""
        if not self._keys:
            return 1.0
        return 1.0 - self.store.fallback_count / len(self._keys)
