"""Swap devices: the shared protocol, local SSD and local HDD.

Table 2 compares an Explicit SD backed by remote RAM (the split driver,
:mod:`repro.hypervisor.split_driver`) against local fast (Samsung
MZ-7PD256 SSD) and local slow (Seagate ST12000NM0007 HDD) swap.  Each
device tracks slot occupancy and charges a per-page latency; the defaults
encode the ordering the evaluation depends on::

    remote RAM (~5 us)  <<  SSD (~100 us)  <<  HDD (~8 ms)
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, Optional, Tuple

from repro.errors import ConfigurationError, SwapError
from repro.units import MICROSECOND, MILLISECOND


#: CPU cost of submitting an asynchronous write-behind request.
ASYNC_SUBMIT_S = 3 * MICROSECOND


class SwapDevice(abc.ABC):
    """A page-granular swap target keyed by caller-chosen identifiers.

    Swap-outs are *asynchronous* (kswapd-style write-behind): the caller
    pays only a submit cost, while the device accumulates a write backlog.
    Swap-ins are synchronous and queue behind that backlog — which is what
    collapses slow devices (HDD) under swap pressure long before fast ones.
    Callers advance the device clock with :meth:`tick` so the backlog
    drains as simulated time passes.
    """

    name = "abstract"

    def __init__(self, capacity_pages: int):
        if capacity_pages <= 0:
            raise ConfigurationError(
                f"swap capacity must be positive, got {capacity_pages}"
            )
        self.capacity_pages = capacity_pages
        self.swap_outs = 0
        self.swap_ins = 0
        self.time_spent_s = 0.0
        self.backlog_s = 0.0  # outstanding async write work

    # -- interface ---------------------------------------------------------
    @property
    @abc.abstractmethod
    def used_pages(self) -> int:
        """Slots currently occupied."""

    @property
    def free_pages(self) -> int:
        return self.capacity_pages - self.used_pages

    @abc.abstractmethod
    def _write(self, key: Hashable, data: Optional[bytes]) -> float:
        """Store a page; returns latency in seconds."""

    @abc.abstractmethod
    def _read(self, key: Hashable) -> Tuple[Optional[bytes], float]:
        """Fetch a page; returns (data, latency)."""

    @abc.abstractmethod
    def _discard(self, key: Hashable) -> None:
        """Drop a page without reading it."""

    @abc.abstractmethod
    def contains(self, key: Hashable) -> bool:
        """Whether ``key`` is currently swapped out to this device."""

    # -- public wrappers ----------------------------------------------------
    def tick(self, elapsed_s: float) -> None:
        """Advance the device clock: the async backlog drains over time."""
        if elapsed_s > 0 and self.backlog_s > 0:
            self.backlog_s = max(0.0, self.backlog_s - elapsed_s)

    def swap_out(self, key: Hashable, data: Optional[bytes] = None) -> float:
        """Queue an async write-behind; returns the foreground submit cost."""
        if self.contains(key):
            raise SwapError(f"{self.name}: key {key!r} already swapped out")
        if self.free_pages <= 0:
            raise SwapError(f"{self.name}: device full "
                            f"({self.capacity_pages} pages)")
        device_time = self._write(key, data)
        self.backlog_s += device_time
        self.swap_outs += 1
        self.time_spent_s += ASYNC_SUBMIT_S
        return ASYNC_SUBMIT_S

    def swap_in(self, key: Hashable) -> Tuple[Optional[bytes], float]:
        """Synchronous read; stalls behind any outstanding write backlog."""
        if not self.contains(key):
            raise SwapError(f"{self.name}: key {key!r} not present")
        data, service = self._read(key)
        elapsed = self.backlog_s + service
        self.backlog_s = 0.0  # the read forced the queue to drain
        self._discard(key)
        self.swap_ins += 1
        self.time_spent_s += elapsed
        return data, elapsed

    def discard(self, key: Hashable) -> None:
        if not self.contains(key):
            raise SwapError(f"{self.name}: key {key!r} not present")
        self._discard(key)


class _LatencyModelSwap(SwapDevice):
    """Shared implementation for local block devices (timing model only)."""

    read_latency_s = 0.0
    write_latency_s = 0.0

    def __init__(self, capacity_pages: int):
        super().__init__(capacity_pages)
        self._pages: Dict[Hashable, Optional[bytes]] = {}

    @property
    def used_pages(self) -> int:
        return len(self._pages)

    def contains(self, key: Hashable) -> bool:
        return key in self._pages

    def _write(self, key: Hashable, data: Optional[bytes]) -> float:
        self._pages[key] = data
        return self.write_latency_s

    def _read(self, key: Hashable) -> Tuple[Optional[bytes], float]:
        return self._pages[key], self.read_latency_s

    def _discard(self, key: Hashable) -> None:
        del self._pages[key]


class SsdSwap(_LatencyModelSwap):
    """A local SATA SSD (Samsung MZ-7PD256-class): ~100 us per 4 KiB."""

    name = "local-ssd"
    read_latency_s = 100 * MICROSECOND
    write_latency_s = 70 * MICROSECOND


class HddSwap(_LatencyModelSwap):
    """A local HDD (Seagate ST12000NM0007-class): ~8 ms seek + rotation."""

    name = "local-hdd"
    read_latency_s = 8 * MILLISECOND
    write_latency_s = 8 * MILLISECOND
