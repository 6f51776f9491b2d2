"""Consistent-hash placement: tenants and buffers → home racks.

The classic Karger ring: each rack owns ``vnodes`` points on a 64-bit
circle, a key's home is the first rack point at or after the key's own
point.  Virtual nodes smooth the load split, and adding or removing one
rack only re-homes the keys that fell in its arcs — the property that
makes rack maintenance cheap at datacenter scale.

Hashing is :mod:`hashlib`-based (never Python's salted ``hash()``), so
placement is stable across processes and replayable — the same
determinism discipline as the rest of the simulator.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, List

from repro.errors import ConfigurationError


def _point(key: str) -> int:
    """A stable 64-bit position on the ring for ``key``."""
    digest = hashlib.sha1(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """A ring of rack names with ``vnodes`` points per rack."""

    def __init__(self, racks: Iterable[str] = (), vnodes: int = 64):
        if vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._points: List[int] = []
        self._owners: List[str] = []
        self._racks: set = set()
        for rack in racks:
            self.add_rack(rack)

    def add_rack(self, rack: str) -> None:
        if rack in self._racks:
            raise ConfigurationError(f"rack {rack!r} already on the ring")
        self._racks.add(rack)
        for replica in range(self.vnodes):
            point = _point(f"{rack}#{replica}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, rack)

    def home(self, key: str) -> str:
        """The home rack of ``key`` (first point clockwise from its hash)."""
        if not self._points:
            raise ConfigurationError("empty ring: no rack to home onto")
        index = bisect.bisect(self._points, _point(key)) % len(self._points)
        return self._owners[index]
