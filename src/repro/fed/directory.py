"""The federation directory: per-rack capacity and liveness.

Each :meth:`FederationDirectory.refresh` sends one ``heartbeat`` RPC to
every rack's controller (from the federation gateway node, so a dead or
partitioned rack is observed the way a real peer would observe it) and,
for racks that answer, snapshots a :class:`RackDigest` of their zombie
pool.  The gateway consults the directory to pick lending donors; a
rack whose heartbeat fails — or whose last ``FED_borrow`` came back
empty — is skipped until a later refresh revives it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.protocol import Method
from repro.core.rack import PrimaryChannel
from repro.errors import RdmaError, RpcError


@dataclass
class RackDigest:
    """One rack's zombie-pool capacity as of the last refresh."""

    rack: str
    alive: bool = False
    free_zombie_buffers: int = 0
    free_zombie_bytes: int = 0
    zombie_hosts: int = 0
    epoch: int = 0


class FederationDirectory:
    """Capacity/liveness table over a federation's racks."""

    def __init__(self, federation):
        self.fed = federation
        self.digests: Dict[str, RackDigest] = {
            name: RackDigest(rack=name) for name in federation.racks
        }
        #: One heartbeat channel per rack, into its current primary.
        self._channels: Dict[str, PrimaryChannel] = {
            name: PrimaryChannel(rack, federation.gateway_node,
                                 federation.monitor_policy)
            for name, rack in federation.racks.items()
        }

    def _probe(self, rack) -> bool:
        """One liveness heartbeat; ``False`` means unusable as a donor."""
        try:
            self._channels[rack.name].call(Method.HEARTBEAT.value)
        except (RpcError, RdmaError):
            # Dead, partitioned or failing over: the caller records the
            # rack as down (gauge + stale digest) until a later refresh.
            return False
        return True

    def refresh(self) -> None:
        """Re-probe every rack and rebuild its digest."""
        registry = self.fed.telemetry.registry
        for name, rack in sorted(self.fed.racks.items()):
            digest = RackDigest(rack=name)
            if not self._probe(rack):
                self.digests[name] = digest
                registry.gauge(
                    "fed_rack_alive",
                    "Whether the rack's controller answered the last "
                    "directory heartbeat.", rack=name).set(0)
                continue
            digest.alive = True
            digest.epoch = rack.controller.epoch
            (digest.free_zombie_buffers,
             digest.free_zombie_bytes) = rack.controller.db.free_zombie_totals()
            digest.zombie_hosts = len(rack.controller.zombie_hosts)
            self.digests[name] = digest
            registry.gauge(
                "fed_rack_alive",
                "Whether the rack's controller answered the last "
                "directory heartbeat.", rack=name).set(1)
            registry.gauge(
                "fed_rack_free_zombie_bytes",
                "Unallocated zombie-pool bytes available for lending.",
                rack=name).set(digest.free_zombie_bytes)

    def mark_dry(self, rack: str) -> None:
        """A ``FED_borrow`` found the rack empty: zero it until refresh."""
        digest = self.digests.get(rack)
        if digest is not None:
            digest.free_zombie_buffers = 0
            digest.free_zombie_bytes = 0

    def alive(self, rack: str) -> bool:
        digest = self.digests.get(rack)
        return digest is not None and digest.alive

    def donors(self, exclude: Optional[str] = None) -> List[str]:
        """Candidate lending donors, fullest zombie pool first."""
        candidates = [d for d in self.digests.values()
                      if d.alive and d.rack != exclude
                      and d.free_zombie_buffers > 0]
        candidates.sort(key=lambda d: (-d.free_zombie_bytes, d.rack))
        return [d.rack for d in candidates]
