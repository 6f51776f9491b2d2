"""Federation assembly: N racks, one fabric, one simulated clock.

Every rack keeps its full single-rack anatomy — primary/secondary
controller pair, recovery coordinator, fencing epochs, serving hosts —
and the federation adds only the glue: a shared :class:`~repro.rdma.
fabric.Fabric` whose rack topology prices cross-rack traffic, the
consistent-hash ring, the capacity directory, the lending manager and
the verb-routing gateway.  Killing one rack's controller, failing it
over, or chaos-testing its links needs no federation-specific code:
the single-rack machinery just runs, per rack, on the shared clock.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.rack import Rack
from repro.errors import ConfigurationError
from repro.fed.directory import FederationDirectory
from repro.fed.gateway import FederationGateway
from repro.fed.lending import LendingManager
from repro.fed.ring import ConsistentHashRing
from repro.obs import Telemetry
from repro.rdma.costs import RdmaCostModel
from repro.rdma.fabric import Fabric, InterRackLink
from repro.rdma.rpc import RetryPolicy
from repro.units import DEFAULT_BUFF_SIZE, GiB


class Federation:
    """N racks behind one gateway, ring, directory and lending plane."""

    def __init__(self,
                 n_racks: int = 2,
                 hosts_per_rack: int = 3,
                 memory_bytes: int = 16 * GiB,
                 buff_size: int = DEFAULT_BUFF_SIZE,
                 vnodes: int = 64,
                 rng_seed: int = 0,
                 telemetry: Optional[Telemetry] = None,
                 costs: Optional[RdmaCostModel] = None,
                 inter_rack_link: Optional[InterRackLink] = None,
                 heartbeat_period_s: float = 1.0):
        if n_racks < 1:
            raise ConfigurationError(f"n_racks must be >= 1, got {n_racks}")
        if hosts_per_rack < 1:
            raise ConfigurationError(
                f"hosts_per_rack must be >= 1, got {hosts_per_rack}")
        self.fabric = Fabric(costs=costs, telemetry=telemetry)
        self.engine = self.fabric.engine
        self.telemetry = self.fabric.telemetry
        self.fabric.set_inter_rack_link(inter_rack_link or InterRackLink())
        #: The directory's vantage point.  Deliberately rack-less: its
        #: monitoring heartbeats probe liveness without paying (or
        #: polluting) the cross-rack energy accounting.
        self.gateway_node = self.fabric.add_node("fed/gateway")
        self.monitor_policy = RetryPolicy.no_retry(cooldown_s=5.0)

        #: name → Rack, built on the shared fabric (and so its engine).
        #: Each rack forks its RNG streams from ``rng_seed + index`` so
        #: per-rack draws stay decoupled and the whole federation is
        #: replayable.
        self.racks: Dict[str, Rack] = {}
        for index in range(n_racks):
            rname = f"rack{index + 1}"
            self.racks[rname] = Rack(
                [f"{rname}/h{j + 1}" for j in range(hosts_per_rack)],
                memory_bytes=memory_bytes,
                buff_size=buff_size,
                heartbeat_period_s=heartbeat_period_s,
                rng_seed=rng_seed + index,
                fabric=self.fabric,
                name=rname,
            )

        self.ring = ConsistentHashRing(sorted(self.racks), vnodes=vnodes)
        self.directory = FederationDirectory(self)
        self.lending = LendingManager(self)
        self.gateway = FederationGateway(self)
        self.directory.refresh()

    # -- lookups ----------------------------------------------------------
    def rack(self, name: str) -> Rack:
        try:
            return self.racks[name]
        except KeyError:
            raise ConfigurationError(f"unknown rack {name!r}") from None

    def rack_of_server(self, server: str) -> str:
        """The rack a serving host belongs to."""
        rack = self.fabric.rack_of(server)
        if rack is None:
            raise ConfigurationError(f"{server!r} is not in any rack")
        return rack

    @property
    def rack_names(self) -> List[str]:
        return sorted(self.racks)

    # -- convenience passthroughs -----------------------------------------
    def make_zombie(self, server: str) -> None:
        self.rack(self.rack_of_server(server)).make_zombie(server)

    def wake(self, server: str, reclaim_bytes: int = 0) -> float:
        return self.rack(self.rack_of_server(server)).wake(
            server, reclaim_bytes=reclaim_bytes)

    def stats(self) -> Dict[str, object]:
        """One flat federation digest (tests and benchmarks read this)."""
        return {
            "racks": len(self.racks),
            "routed": self.gateway.routed,
            "lending_triggers": self.gateway.lending_triggers,
            "borrows": self.lending.borrows,
            "returns": self.lending.returns,
            "recalls": self.lending.recalls,
            "open_loans": len(self.lending.loans),
            "cross_rack_ops": self.fabric.cross_rack_ops,
            "cross_rack_bytes": self.fabric.cross_rack_bytes,
            "cross_rack_joules": round(self.fabric.cross_rack_joules, 9),
        }
