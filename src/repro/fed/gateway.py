"""The federation gateway: verb routing plus the lending trigger.

Tenants talk to *the federation*, not to a rack: the gateway hashes the
tenant onto the ring, opens (and caches) an RPC channel from the
tenant's own fabric node to the home rack's controller, and forwards
the verb.  A tenant homed away from its physical rack pays the
inter-rack surcharge on every control-plane call — which is exactly
what makes placement quality visible in ZomAudit's J/hour accounting.

The gateway is also where cross-rack lending engages: when a home
rack's allocator raises :class:`AllocationError`, the gateway refreshes
the directory, walks candidate donors (fullest zombie pool first),
borrows enough buffers to cover the request, and replays the verb once.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.protocol import Method
from repro.core.rack import PrimaryChannel
from repro.errors import AllocationError, ConfigurationError
from repro.units import buffers_for

#: Verbs whose AllocationError should trigger a cross-rack borrow.
_LENDING_VERBS = (Method.GS_ALLOC_EXT.value, Method.GS_ALLOC_SWAP.value)


class FederationGateway:
    """Routes the single-rack protocol across a federation of racks."""

    def __init__(self, federation):
        self.fed = federation
        #: Verb channels keyed (tenant, home), each into the home rack's
        #: current primary.
        self._channels: Dict[Tuple[str, str], PrimaryChannel] = {}
        self.routed = 0
        self.lending_triggers = 0
        self.borrow_failures = 0

    # -- placement --------------------------------------------------------
    def home_of(self, tenant: str) -> str:
        """The home rack serving ``tenant``'s control plane."""
        return self.fed.ring.home(tenant)

    def _channel(self, tenant: str, home: str) -> PrimaryChannel:
        channel = self._channels.get((tenant, home))
        if channel is None:
            rack = self.fed.racks[home]
            origin = self.fed.fabric.nodes.get(tenant, self.fed.gateway_node)
            channel = PrimaryChannel(rack, origin, rack.retry_policy)
            self._channels[(tenant, home)] = channel
            self._register_tenant(tenant, rack)
        return channel

    def _register_tenant(self, tenant: str, home_rack) -> None:
        """Register ``tenant``'s manager as an agent of its home rack.

        A tenant homed away from its physical rack must still honour
        ``US_reclaim``/``US_invalidate``, so its home rack wires the
        primary to it like any local serving host (and so does every
        primary the home rack promotes).  Synthetic (node-less) tenants
        get no channel; buffers they hold can only be recalled by
        releasing them.
        """
        if tenant in home_rack.agents:
            return
        rack_name = self.fed.fabric.rack_of(tenant)
        if rack_name is None or rack_name not in self.fed.racks:
            return
        server = self.fed.racks[rack_name].servers.get(tenant)
        if server is None:
            return
        home_rack.attach_agent(tenant, server.manager.rpc)

    # -- routing ----------------------------------------------------------
    def call(self, tenant: str, method: str, *args, **kwargs):
        """Route ``method`` to ``tenant``'s home rack.

        For the allocation verbs, a dry home pool triggers cross-rack
        lending and one replay; every other verb (and a second
        allocation failure after borrowing) surfaces unchanged.
        """
        home = self.home_of(tenant)
        self.routed += 1
        registry = self.fed.telemetry.registry
        registry.counter(
            "fed_routed_total", "Verbs routed through the federation "
            "gateway.", rack=home, method=method).inc()
        try:
            return self._channel(tenant, home).call(method, *args, **kwargs)
        except AllocationError:
            if method not in _LENDING_VERBS:
                raise
            mem_size = args[1] if len(args) > 1 else 0
            if not self._borrow_for(home, mem_size):
                raise
            return self._channel(tenant, home).call(method, *args, **kwargs)

    # -- the lending trigger ----------------------------------------------
    def _borrow_for(self, home: str, mem_size: int) -> int:
        """Borrow enough zombie buffers into ``home`` to cover a request.

        Walks donors fullest-first until the request is covered or the
        candidate list is exhausted; returns the number of buffers
        actually borrowed (0 when the whole federation is dry).
        """
        self.lending_triggers += 1
        self.fed.directory.refresh()
        needed = max(1, buffers_for(max(mem_size, 1),
                                    self.fed.racks[home].buff_size))
        borrowed = 0
        for donor in self.fed.directory.donors(exclude=home):
            if borrowed >= needed:
                break
            try:
                granted = self.fed.lending.borrow(home, donor,
                                                  needed - borrowed)
            except AllocationError:
                # The digest was stale: the donor drained since the last
                # refresh.  Record it dry and try the next candidate.
                self.fed.directory.mark_dry(donor)
                continue
            borrowed += granted
            if granted == 0:
                self.fed.directory.mark_dry(donor)
        if borrowed == 0:
            self.borrow_failures += 1
        return borrowed

    # -- convenience wrappers over the tenant-facing verbs ----------------
    def alloc_ext(self, tenant: str, mem_size: int) -> List:
        return self.call(tenant, Method.GS_ALLOC_EXT.value, tenant, mem_size)

    def release(self, tenant: str, buffer_ids: List[int]) -> None:
        return self.call(tenant, Method.GS_RELEASE.value, tenant, buffer_ids)

    def transfer(self, old_tenant: str, new_tenant: str,
                 buffer_ids: List[int]) -> None:
        """Ownership transfer is only defined within one home rack."""
        old_home = self.home_of(old_tenant)
        new_home = self.home_of(new_tenant)
        if old_home != new_home:
            raise ConfigurationError(
                f"GS_transfer spans racks: {old_tenant!r} is homed on "
                f"{old_home!r} but {new_tenant!r} on {new_home!r}")
        return self.call(old_tenant, Method.GS_TRANSFER.value,
                         old_tenant, new_tenant, buffer_ids)

    def stats(self) -> Dict[str, int]:
        return {
            "routed": self.routed,
            "lending_triggers": self.lending_triggers,
            "borrow_failures": self.borrow_failures,
        }
