"""Cached RPC channels into a rack's *current* primary controller.

The gateway, the lending manager and the directory each keep one client
per logical channel (a tenant's verbs into its home rack, an agent's
borrows into its donor, the directory's heartbeat into a rack).  A
failover replaces the rack's primary, so a cached client is only good
for the fencing epoch it was opened under — an epoch is never reused,
unlike the ``id()`` of a collected controller.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.rdma.fabric import RdmaNode
from repro.rdma.rpc import RetryPolicy, RpcClient

#: channel key → (fencing epoch the client was opened under, client)
ChannelCache = Dict[Hashable, Tuple[int, RpcClient]]


def primary_channel(cache: ChannelCache, key: Hashable, rack,
                    origin: RdmaNode, retry_policy: RetryPolicy) -> RpcClient:
    """The client for channel ``key`` into ``rack``'s primary.

    A client opened under an older epoch points at a deposed controller:
    it is closed and replaced, so the cache holds exactly one client per
    channel however many failovers the rack goes through.
    """
    controller = rack.controller
    entry = cache.get(key)
    if entry is not None:
        epoch, client = entry
        if epoch == controller.epoch:
            return client
        client.close()
    client = RpcClient(origin, controller.rpc, retry_policy=retry_policy)
    cache[key] = (controller.epoch, client)
    return client
