"""Fencing belongs to the transport: no served verb can forget it.

Every verb an agent (a serving host's manager, a federation lending
agent) or the standby serves must refuse a stale ``(rack, epoch)`` stamp
with :class:`FencingError` before its handler runs.  The handlers are
replaced by spies, so a refusal that came from a handler, not from the
server, would not count.
"""

import pytest

from repro.core.rack import Rack
from repro.errors import FencingError
from repro.fed import Federation
from repro.tour import BUFFER, MEMORY, fed_tour
from repro.units import MiB


def _rack_servers(rack):
    """``(where, server, stamping rack)`` for every agent and the standby."""
    issuer = rack.controller.rack
    for host in sorted(rack.servers):
        yield host, rack.server(host).manager.rpc, issuer
    # The mirror stream never leaves its rack and stamps no rack.
    yield rack.secondary.node.name, rack.secondary.rpc, None


def _fed_servers(fed):
    for rack in fed.racks.values():
        yield from _rack_servers(rack)
    for agent in fed.lending.agents.values():
        yield agent.node.name, agent.rpc, agent.donor


def _unfenced(monkeypatch, servers):
    """Every ``(where, verb)`` whose handler ran on a stale stamp."""
    misses, checked = [], 0
    for where, server, issuer in servers:
        if not server.node.cpu_alive:
            continue  # a zombie's daemon serves nothing at all
        for verb in sorted(server.handlers):
            calls = []
            monkeypatch.setitem(server.handlers, verb,
                                lambda *a, calls=calls, **k: calls.append(a))
            fresh = server.epochs.get(issuer, 0) + 1
            server.dispatch(verb, (), {}, stamp=(issuer, fresh))
            try:
                server.dispatch(verb, (), {}, stamp=(issuer, fresh - 1))
            except FencingError:
                pass
            else:
                misses.append((where, verb))
            if len(calls) != 1:
                misses.append((where, verb, len(calls)))
            checked += 1
    return misses, checked


def _lending_fed():
    fed = Federation(n_racks=2, hosts_per_rack=3, memory_bytes=MEMORY,
                     buff_size=BUFFER, rng_seed=0)
    for step, _ in fed_tour(fed, ("rack1/h2", "rack1/h3", "rack2/h2"),
                            "rack2/h1"):
        if step == "drain":
            return fed
    raise AssertionError("the federation tour never drained")


def test_every_verb_of_a_rack_refuses_a_stale_stamp(monkeypatch):
    rack = Rack(["user", "lender", "spare"], memory_bytes=64 * MiB,
                buff_size=4 * MiB)
    misses, checked = _unfenced(monkeypatch, _rack_servers(rack))
    assert misses == []
    # Five verbs on each of three managers, and the mirror op.
    assert checked == 16


def test_every_verb_of_a_federation_refuses_a_stale_stamp(monkeypatch):
    fed = _lending_fed()
    assert fed.lending.agents, "the tour lent nothing"
    misses, checked = _unfenced(monkeypatch, _fed_servers(fed))
    assert misses == []
    agent_verbs = sum(len(agent.rpc.handlers)
                      for agent in fed.lending.agents.values())
    assert agent_verbs and checked > agent_verbs


def test_ad_hoc_verb_on_an_agent_is_fenced_too():
    rack = Rack(["user", "spare"], memory_bytes=64 * MiB, buff_size=4 * MiB)
    server = rack.server("user").manager.rpc
    calls = []
    server.register("ad_hoc", lambda: calls.append(1) or "ran")
    issuer = rack.controller.rack
    assert server.dispatch("ad_hoc", (), {}, stamp=(issuer, 3)) == "ran"
    with pytest.raises(FencingError):
        server.dispatch("ad_hoc", (), {}, stamp=(issuer, 2))
    assert calls == [1]
    # The watermark is the server's, shared by every verb it serves.
    with pytest.raises(FencingError):
        server.dispatch("heartbeat", (), {}, stamp=(issuer, 2))

