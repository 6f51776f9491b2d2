"""The every-verb tour: one scripted walk through the protocol.

:data:`RACK_TOUR` is an ordered table in the shape of
``check/model.py::KINDS``, step → the ``Method`` verbs it serves, and
:func:`rack_tour` makes each step's calls on a rack.  :data:`FED_TOUR`
and :func:`fed_tour` do the same for the cross-rack pair.  A tour yields
after every step, so each consumer (the self-check, the chaos matrices,
the 4-rack acceptance test) adds its own extras between steps; the only
inputs are host names.  ``tests/test_tour.py`` holds each step's verbs
equal to what its traffic served.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Sequence, Tuple

from repro.core.protocol import Method
from repro.hypervisor.vm import VmSpec
from repro.units import MiB

#: Each host's memory and the buffer size of the racks a tour runs on.
MEMORY = 512 * MiB
BUFFER = 16 * MiB

#: Each step's verbs on a run that touches vm1's pages after
#: ``create_vm1``, so the wake repairs vm1's swap store; a run that
#: touches none (the message chaos matrix) grows the pool in create_vm2.
RACK_TOUR: Dict[str, Tuple[str, ...]] = {
    "make_zombie": ("GS_goto_zombie", "mirror_op"),
    "create_vm1": ("GS_alloc_ext", "mirror_op"),
    "request_swap": ("GS_alloc_swap", "mirror_op"),
    "lru_zombie": ("GS_get_lru_zombie",),
    "wake": ("GS_wake", "GS_reclaim", "US_reclaim", "AS_get_free_mem",
             "GS_alloc_swap", "mirror_op"),
    "create_vm2": ("GS_alloc_ext", "mirror_op"),
    "migrate_vm2": ("GS_transfer", "mirror_op"),
    "destroy_vm1": ("GS_release", "mirror_op"),
    "crash_report": ("GS_report_failure", "US_invalidate", "mirror_op"),
    "heal": (),
    "monitor": ("heartbeat", "AS_resync"),
}

FED_TOUR: Dict[str, Tuple[str, ...]] = {
    "zombify": ("GS_goto_zombie", "mirror_op"),
    "drain": ("GS_alloc_ext", "AS_get_free_mem", "FED_borrow", "heartbeat",
              "mirror_op"),
    "return": ("FED_return", "US_reclaim", "mirror_op"),
}


def rack_tour(rack, user: str, active: str,
              spare: str) -> Iterator[Tuple[str, object]]:
    """Run :data:`RACK_TOUR` on ``rack``, yielding each step's name and
    result once it is done.  ``user`` runs the VMs, ``active`` takes the
    migrated one and reports the crash, and ``spare`` goes through Sz,
    the wake with reclaim, the crash, the heal and the probe's resync."""
    yield "make_zombie", rack.make_zombie(spare)
    yield "create_vm1", rack.create_vm(user, VmSpec("vm1", 128 * MiB),
                                       local_fraction=0.5)
    manager = rack.server(user).manager
    yield "request_swap", manager.request_swap(32 * MiB)
    yield "lru_zombie", manager.controller.call(Method.GS_GET_LRU_ZOMBIE.value)
    yield "wake", rack.wake(spare, reclaim_bytes=512 * MiB)
    yield "create_vm2", rack.create_vm(user, VmSpec("vm2", 64 * MiB),
                                       local_fraction=0.5)
    yield "migrate_vm2", rack.migrate_vm("vm2", user, active)
    yield "destroy_vm1", rack.destroy_vm(user, "vm1")
    rack.crash_server(spare)
    yield "crash_report", rack.server(active).manager.report_host_failure(spare)
    yield "heal", rack.heal_server(spare)
    # Six misses before a host counts as lost: the chaos run's reply loss
    # needs them, and a clean run misses no probe.
    rack.start_host_monitoring(probe_period_s=0.5, miss_threshold=6)
    yield "monitor", rack.engine.run(until=3.0)


def fed_tour(fed, zombies: Sequence[str],
             tenant: str) -> Iterator[Tuple[str, None]]:
    """Run :data:`FED_TOUR` on ``fed``: put ``zombies`` in Sz, allocate for
    ``tenant`` through the gateway until its rack borrows cross-rack, then
    return every loan.  Yields each step's name once it is done."""
    for host in zombies:
        fed.make_zombie(host)
    yield "zombify", None
    for _ in range(512):
        if fed.gateway.lending_triggers > 0:
            break
        fed.gateway.alloc_ext(tenant, 4 * BUFFER)
    if fed.lending.borrows == 0:
        raise RuntimeError("the federation never borrowed cross-rack")
    yield "drain", None
    for borrower, donor in sorted({(loan.borrower, loan.donor)
                                   for loan in fed.lending.loans.values()}):
        fed.lending.return_loans(borrower, donor)
    yield "return", None


def verbs(tour: Dict[str, Tuple[str, ...]]) -> FrozenSet[str]:
    """Every verb ``tour`` declares."""
    return frozenset().union(*tour.values())
