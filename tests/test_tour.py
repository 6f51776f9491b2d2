"""The tour's step table, checked against served traffic.

Each step of ``repro.tour.rack_tour`` and ``fed_tour`` runs on a
telemetry-enabled rack or federation, and the verbs whose
``rpc_served_total`` grew during it must be exactly the step's declared
tuple.  Also here: the seed list both chaos matrices sweep.
"""

import pytest

from repro.core.protocol import Method
from repro.core.rack import Rack
from repro.fed import Federation
from repro.obs import Telemetry
from repro.obs.audit.inputs import parse_series
from repro.tour import (BUFFER, FED_TOUR, MEMORY, RACK_TOUR, fed_tour,
                        rack_tour, verbs)
from tests.agreement import chaos_seeds

TOURS = {"rack": RACK_TOUR, "fed": FED_TOUR}


def _grew_by_step(target, steps):
    """Each step ``steps`` yields → the verbs whose served count grew."""
    registry = target.telemetry.registry
    grew, before = {}, registry.snapshot()
    for step, result in steps:
        if step == "create_vm1":   # touching vm1's pages serves no verb
            hv = target.server("user").hypervisor
            for ppn in range(result.spec.total_pages):
                hv.access(result, ppn)
        after = registry.snapshot()
        grew[step] = {parse_series(series)[1]["verb"]
                      for series in registry.delta(before, after)
                      if series.startswith("rpc_served_total{")}
        before = after
    return grew


@pytest.fixture(scope="module")
def grew():
    rack = Rack(["user", "active", "spare"], memory_bytes=MEMORY,
                buff_size=BUFFER, telemetry=Telemetry(enabled=True))
    fed = Federation(n_racks=2, hosts_per_rack=3, memory_bytes=MEMORY,
                     buff_size=BUFFER, rng_seed=7,
                     telemetry=Telemetry(enabled=True))
    return {"rack": _grew_by_step(rack, rack_tour(rack, "user", "active",
                                                  "spare")),
            "fed": _grew_by_step(fed, fed_tour(
                fed, ("rack1/h2", "rack1/h3", "rack2/h2"), "rack2/h1"))}


@pytest.mark.parametrize("tour,step", [(name, step)
                                       for name, tour in TOURS.items()
                                       for step in tour])
def test_step_serves_exactly_its_declared_verbs(tour, step, grew):
    declared = TOURS[tour][step]
    assert len(set(declared)) == len(declared)
    assert grew[tour][step] == set(declared)


@pytest.mark.parametrize("tour", TOURS)
def test_the_tour_runs_the_table_steps_in_order(tour, grew):
    assert list(grew[tour]) == list(TOURS[tour])


def test_the_two_tours_declare_every_verb():
    assert verbs(RACK_TOUR) | verbs(FED_TOUR) == {m.value for m in Method}
    assert not {v for v in verbs(RACK_TOUR) if v.startswith("FED_")}


@pytest.mark.parametrize("raw,seeds", [(None, (7,)), ("7,19,43", (7, 19, 43)),
                                       ("7,19,", (7, 19)), (" 7, ,43", (7, 43))])
def test_chaos_seeds_skip_blank_entries(raw, seeds, monkeypatch):
    monkeypatch.delenv("ZOMNET_CHAOS_SEEDS", raising=False)
    if raw is not None:
        monkeypatch.setenv("ZOMNET_CHAOS_SEEDS", raw)
    assert chaos_seeds() == seeds
