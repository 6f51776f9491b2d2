"""ZomNet end-to-end: the full protocol under an adversarial fabric.

The acceptance scenario drives the rack tour (``repro.tour.rack_tour``,
every intra-rack verb) plus one controller failover, twice — once
fault-free, once with reply loss and duplication injected on every link
from a fixed seed — and asserts the final rack states are identical: no
double-executed mutating verb, no lease leak, no deadline-dead call
executed server-side.  A per-verb property test then does the same with
a scripted fault aimed at each verb in turn.

Timing artifacts (retry backoff, probe misses, event timestamps) are
deliberately excluded from the state fingerprint; globally-counted ids
(buffer ids, rkeys) are excluded because the two racks share one
process-wide counter.
"""

import pytest

from repro.core.protocol import Method
from repro.core.rack import Rack
from repro.obs import Telemetry
from repro.rdma.fabric import DUPLICATE, REPLY_LOSS, LinkFaults
from repro.sanitize.pytest_plugin import get_session_sanitizer
from repro.tour import BUFFER, MEMORY, RACK_TOUR, rack_tour, verbs
from tests.agreement import assert_standby_agrees, chaos_seeds


def _pattern(ppn):
    return (b"zomnet-%06d-" % ppn) * 8


def _drive_full_protocol(rack):
    """The rack tour with vm2's pages written before it migrates, then
    one failover and an epoch-2 mutation.

    Returns the VM that survives to the end (its pages are part of the
    state fingerprint).
    """
    hv = rack.server("user").hypervisor
    for step, result in rack_tour(rack, "user", "active", "spare"):
        if step == "create_vm2":
            vm2 = result
            for ppn in range(vm2.spec.total_pages):
                hv.write_page(vm2, ppn, _pattern(ppn))

    assert_standby_agrees(rack)     # everything a promotion is about to copy
    deposed = rack.controller
    rack.kill_controller()
    rack.engine.run(until=12.0)
    assert rack.controller is not deposed, "secondary did not promote"
    rack.make_zombie("spare")
    rack.engine.run(until=15.0)
    return vm2


def _run_scenario(seed, install_faults=None, telemetry=False):
    tel = Telemetry(enabled=True) if telemetry else None
    rack = Rack(["user", "active", "spare"], memory_bytes=MEMORY,
                buff_size=BUFFER, rng_seed=seed, telemetry=tel)
    if install_faults is not None:
        install_faults(rack.fabric.message_faults)
    vm2 = _drive_full_protocol(rack)
    return rack, vm2


def _fingerprint(rack, vm2):
    """Canonical end state: ids from process-global counters excluded."""
    db = rack.controller.db
    buffers = tuple(sorted(
        (b.host, b.kind.value, b.user or "", b.size_bytes, b.offset)
        for b in db.all_buffers()))
    power = tuple((name, rack.server(name).is_zombie)
                  for name in sorted(rack.servers))
    hv = rack.server("active").hypervisor
    pages = tuple(hv.read_page(vm2, ppn)[:14]
                  for ppn in range(vm2.spec.total_pages))
    store = hv.store_for(vm2.spec.name)
    leases = tuple(sorted(
        (ls.lease.host, ls.lease.size_bytes, ls.lease.zombie)
        for ls in store._leases.values())) if store is not None else ()
    return {
        "epoch": rack.controller.epoch,
        "buffers": buffers,
        "power": power,
        "pool": tuple(sorted(rack.pool_summary().items())),
        "pages": pages,
        "leases": leases,
    }


def _shadow_delta(san, before):
    """MemSan shadow entries this run created, rkey-canonicalized."""
    return sorted((s.host, str(s.state), s.owner or "")
                  for key, s in san._buffers.items() if key not in before)


def _dedup_replays(rack):
    servers = [rack.controller.rpc, rack.secondary.rpc]
    servers += [s.manager.rpc for s in rack.servers.values()]
    return sum(server.dedup_replays for server in servers)


@pytest.fixture(scope="module")
def baseline(request):
    """The fault-free reference run (fixed seed 7), computed once."""
    san = get_session_sanitizer(request.config)
    before = set(san._buffers) if san is not None else set()
    rack, vm2 = _run_scenario(seed=7)
    shadow = _shadow_delta(san, before) if san is not None else None
    return _fingerprint(rack, vm2), shadow


class TestChaosMatrix:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_full_protocol_under_reply_loss_and_duplication(self, seed,
                                                            request):
        san = get_session_sanitizer(request.config)

        before = set(san._buffers) if san is not None else set()
        clean_rack, clean_vm = _run_scenario(seed=seed)
        clean_fp = _fingerprint(clean_rack, clean_vm)
        clean_shadow = (_shadow_delta(san, before)
                        if san is not None else None)

        before = set(san._buffers) if san is not None else set()
        faulty_rack, faulty_vm = _run_scenario(
            seed=seed, telemetry=True,
            install_faults=lambda inj: inj.set_link(
                "*", "*", LinkFaults(reply_loss=0.08, duplicate=0.12)))
        assert _fingerprint(faulty_rack, faulty_vm) == clean_fp

        # The adversary actually fired, and dedup actually absorbed
        # re-deliveries — the equivalence above is not vacuous.
        injected = faulty_rack.fabric.message_faults.injected
        assert injected[REPLY_LOSS] > 0 and injected[DUPLICATE] > 0
        assert _dedup_replays(faulty_rack) > 0

        # Every verb the rack tour declares crossed the adversarial fabric.
        tel = faulty_rack.telemetry
        seen = {labels.get("verb")
                for labels in tel.registry.labels_for("rpc_served_total")}
        missing = verbs(RACK_TOUR) - seen
        assert not missing, f"verbs never served under chaos: {missing}"

        # No deadline-dead call executed server-side (the scenario
        # injects no latency, so no budget may ever expire).
        rejections = sum(
            tel.registry.value("rpc_deadline_rejections_total", **labels)
            for labels in
            tel.registry.labels_for("rpc_deadline_rejections_total"))
        assert rejections == 0

        if san is not None:
            assert _shadow_delta(san, before) == clean_shadow
        assert_standby_agrees(clean_rack)
        assert_standby_agrees(faulty_rack)


class TestPerVerbEquivalence:
    """Each verb, individually, under a scripted fault on its first send."""

    @pytest.mark.parametrize("kind", (REPLY_LOSS, DUPLICATE))
    @pytest.mark.parametrize("verb", [m.value for m in Method
                                      if m.value in verbs(RACK_TOUR)])
    def test_faulted_run_matches_single_delivery(self, verb, kind,
                                                 baseline, request):
        base_fp, base_shadow = baseline
        san = get_session_sanitizer(request.config)
        before = set(san._buffers) if san is not None else set()
        rack, vm2 = _run_scenario(
            seed=7,
            install_faults=lambda inj: inj.script("*", "*", kind,
                                                  method=verb))
        assert _fingerprint(rack, vm2) == base_fp
        fired = sum(rack.fabric.message_faults.injected.values())
        assert fired >= 1, f"scripted {kind} on {verb!r} never fired"
        if san is not None:
            assert _shadow_delta(san, before) == base_shadow
        assert_standby_agrees(rack)
