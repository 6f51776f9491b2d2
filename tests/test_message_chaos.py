"""ZomNet end-to-end: the full protocol under an adversarial fabric.

The acceptance scenario drives every intra-rack verb plus one controller
failover, twice — once fault-free, once with reply loss and duplication
injected on every link from a fixed seed — and asserts the final rack
states are identical: no double-executed mutating verb, no lease leak,
no deadline-dead call executed server-side.  A per-verb property test
then does the same with a scripted fault aimed at each verb in turn.

Timing artifacts (retry backoff, probe misses, event timestamps) are
deliberately excluded from the state fingerprint; globally-counted ids
(buffer ids, rkeys) are excluded because the two racks share one
process-wide counter.
"""

import os

import pytest

from repro.core.protocol import Method

#: The single-rack scenario serves every intra-rack verb; the cross-rack
#: FED_borrow/FED_return pair needs a federation and gets the same
#: fault-equivalence treatment in tests/test_fed_chaos.py.
INTRA_RACK_VERBS = tuple(m.value for m in Method
                         if not m.name.startswith("FED_"))
from repro.core.rack import Rack
from repro.hypervisor.vm import VmSpec
from repro.obs import Telemetry
from repro.rdma.fabric import DUPLICATE, REPLY_LOSS, LinkFaults
from repro.sanitize.pytest_plugin import get_session_sanitizer
from repro.units import MiB
from tests.agreement import assert_standby_agrees


def _chaos_seeds():
    """CI's chaos-matrix job sweeps seeds via ZOMNET_CHAOS_SEEDS."""
    raw = os.environ.get("ZOMNET_CHAOS_SEEDS", "7")
    return tuple(int(s) for s in raw.split(","))


def _pattern(ppn):
    return (b"zomnet-%06d-" % ppn) * 8


def _drive_full_protocol(rack):
    """Every verb + one failover (mirrors the obs self-check golden run).

    Returns the VM that survives to the end (its pages are part of the
    state fingerprint).
    """
    hv = rack.server("user").hypervisor

    rack.make_zombie("spare")                      # GS_goto_zombie, mirror_op
    vm1 = rack.create_vm("user", VmSpec("vm1", 128 * MiB),
                         local_fraction=0.5)       # GS_alloc_ext
    manager = rack.server("user").manager
    manager.request_swap(32 * MiB)                 # GS_alloc_swap
    manager.controller.call(Method.GS_GET_LRU_ZOMBIE.value)
    rack.wake("spare", reclaim_bytes=512 * MiB)    # GS_wake, GS_reclaim,
    #                                              # US_reclaim, AS_get_free_mem
    vm2 = rack.create_vm("user", VmSpec("vm2", 64 * MiB), local_fraction=0.5)
    for ppn in range(vm2.spec.total_pages):
        hv.write_page(vm2, ppn, _pattern(ppn))
    rack.migrate_vm("vm2", "user", "active")       # GS_transfer
    rack.destroy_vm("user", "vm1")                 # GS_release

    rack.crash_server("spare")
    rack.server("active").manager.report_host_failure("spare")
    #                                              # GS_report_failure,
    #                                              # US_invalidate
    rack.heal_server("spare")
    rack.start_host_monitoring(probe_period_s=0.5,
                               miss_threshold=6)   # heartbeat, AS_resync
    rack.engine.run(until=3.0)

    assert_standby_agrees(rack)     # everything a promotion is about to copy
    deposed = rack.controller
    rack.kill_controller()                         # the failover
    rack.engine.run(until=12.0)
    assert rack.controller is not deposed, "secondary did not promote"
    rack.make_zombie("spare")                      # one epoch-2 mutation
    rack.engine.run(until=15.0)
    return vm2


def _run_scenario(seed, install_faults=None, telemetry=False):
    tel = Telemetry(enabled=True) if telemetry else None
    rack = Rack(["user", "active", "spare"], memory_bytes=512 * MiB,
                buff_size=16 * MiB, rng_seed=seed, telemetry=tel)
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
    @pytest.mark.parametrize("seed", _chaos_seeds())
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

        # Every intra-rack verb crossed the adversarial fabric.
        tel = faulty_rack.telemetry
        seen = {labels.get("verb")
                for labels in tel.registry.labels_for("rpc_served_total")}
        missing = set(INTRA_RACK_VERBS) - seen
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
    @pytest.mark.parametrize("verb", INTRA_RACK_VERBS)
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
