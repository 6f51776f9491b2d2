"""The ZomTrace self-check: a golden rack scenario plus hard assertions.

``python -m repro.obs --self-check`` runs two scripted scenarios against
a fully instrumented rack and verifies the observability contract:

- the **golden scenario** drives every intra-rack protocol verb
  (``Method`` minus the ``FED_*`` pair) through the RPC layer — Sz
  entry/exit with
  reclaim, RAM-Ext and swap allocation, pool growth from active servers,
  live migration, serving-host crash recovery, probe heartbeats and the
  healed-host resync — and checks that each verb shows up in the
  per-verb latency histograms, that every span tree is connected, and
  that both exporters produce output their validators accept;
- the **federation scenario** drains one rack of a 2-rack federation
  until cross-rack lending engages, covering ``FED_borrow`` and
  ``FED_return``, the rack-labelled federation metrics, and the
  requirement that a borrow spanning two racks traces as one connected
  span tree;
- the **failover scenario** kills the primary, lets the secondary
  promote, then issues one ``GS_goto_zombie`` whose first two attempts
  are dropped in flight; the resulting trace must be a single connected
  tree (call → 3 attempts → 3 server spans, two of them errors), and
  the deposed primary's stale-epoch probe must leave a ``fenced`` span.

Every departure from the contract is returned as a human-readable
problem string; an empty list is a pass.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.protocol import Method
from repro.errors import FencingError, RpcTimeoutError
from repro.hypervisor.vm import VmSpec
from repro.obs import Telemetry

#: The golden rack drives every intra-rack verb; the federation
#: scenario below covers the cross-rack ``FED_*`` pair.
FED_VERBS = tuple(m.value for m in Method if m.name.startswith("FED_"))
INTRA_RACK_VERBS = tuple(m.value for m in Method
                         if m.value not in FED_VERBS)
from repro.obs.export import (to_chrome_trace, to_prometheus_text,
                              validate_chrome_trace,
                              validate_prometheus_text)
from repro.obs.tracing import Span, span_forest_errors
from repro.units import MiB


def run_golden_scenario(telemetry: Optional[Telemetry] = None):
    """Drive every intra-rack protocol verb on one instrumented rack.

    Returns the rack; its ``telemetry`` hub holds the resulting metrics
    and spans.
    """
    from repro.analysis.experiments import migration_comparison
    from repro.core.rack import Rack
    from repro.dc.energy_sim import simulate_energy
    from repro.energy.profiles import HP_PROFILE
    from repro.traces.google import generate_trace
    from repro.traces.schema import TraceConfig
    from repro.workloads.driver import run_stream

    from repro.energy.rack_monitor import RackEnergyMonitor

    tel = telemetry or Telemetry(enabled=True)
    rack = Rack(["user", "active", "spare"], memory_bytes=512 * MiB,
                buff_size=16 * MiB, telemetry=tel)
    # Meter the rack so the fleet-audit gauges (stranded_bytes,
    # zombie_pool_bytes, host_energy_joules_total, ...) are exercised by
    # the same golden scenario that pins the RPC contract.
    monitor = RackEnergyMonitor(rack, HP_PROFILE, sample_period_s=0.5)

    # Sz entry: GS_goto_zombie + the mirror_op fan-out to the secondary.
    rack.make_zombie("spare")

    # Guaranteed RAM-Ext allocation (GS_alloc_ext) + hypervisor paging.
    vm1 = rack.create_vm("user", VmSpec("vm1", 128 * MiB),
                         local_fraction=0.5)
    hypervisor = rack.server("user").hypervisor
    for _ in range(2):
        for ppn in range(vm1.spec.total_pages):
            hypervisor.access(vm1, ppn)

    # Best-effort swap (GS_alloc_swap) and the LRU-zombie query.
    manager = rack.server("user").manager
    manager.request_swap(32 * MiB)
    manager.controller.call(Method.GS_GET_LRU_ZOMBIE.value)

    # Sz exit with full reclaim: GS_wake + GS_reclaim revoke the lent
    # buffers (US_reclaim to the user), and the post-wake store repair
    # grows the pool from active servers (AS_get_free_mem).
    rack.wake("spare", reclaim_bytes=512 * MiB)

    # A second VM out of the regrown pool, then live migration: the
    # controller re-points buffer ownership with GS_transfer.
    rack.create_vm("user", VmSpec("vm2", 64 * MiB), local_fraction=0.5)
    rack.migrate_vm("vm2", "user", "active")
    rack.destroy_vm("user", "vm1")  # GS_release

    # Serving-host crash: the user-side report (GS_report_failure)
    # triggers rack-wide invalidation (US_invalidate); healing plus the
    # probe monitor recovers the host and resyncs it (heartbeat,
    # AS_resync).
    rack.crash_server("spare")
    rack.server("active").manager.report_host_failure("spare")
    rack.heal_server("spare")
    rack.start_host_monitoring(probe_period_s=0.5)
    rack.engine.run(until=3.0)

    # Non-RPC instrumentation: the DC energy timeline and the workload
    # driver feed the same hub.
    tasks = generate_trace(TraceConfig(n_servers=20, duration_days=0.5,
                                       seed=7))
    simulate_energy(tasks, 20, HP_PROFILE, "ZombieStack", telemetry=tel)
    migration_comparison(wss_ratios=(0.4,), metrics=tel.registry)
    run_stream(iter([(0, False), (1, True), (0, True)]),
               lambda ppn, write: 1e-6, compute_s=1e-7,
               metrics=tel.registry, workload="selfcheck")
    return rack


def run_federation_scenario(telemetry: Optional[Telemetry] = None):
    """Drive a 2-rack federation until cross-rack lending engages.

    Zombifies most of both racks, drains rack2's pool (including the
    intra-rack growth from its active hosts) through the gateway, and
    keeps allocating until ``FED_borrow`` fires against rack1; the
    loans are then proactively returned (``FED_return``).  Returns the
    federation; its telemetry hub holds the rack-labelled federation
    metrics and the cross-rack span trees.
    """
    from repro.fed import Federation

    tel = telemetry or Telemetry(enabled=True)
    fed = Federation(n_racks=2, hosts_per_rack=3, memory_bytes=512 * MiB,
                     buff_size=16 * MiB, rng_seed=7, telemetry=tel)
    fed.make_zombie("rack1/h2")
    fed.make_zombie("rack1/h3")
    fed.make_zombie("rack2/h2")
    tenant = "rack2/h1"
    for _ in range(512):
        if fed.gateway.lending_triggers > 0:
            break
        fed.gateway.alloc_ext(tenant, 4 * fed.racks["rack2"].buff_size)
    if fed.lending.borrows == 0:
        raise RuntimeError("federation scenario never borrowed cross-rack")
    fed.lending.return_loans("rack2", "rack1")
    return fed


def run_failover_retry_scenario(telemetry: Optional[Telemetry] = None
                                ) -> Tuple[Telemetry, int]:
    """One ``GS_goto_zombie`` across injected retries and a failover.

    Kills the primary, waits out the promotion, fences the deposed
    controller's stale probe, then drops the first two ``GS_goto_zombie``
    attempts in flight so the third lands on the promoted secondary.
    Returns the telemetry hub and the trace id of that call.
    """
    from repro.core.rack import Rack

    tel = telemetry or Telemetry(enabled=True)
    rack = Rack(["h1", "h2"], memory_bytes=256 * MiB, buff_size=16 * MiB,
                telemetry=tel)
    deposed = rack.controller
    rack.kill_controller()
    rack.engine.run(until=10.0)
    if rack.controller is deposed:
        raise RuntimeError("secondary did not promote within 10 s")

    # The deposed primary probes an agent with its stale epoch: the
    # agent's fencing guard rejects it, tagging the serve span "fenced".
    try:
        deposed._agent_call("h1", Method.HEARTBEAT)
    except FencingError:
        pass

    # Drop the first two attempts in flight (the handler is reached, the
    # response is lost), so the logical call retries under backoff.
    verb = Method.GS_GOTO_ZOMBIE.value
    rpc = rack.controller.rpc
    inner = getattr(rpc.handlers[verb], "__wrapped__", rpc.handlers[verb])
    drops = {"left": 2}

    def flaky(*args, **kwargs):
        if drops["left"] > 0:
            drops["left"] -= 1
            raise RpcTimeoutError("injected response loss")
        return inner(*args, **kwargs)

    rpc.unregister(verb)
    # Safe under exactly-once dedup: the injected RpcTimeoutError is a
    # retryable outcome, which the dedup table never caches, so each
    # retry genuinely re-executes the flaky handler.
    rpc.register(Method.GS_GOTO_ZOMBIE.value, flaky)
    rack.make_zombie("h2")

    calls = tel.tracer.finished(f"call.{verb}")
    if not calls:
        raise RuntimeError(f"no call.{verb} span was recorded")
    return tel, calls[-1].trace_id


def _check_exports(tel: Telemetry, label: str) -> List[str]:
    problems = []
    problems += [f"{label}: {p}" for p in
                 validate_prometheus_text(to_prometheus_text(tel.registry))]
    problems += [f"{label}: {p}" for p in
                 validate_chrome_trace(to_chrome_trace(tel.tracer,
                                                       tel.registry))]
    problems += [f"{label}: {p}" for p in
                 span_forest_errors(tel.tracer.finished())]
    if tel.tracer._stack:
        problems.append(f"{label}: {len(tel.tracer._stack)} spans left "
                        "open after the scenario finished")
    return problems


def self_check() -> List[str]:
    """Run both scenarios; returns every contract violation found."""
    problems: List[str] = []

    rack = run_golden_scenario()
    tel = rack.telemetry
    seen = {labels.get("verb") for labels
            in tel.registry.labels_for("rpc_call_seconds")}
    for verb in INTRA_RACK_VERBS:
        if verb not in seen:
            problems.append(
                f"golden: verb {verb!r} has no rpc_call_seconds histogram "
                "(never completed a traced client call)"
            )
    for name, minimum in (
        ("hv_page_faults_total", 1), ("hv_evictions_total", 1),
        ("sz_transitions_total", 2), ("sz_dwell_seconds", 1),
        ("vm_migrations_total", 1), ("recovery_incidents_total", 1),
        ("rack_events_total", 1), ("dc_energy_joules_total", 1),
        ("workload_accesses_total", 1), ("migration_seconds", 1),
        ("host_energy_joules_total", 1), ("host_memory_bytes", 1),
    ):
        families = tel.registry.labels_for(name)
        total = sum(tel.registry.value(name, **labels) for labels in families)
        if total < minimum:
            problems.append(f"golden: metric {name} at {total}, "
                            f"expected >= {minimum}")
    # The fleet-audit gauges (ZL007's metric contract) must be present
    # in the registry even when their current value is legitimately 0
    # (e.g. the zombie pool after the last Sz host woke).
    for name in ("host_power_watts", "stranded_bytes",
                 "zombie_pool_bytes", "zombie_pool_free_bytes"):
        if not tel.registry.labels_for(name):
            problems.append(f"golden: fleet-audit metric {name} was never "
                            "registered (ZomAudit cannot grade this run)")
    if not tel.tracer.samples:
        problems.append("golden: the energy simulation recorded no "
                        "timeline samples")
    if tel.registry.value("lost_hosts") != 0:
        problems.append("golden: lost_hosts gauge did not return to 0 "
                        "after the host healed")
    problems += _check_exports(tel, "golden")

    fed = run_federation_scenario()
    tel3 = fed.telemetry
    seen = {labels.get("verb") for labels
            in tel3.registry.labels_for("rpc_call_seconds")}
    for verb in FED_VERBS:
        if verb not in seen:
            problems.append(
                f"federation: verb {verb!r} has no rpc_call_seconds "
                "histogram (never completed a traced client call)"
            )
    # A cross-rack borrow must appear as ONE connected span tree even
    # though the client sits in rack2 and the handler runs in rack1.
    borrows = tel3.tracer.finished("call.FED_borrow")
    if not borrows:
        problems.append("federation: no call.FED_borrow span recorded")
    else:
        trace = tel3.tracer.trace(borrows[0].trace_id)
        problems += [f"federation: {p}" for p in span_forest_errors(trace)]
        subtree = connected_subtree(trace, "call.FED_borrow")
        if not any(s.name == "serve.FED_borrow" for s in subtree):
            problems.append("federation: serve.FED_borrow is not reachable "
                            "from its call span (the cross-rack trace is "
                            "disconnected)")
    # Federation metrics carry rack labels, and the inter-rack link
    # actually charged energy (the J/hour term placement is graded on).
    for name, label in (("fed_rack_alive", "rack"),
                        ("fed_rack_free_zombie_bytes", "rack"),
                        ("fed_routed_total", "rack"),
                        ("fed_cross_rack_joules_total", "src_rack"),
                        ("fed_loans_total", "direction")):
        families = tel3.registry.labels_for(name)
        if not families:
            problems.append(f"federation: metric {name} was never "
                            "registered")
        elif not all(label in labels for labels in families):
            problems.append(f"federation: metric {name} is missing its "
                            f"{label!r} label")
    if fed.fabric.cross_rack_joules <= 0:
        problems.append("federation: cross-rack lending charged no "
                        "inter-rack energy")
    problems += _check_exports(tel3, "federation")

    tel2, trace_id = run_failover_retry_scenario()
    trace = tel2.tracer.trace(trace_id)
    problems += [f"failover: {p}" for p in span_forest_errors(trace)]
    attempts = [s for s in trace if s.name == "attempt.GS_goto_zombie"]
    serves = [s for s in trace if s.name == "serve.GS_goto_zombie"]
    if len(attempts) != 3:
        problems.append(f"failover: expected 3 attempt spans (2 drops + 1 "
                        f"success), got {len(attempts)}")
    if len(serves) != 3:
        problems.append(f"failover: expected 3 serve spans, got "
                        f"{len(serves)}")
    if sum(1 for s in serves if s.status == "error") != 2:
        problems.append("failover: expected exactly 2 error-status serve "
                        "spans from the injected drops")
    if not any(s.tags.get("fenced") for s in tel2.tracer.finished()):
        problems.append("failover: the deposed primary's stale-epoch probe "
                        "left no fenced-tagged span")
    retries = tel2.registry.value("rpc_retries_total",
                                  verb="GS_goto_zombie")
    if retries != 2:
        problems.append(f"failover: rpc_retries_total{{GS_goto_zombie}} is "
                        f"{retries}, expected 2")
    if tel2.registry.value("failovers_total") != 1:
        problems.append("failover: failovers_total counter is not 1")
    problems += _check_exports(tel2, "failover")
    return problems


def connected_subtree(trace: List[Span], root_name: str) -> List[Span]:
    """The spans reachable from the (single) ``root_name`` span — a test
    helper for asserting that a specific operation stayed connected."""
    by_parent = {}
    for span in trace:
        by_parent.setdefault(span.parent_id, []).append(span)
    roots = [s for s in trace if s.name == root_name]
    if len(roots) != 1:
        return []
    out, frontier = [], [roots[0]]
    while frontier:
        span = frontier.pop()
        out.append(span)
        frontier.extend(by_parent.get(span.span_id, []))
    return out
