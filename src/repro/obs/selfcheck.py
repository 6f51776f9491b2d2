"""The ZomTrace self-check: scripted scenarios plus hard assertions.

``python -m repro.obs --self-check`` runs :func:`self_check` over three
fully instrumented scenarios and returns every departure from the
observability contract as a human-readable problem string (an empty
list is a pass):

- the **golden scenario**, the rack tour (:func:`repro.tour.rack_tour`)
  on a metered rack plus the hypervisor, energy and workload layers;
- the **federation scenario**, the federation tour on two racks, whose
  cross-rack borrow must trace as one connected span tree;
- the **failover scenario**, one ``GS_goto_zombie`` that survives two
  dropped attempts and a promotion as one connected tree (call → 3
  attempts → 3 server spans, two of them errors) beside the deposed
  primary's ``fenced`` probe.

Every verb a tour declares must complete a traced call, every span tree
must be connected, and both exporters' output must validate.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro.core.protocol import Method
from repro.errors import FencingError, RpcTimeoutError
from repro.obs import Telemetry
from repro.obs.export import (to_chrome_trace, to_prometheus_text,
                              validate_chrome_trace,
                              validate_prometheus_text)
from repro.obs.tracing import Span, span_forest_errors
from repro.tour import (BUFFER, FED_TOUR, MEMORY, RACK_TOUR, fed_tour,
                        rack_tour, verbs)
from repro.units import MiB


def run_golden_scenario(telemetry: Optional[Telemetry] = None):
    """Drive the rack tour on one instrumented, metered rack, touching
    vm1's pages twice, then feed the non-RPC layers.

    Returns the rack; its ``telemetry`` hub holds the resulting metrics
    and spans.
    """
    from repro.analysis.experiments import migration_comparison
    from repro.core.rack import Rack
    from repro.dc.energy_sim import simulate_energy
    from repro.energy.profiles import HP_PROFILE
    from repro.energy.rack_monitor import RackEnergyMonitor
    from repro.traces.google import generate_trace
    from repro.traces.schema import TraceConfig
    from repro.workloads.driver import run_stream

    tel = telemetry or Telemetry(enabled=True)
    rack = Rack(["user", "active", "spare"], memory_bytes=MEMORY,
                buff_size=BUFFER, telemetry=tel)
    # Meter the rack so the fleet-audit gauges (stranded_bytes,
    # zombie_pool_bytes, host_energy_joules_total, ...) are exercised by
    # the same golden scenario that pins the RPC contract.
    monitor = RackEnergyMonitor(rack, HP_PROFILE, sample_period_s=0.5)
    hypervisor = rack.server("user").hypervisor
    for step, result in rack_tour(rack, "user", "active", "spare"):
        if step == "create_vm1":
            for _ in range(2):
                for ppn in range(result.spec.total_pages):
                    hypervisor.access(result, ppn)

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
    """Drive the federation tour on two racks: rack2 borrows from rack1,
    then returns the loans.  Returns the federation, whose hub holds the
    rack-labelled federation metrics and the cross-rack span trees."""
    from repro.fed import Federation

    tel = telemetry or Telemetry(enabled=True)
    fed = Federation(n_racks=2, hosts_per_rack=3, memory_bytes=MEMORY,
                     buff_size=BUFFER, rng_seed=7, telemetry=tel)
    for _ in fed_tour(fed, ("rack1/h2", "rack1/h3", "rack2/h2"), "rack2/h1"):
        pass
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


def _check_hub(tel: Telemetry, label: str,
               declared: FrozenSet[str] = frozenset()) -> List[str]:
    """What every scenario's hub must show: each ``declared`` verb
    completed a traced call, valid exports and a connected span forest."""
    seen = {labels.get("verb") for labels
            in tel.registry.labels_for("rpc_call_seconds")}
    problems = [f"{label}: verb {verb!r} has no rpc_call_seconds histogram "
                "(never completed a traced client call)"
                for verb in sorted(declared - seen)]
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
    """Run the three scenarios; returns every contract violation found."""
    problems: List[str] = []

    rack = run_golden_scenario()
    tel = rack.telemetry
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
    problems += _check_hub(tel, "golden", verbs(RACK_TOUR))

    fed = run_federation_scenario()
    tel3 = fed.telemetry
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
    problems += _check_hub(tel3, "federation", verbs(FED_TOUR))

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
    problems += _check_hub(tel2, "failover")
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
