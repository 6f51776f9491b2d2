"""Per-layer readings: the program's own public counters plus span times.

Counts are read where the work happens — ``RetryStats``, ``calls_served``,
``dedup_replays``, ``FabricStats``, ``AccessStats``, ``pages_stored``,
``Federation.stats()``, ``Tracer.finished()`` — never re-derived by the
driver.  The four layers that keep no public counter (frames handled,
power transitions, cloud decisions, energy samples, migrations) are
counted from the span recorder instead, so those exist in a traced run
only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import spans
from metrics import PER_LAYER


@dataclass
class World:
    """The live objects of one workload instance."""

    racks: List = field(default_factory=list)
    feds: List = field(default_factory=list)
    telemetry: Optional[object] = None
    monitor: Optional[object] = None
    #: Controllers deposed by a failover; their servers' counters still
    #: belong to the run.
    retired_controllers: List = field(default_factory=list)
    driver_counts: Counter = field(default_factory=Counter)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def public_counters(world: World) -> Dict[str, float]:
    """Every sim-domain count the system exposes, keyed by metric name."""
    out: Dict[str, float] = Counter()
    fabrics = {id(rack.fabric): rack.fabric for rack in world.racks}
    for fabric in fabrics.values():
        out["rdma.fabric.verbs"] += fabric.stats.reads + fabric.stats.writes
        out["rdma.fabric.bytes"] += (fabric.stats.bytes_read
                                     + fabric.stats.bytes_written)
        out["rdma.fabric.sim_busy_s"] += fabric.stats.busy_seconds
    policies = [p for rack in world.racks
                for p in (rack.retry_policy, rack.monitor_policy)]
    policies += [fed.monitor_policy for fed in world.feds]
    for policy in policies:
        out["rdma.rpc.calls"] += policy.stats.calls
        out["rdma.rpc.attempts"] += policy.stats.attempts
        out["rdma.rpc.retries"] += policy.stats.retries
        out["rdma.rpc.failed"] += policy.stats.giveups
    controllers = ([rack.controller for rack in world.racks]
                   + world.retired_controllers)
    servers = [c.rpc for c in controllers]
    for controller in controllers:
        out["core.controller.verbs"] += controller.rpc.calls_served
    for rack in world.racks:
        out["core.secondary.mirror_ops"] += rack.secondary.rpc.calls_served
        out["core.recovery.probes"] += rack.recovery.probes_sent
        out["core.recovery.incidents"] += len(rack.recovery.incidents)
        servers.append(rack.secondary.rpc)
        for server in rack.servers.values():
            out["core.manager.calls"] += server.manager.rpc.calls_served
            servers.append(server.manager.rpc)
            hv = server.hypervisor
            for name, vm in hv.vms.items():
                stats = hv.stats(name)
                out["hypervisor.accesses"] += stats.accesses
                out["hypervisor.faults"] += stats.page_faults
                out["hypervisor.evictions"] += stats.evictions
                out["memory.replacement.selects"] += vm.policy.victims_selected
                store = hv.store_for(name)
                if store is not None:
                    out["memory.buffers.pages"] += (store.pages_stored
                                                    + store.pages_loaded)
                    out["memory.buffers.fallbacks"] += (
                        store.local_fallback_stores
                        + store.local_fallback_loads)
    for fed in world.feds:
        stats = fed.stats()
        for key in ("routed", "borrows", "returns", "recalls"):
            out[f"fed.{key}"] += stats[key]
        out["fed.lending_triggers"] += stats["lending_triggers"]
        servers += [agent.rpc for agent in fed.lending.agents.values()]
    out["rdma.rpc.dedup_replays"] = sum(s.dedup_replays for s in servers)
    tel = world.telemetry
    if tel is not None:
        out["obs.spans_dropped"] = tel.tracer.dropped
        out["obs.spans"] = len(tel.tracer.finished()) + tel.tracer.dropped
        out["obs.series"] = sum(len(family.series())
                                for family in tel.registry.families())
    if world.monitor is not None:
        out["energy.kwh"] = world.monitor.total_kwh()
    out.update(world.driver_counts)
    return dict(out)


def per_layer_metrics(recorder: spans.SpanRecorder, counts: Dict[str, float],
                      export_s: float, untraced_s_per_op: float,
                      traced_ops: int) -> Dict[str, float]:
    """All 66 per-layer metrics of one traced run, 0 where a layer idles.

    ``counts`` is ``public_counters`` after the traced region minus
    before it.
    """
    by_name = recorder.by_name
    out = {name: float(value) for name, value in counts.items()}
    for layer in spans.LAYERS:
        out[f"{layer}.busy_s"] = recorder.busy_s(layer)

    def units(*names: str) -> int:
        return sum(by_name[n][spans.UNITS] for n in names if n in by_name)

    out["memory.frames.frames"] = units(
        "FrameAllocator.alloc", "FrameAllocator.try_alloc",
        "FrameAllocator.alloc_many", "FrameAllocator.free",
        "FrameAllocator.free_many")
    out["acpi.transitions"] = recorder.calls(
        "ServerPlatform.suspend", "ServerPlatform.go_zombie",
        "ServerPlatform.wake")
    out["cloud.decisions"] = recorder.calls(
        "ZombieStackOrchestrator.boot_vm", "ZombieStackOrchestrator.stop_vm",
        "ZombieStackOrchestrator.consolidate")
    out["energy.samples"] = recorder.calls("RackEnergyMonitor.sample")
    out["hypervisor.migrations"] = recorder.calls(
        "migrate_native", "migrate_zombiestack", "migrate_vm_zombiestack")

    us = 1e6
    out["sim.us_per_event"] = _ratio(out["sim.busy_s"] * us,
                                     out.get("sim.events", 0))
    out["rdma.rpc.us_per_call"] = _ratio(out["rdma.rpc.busy_s"] * us,
                                         out.get("rdma.rpc.calls", 0))
    out["core.controller.us_per_verb"] = _ratio(
        out["core.controller.busy_s"] * us,
        out.get("core.controller.verbs", 0))
    out["core.secondary.mirror_ops_per_verb"] = _ratio(
        out.get("core.secondary.mirror_ops", 0),
        out.get("core.controller.verbs", 0))
    out["hypervisor.hit_ratio"] = (
        1.0 - _ratio(out.get("hypervisor.faults", 0),
                     out["hypervisor.accesses"])
        if out.get("hypervisor.accesses") else 0.0)
    # A hit never leaves the hypervisor; an access that entered another
    # layer took the fault path.  Inclusive time: what the guest waited.
    access = by_name.get("Hypervisor.access", [0] * 6)
    out["hypervisor.us_per_fault"] = _ratio(access[spans.DESCENDED_NS] / 1e3,
                                            access[spans.DESCENDED])
    out["memory.frames.ns_per_frame"] = _ratio(
        out["memory.frames.busy_s"] * 1e9, out["memory.frames.frames"])
    out["fed.borrows_per_trigger"] = _ratio(
        out.get("fed.borrows", 0), out.pop("fed.lending_triggers", 0))
    out["obs.export_s"] = export_s
    out["bench.driver_s"] = recorder.driver_s()
    out["bench.unattributed_s"] = recorder.busy_s(spans.GLUE)
    out["bench.spans_recorded"] = recorder.spans
    out["bench.trace_overhead_ratio"] = _ratio(
        recorder.wall_ns / 1e9, untraced_s_per_op * traced_ops)
    return {m.name: float(out.get(m.name, 0.0)) for m in PER_LAYER}
