"""ZomBench's metric and workload tables: one source for BENCHMARK.json.

``BENCHMARK.json`` at the repo root carries only what the pipeline's
schema allows (name, unit, direction, bound).  The time domain of each
metric, its definition, and — for per-layer metrics — which end-to-end
metric it should move on which workload live here; ``benchmark_json()``
derives the root file from these tables and ``test_wall_smoke.py``
checks that the two agree.

Time domains: *host* is wall-clock of our Python; *sim* is what the
modelled rack would take, and repeats bit-exactly for a fixed seed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

RUN_SECONDS = 10

WORKLOADS: Dict[str, str] = {
    "ramext_paging":
        "Data path only: hypervisor faults, replacement, page store and "
        "one-sided verbs; zero RPCs after set-up, so control-plane work "
        "must not move it.",
    "fed_churn":
        "Control path only: untraced RPC fast path, controller + mirror "
        "stream, federation lending and bulk frame carving; touches no "
        "guest page.",
    "rack_day":
        "Engine-driven whole rack: event heap, periodic heartbeats and "
        "probes, placement, consolidation, migration and energy metering.",
    "rack_day_traced":
        "The rack_day script with telemetry on, message faults, a host "
        "crash and a controller kill: the traced, retried, deduplicated "
        "RPC path plus obs and recovery.",
    "fig10_sweep":
        "Batch analytics: trace generation, demand slots and the Fig. 10 "
        "energy sweep; the workload whose energy_saving_pct is the "
        "paper's bar.",
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    domain: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    definition: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "host", "lower", 0.25,
             "imports + median of three builds of the racks/federation/VMs "
             "with cache warm-up, before the timed region (calibrated s)"),
    EndToEnd("ops_per_s", "1/s", "host", "higher", 0.25,
             "median over the run's windows of driver ops completed / "
             "calibrated window time; an op is a call the driver issues, "
             "never an internal RPC or event"),
    EndToEnd("op_p50_us", "us", "host", "lower", 0.25,
             "median calibrated host time per driver op"),
    EndToEnd("op_p99_us", "us", "host", "lower", 0.25,
             "99th percentile (nearest rank) of the same samples"),
    EndToEnd("peak_rss_mib", "MiB", "host", "lower", 0.10,
             "ru_maxrss of the workload's process"),
    EndToEnd("sim_us_per_op", "us", "sim", "lower", 0.10,
             "simulated time charged per driver op over the fixed prefix, "
             "from public counters (AccessStats.time_total_s; the "
             "fabric's busy_seconds)"),
    EndToEnd("energy_saving_pct", "%", "sim", "higher", 0.03,
             "energy saved against the same load with no power "
             "management, at the end of the fixed prefix"),
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    domain: str
    better: str
    #: (end-to-end metric, workload) pairs this metric should move.
    moves: Tuple[Tuple[str, str], ...]
    #: Workloads on which the prediction is "no change".
    unmoved: Tuple[str, ...] = ()


def _layer(prefix: str, moves, unmoved, *metrics) -> List[PerLayer]:
    return [PerLayer(f"{prefix}.{name}", unit, domain, better,
                     tuple(moves), tuple(unmoved))
            for name, unit, domain, better in metrics]


_BUSY = ("busy_s", "s", "host", "lower")

PER_LAYER: Tuple[PerLayer, ...] = tuple(
    _layer("sim", [("ops_per_s", "rack_day")],
           ["ramext_paging", "fed_churn"],
           ("events", "count", "sim", "lower"), _BUSY,
           ("us_per_event", "us", "host", "lower"))
    + _layer("rdma.fabric",
             [("ops_per_s", "ramext_paging"), ("op_p50_us", "ramext_paging"),
              ("sim_us_per_op", "ramext_paging")], ["fig10_sweep"],
             ("verbs", "count", "sim", "lower"),
             ("bytes", "B", "sim", "lower"), _BUSY,
             ("sim_busy_s", "s", "sim", "lower"))
    + _layer("rdma.rpc",
             [("ops_per_s", "fed_churn"), ("ops_per_s", "rack_day"),
              ("ops_per_s", "rack_day_traced")], ["ramext_paging"],
             ("calls", "count", "sim", "lower"),
             ("attempts", "count", "sim", "lower"),
             ("retries", "count", "sim", "lower"),
             ("dedup_replays", "count", "sim", "lower"),
             ("failed", "count", "sim", "lower"), _BUSY,
             ("us_per_call", "us", "host", "lower"))
    + _layer("core.controller",
             [("ops_per_s", "fed_churn"), ("op_p50_us", "fed_churn")], [],
             ("verbs", "count", "sim", "lower"), _BUSY,
             ("us_per_verb", "us", "host", "lower"))
    + _layer("core.secondary",
             [("ops_per_s", "fed_churn"), ("sim_us_per_op", "fed_churn")], [],
             ("mirror_ops", "count", "sim", "lower"),
             ("mirror_ops_per_verb", "ratio", "sim", "lower"), _BUSY)
    + _layer("core.manager", [("op_p99_us", "fed_churn")], [],
             ("calls", "count", "sim", "lower"), _BUSY)
    + _layer("core.recovery",
             [("ops_per_s", "rack_day"), ("ops_per_s", "rack_day_traced")],
             [],
             ("probes", "count", "sim", "lower"),
             ("incidents", "count", "sim", "lower"), _BUSY)
    + _layer("hypervisor",
             [("ops_per_s", "ramext_paging"), ("op_p99_us", "ramext_paging")],
             ["fed_churn"],
             ("accesses", "count", "sim", "higher"),
             ("faults", "count", "sim", "lower"),
             ("evictions", "count", "sim", "lower"),
             ("hit_ratio", "ratio", "sim", "higher"),
             ("migrations", "count", "sim", "lower"), _BUSY,
             ("us_per_fault", "us", "host", "lower"))
    + _layer("memory.frames",
             [("ops_per_s", "fed_churn"), ("op_p99_us", "fed_churn"),
              ("setup_s", "fed_churn"), ("ops_per_s", "ramext_paging")], [],
             ("frames", "count", "sim", "lower"), _BUSY,
             ("ns_per_frame", "ns", "host", "lower"))
    + _layer("memory.buffers", [("ops_per_s", "ramext_paging")], [],
             ("pages", "count", "sim", "lower"),
             ("fallbacks", "count", "sim", "lower"), _BUSY)
    + _layer("memory.replacement", [("ops_per_s", "ramext_paging")], [],
             ("selects", "count", "sim", "lower"), _BUSY)
    + _layer("acpi", [("op_p99_us", "fed_churn")], [],
             ("transitions", "count", "sim", "lower"), _BUSY)
    + _layer("cloud", [("ops_per_s", "rack_day")], [],
             ("decisions", "count", "sim", "lower"), _BUSY)
    + _layer("energy", [("ops_per_s", "rack_day")], [],
             ("samples", "count", "sim", "lower"),
             ("kwh", "kWh", "sim", "lower"), _BUSY)
    + _layer("traces", [("ops_per_s", "fig10_sweep")],
             ["ramext_paging", "fed_churn", "rack_day", "rack_day_traced"],
             ("tasks", "count", "sim", "higher"), _BUSY)
    + _layer("dc", [("ops_per_s", "fig10_sweep")],
             ["ramext_paging", "fed_churn", "rack_day", "rack_day_traced"],
             ("slots", "count", "sim", "higher"), _BUSY)
    + _layer("fed", [("ops_per_s", "fed_churn")], ["rack_day"],
             ("routed", "count", "sim", "lower"),
             ("borrows", "count", "sim", "lower"),
             ("returns", "count", "sim", "lower"),
             ("recalls", "count", "sim", "lower"),
             ("borrows_per_trigger", "ratio", "sim", "higher"), _BUSY)
    + _layer("obs", [("ops_per_s", "rack_day_traced")],
             ["ramext_paging", "fed_churn", "rack_day", "fig10_sweep"],
             ("spans", "count", "sim", "lower"),
             ("spans_dropped", "count", "sim", "lower"),
             ("series", "count", "sim", "lower"), _BUSY,
             ("export_s", "s", "host", "lower"))
    + _layer("bench", [("ops_per_s", w) for w in WORKLOADS], [],
             ("driver_s", "s", "host", "lower"),
             ("unattributed_s", "s", "host", "lower"),
             ("spans_recorded", "count", "host", "lower"),
             ("trace_overhead_ratio", "ratio", "host", "lower"))
)


def benchmark_json() -> dict:
    """The contents of the repo-root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/wall/run.py"],
        "paths": ["benchmarks/wall"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    import json
    print(json.dumps(benchmark_json(), indent=2))
