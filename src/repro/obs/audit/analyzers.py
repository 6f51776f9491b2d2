"""The six scored audit dimensions and the pluggable analyzer pipeline.

Each analyzer consumes one :class:`~repro.obs.audit.inputs.AuditInputs`
and returns a :class:`Dimension`: a raw value in a natural unit, the
calibrated score/grade (:mod:`repro.obs.audit.grading`), and a detail
dict of the intermediate quantities the recommendation engine reuses.
Analyzers are registered in :data:`DEFAULT_ANALYZERS`; adding a
dimension is one subclass plus one :data:`~repro.obs.audit.grading.
CALIBRATIONS` entry (see docs/AUDIT.md).

Every analyzer must degrade gracefully when its series are absent (a
bench run without the DC layer, a DC replay without a rack): it reports
``available=False`` and an N/A grade rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.obs.audit.grading import CALIBRATIONS, Calibration
from repro.obs.audit.inputs import AuditInputs
from repro.units import GiB, HOUR, bytes_to_gib, joules_to_kwh

#: Normalized server units → bytes: one demand-trace server-unit of
#: memory corresponds to one host's worth of DRAM.
NOMINAL_SERVER_MEM_BYTES = 128 * GiB

#: Electricity price used by the cost projection (US industrial average).
USD_PER_KWH = 0.12

#: Hours in a Julian year, for annualized projections.
HOURS_PER_YEAR = 8766.0

#: Event kinds that count as lease churn (control-plane re-shuffling).
CHURN_EVENT_KINDS = (
    "buffers-reclaimed", "us-reclaim", "buffers-invalidated",
    "buffers-transferred", "revoke-failed",
)

#: Event kinds that establish a lease (the churn denominator): a zombie
#: entry lends the host's pool; ext/swap allocations lease it out.
LEND_EVENT_KINDS = ("zombie-enter", "alloc-ext", "alloc-swap")


@dataclass(frozen=True)
class Dimension:
    """One scored audit dimension."""

    key: str
    title: str
    value: float             # raw value in `unit`
    unit: str
    score: float             # calibrated, in [0, 1]
    grade: str               # A..F, or "-" when not available
    summary: str
    available: bool = True
    detail: Dict[str, float] = field(default_factory=dict)


class Analyzer:
    """Base class: subclasses set ``key``/``title`` and ``compute``."""

    key = "?"
    title = "?"
    unit = ""

    def calibration(self) -> Calibration:
        return CALIBRATIONS[self.key]

    def analyze(self, inputs: AuditInputs) -> Dimension:
        computed = self.compute(inputs)
        if computed is None:
            return Dimension(key=self.key, title=self.title, value=0.0,
                             unit=self.unit, score=0.0, grade="-",
                             summary="not measurable from this run",
                             available=False)
        value, summary, detail = computed
        calibration = self.calibration()
        score = calibration.score(value)
        return Dimension(key=self.key, title=self.title, value=value,
                         unit=self.unit, score=score,
                         grade=calibration.grade(value), summary=summary,
                         detail=detail)

    def compute(self, inputs: AuditInputs):
        """``(value, summary, detail)`` or None when not measurable."""
        raise NotImplementedError


class ZombieConversionAnalyzer(Analyzer):
    """Fraction of cold remote-memory demand served by the zombie pool.

    DC runs read the ``dc_remote_mem_server_seconds_total`` /
    ``dc_zombie_served_server_seconds_total`` integrals for the audited
    policy; rack-only runs fall back to the lent-pool view (bytes lent
    by Sz hosts over everything a powered host could lend).
    """

    key = "zombie_conversion"
    title = "Zombie conversion rate"
    unit = "fraction"

    def compute(self, inputs: AuditInputs):
        labels = dict(policy=inputs.policy, profile=inputs.profile)
        remote = inputs.value("dc_remote_mem_server_seconds_total", **labels)
        served = inputs.value("dc_zombie_served_server_seconds_total",
                              **labels)
        if inputs.has_series("dc_remote_mem_server_seconds_total", **labels):
            value = served / remote if remote > 0 else 1.0
            unserved = max(0.0, remote - served)
            return (value,
                    f"{served:.0f} of {remote:.0f} cold server-seconds "
                    f"served from the zombie pool ({inputs.policy})",
                    {"remote_server_seconds": remote,
                     "served_server_seconds": served,
                     "unserved_server_seconds": unserved})
        pool = inputs.value("zombie_pool_bytes")
        lendable = pool + sum(h.stranded_bytes for h in inputs.hosts
                              if h.state == "S0")
        if not inputs.has_series("zombie_pool_bytes"):
            return None
        value = pool / lendable if lendable > 0 else 0.0
        return (value,
                f"{bytes_to_gib(pool):.2f} GiB of "
                f"{bytes_to_gib(lendable):.2f} GiB "
                "lendable DRAM converted to the zombie pool",
                {"zombie_pool_bytes": pool, "lendable_bytes": lendable})


class StrandedMemoryAnalyzer(Analyzer):
    """Fraction of powered DRAM serving nobody, per host and rack-wide."""

    key = "stranded_memory"
    title = "Stranded-memory fraction"
    unit = "fraction"

    def compute(self, inputs: AuditInputs):
        rows = inputs.series("stranded_bytes")
        capacity = {labels.get("host", "?"): value
                    for labels, value in inputs.series("host_memory_bytes")}
        if not rows or not capacity:
            return None
        stranded_total = sum(value for _, value in rows)
        capacity_total = sum(capacity.values())
        value = stranded_total / capacity_total if capacity_total else 0.0
        detail: Dict[str, float] = {
            "stranded_bytes_total": stranded_total,
            "capacity_bytes_total": capacity_total,
            "zombie_pool_free_bytes":
                inputs.value("zombie_pool_free_bytes"),
        }
        worst_host, worst_fraction = "", 0.0
        for labels, value_h in rows:
            host = labels.get("host", "?")
            fraction = value_h / capacity[host] if capacity.get(host) else 0.0
            detail[f"stranded_fraction[{host}]"] = fraction
            if fraction > worst_fraction:
                worst_host, worst_fraction = host, fraction
        summary = (f"{bytes_to_gib(stranded_total):.2f} GiB of "
                   f"{bytes_to_gib(capacity_total):.2f} GiB powered DRAM is "
                   f"stranded; worst host {worst_host!r} at "
                   f"{worst_fraction * 100:.0f}%")
        return value, summary, detail


class PueEfficiencyAnalyzer(Analyzer):
    """zPUE: integrated energy over the ideal energy-proportional energy.

    The classic PUE divides facility power by IT power; the zombieland
    variant divides the rack's integrated energy by what a perfectly
    energy-proportional rack would have drawn for the same CPU demand.
    1.0 is unreachable perfection; the no-power-management baseline
    lands far above it because idle hosts burn ~50 % of max.
    """

    key = "pue_efficiency"
    title = "zPUE efficiency ratio"
    unit = "ratio"

    def compute(self, inputs: AuditInputs):
        labels = dict(policy=inputs.policy, profile=inputs.profile)
        joules = inputs.value("dc_energy_joules_total", **labels)
        ideal = inputs.value("dc_ideal_joules_total", **labels)
        if not inputs.has_series("dc_ideal_joules_total", **labels) \
                or ideal <= 0 or joules <= 0:
            return None
        value = joules / ideal
        baseline = inputs.value("dc_energy_joules_total",
                                policy=inputs.baseline_policy,
                                profile=inputs.profile)
        detail = {"joules": joules, "ideal_joules": ideal,
                  "baseline_joules": baseline}
        if baseline > 0:
            detail["baseline_zpue"] = baseline / ideal
        return (value,
                f"zPUE {value:.2f} (ideal 1.0"
                + (f", baseline {baseline / ideal:.2f}" if baseline > 0
                   else "") + ")",
                detail)


class EnergyPerGBAnalyzer(Analyzer):
    """kJ spent per GiB-hour of memory actually served."""

    key = "energy_per_gb"
    title = "Energy per served GiB-hour"
    unit = "kJ/GiB·h"

    def compute(self, inputs: AuditInputs):
        labels = dict(policy=inputs.policy, profile=inputs.profile)
        joules = inputs.value("dc_energy_joules_total", **labels)
        server_s = inputs.value("dc_mem_used_server_seconds_total", **labels)
        if not inputs.has_series("dc_mem_used_server_seconds_total",
                                 **labels) or server_s <= 0 or joules <= 0:
            return None
        gib_hours = server_s * bytes_to_gib(NOMINAL_SERVER_MEM_BYTES) / HOUR
        value = joules / gib_hours / 1e3
        detail = {"joules": joules, "served_gib_hours": gib_hours}
        baseline = inputs.value("dc_energy_joules_total",
                                policy=inputs.baseline_policy,
                                profile=inputs.profile)
        if baseline > 0:
            detail["baseline_kj_per_gib_hour"] = baseline / gib_hours / 1e3
        return (value,
                f"{value:.2f} kJ per served GiB-hour over "
                f"{gib_hours:.0f} GiB-hours",
                detail)


class LeaseChurnAnalyzer(Analyzer):
    """Control-plane churn per lend: reclaims, invalidations, transfers.

    A healthy fleet lends buffers once and leaves them; wake-ups,
    failures and quota pressure revoke and re-home them, each round trip
    costing RPCs and slow-path page moves.  The value is churn events
    per lease-grant event (zombie entries plus ext/swap allocations),
    with retries and local-fallback page traffic reported alongside.
    """

    key = "lease_churn"
    title = "Lease-churn overhead"
    unit = "churn/lend"

    def compute(self, inputs: AuditInputs):
        lends = sum(inputs.event_count(kind) for kind in LEND_EVENT_KINDS)
        if not inputs.events and lends == 0:
            return None
        churn = sum(inputs.event_count(kind) for kind in CHURN_EVENT_KINDS)
        value = churn / max(1, lends)
        retries = inputs.value("rpc_retries_total")
        fallback_ops = sum(
            inputs.value("page_store_ops_total", op=op)
            for op in ("fallback_store", "fallback_load", "orphaned"))
        rehomed = inputs.value("page_store_ops_total", op="rehomed")
        detail = {"churn_events": float(churn), "lend_events": float(lends),
                  "rpc_retries": retries, "fallback_ops": fallback_ops,
                  "rehomed_pages": rehomed}
        for kind in CHURN_EVENT_KINDS:
            detail[f"events[{kind}]"] = float(inputs.event_count(kind))
        return (value,
                f"{churn} churn events over {lends} lease grants "
                f"({rehomed:.0f} pages re-homed, "
                f"{fallback_ops:.0f} local-fallback ops)",
                detail)


class CostProjectionAnalyzer(Analyzer):
    """Annualized electricity cost and the saving vs. the baseline.

    Graded on the % energy saving the audited policy achieves against
    the no-power-management baseline — the paper's Fig. 10 yardstick —
    with the absolute $/year projection carried in the detail.
    """

    key = "cost_projection"
    title = "Cost projection"
    unit = "% saving"

    def compute(self, inputs: AuditInputs):
        labels = dict(policy=inputs.policy, profile=inputs.profile)
        joules = inputs.value("dc_energy_joules_total", **labels)
        span_s = inputs.value("dc_demand_slot_seconds_total", **labels)
        baseline = inputs.value("dc_energy_joules_total",
                                policy=inputs.baseline_policy,
                                profile=inputs.profile)
        if joules <= 0 or span_s <= 0 or baseline <= 0:
            return None
        saving_pct = (1.0 - joules / baseline) * 100.0
        hours = span_s / HOUR
        annual_kwh = joules_to_kwh(joules) / hours * HOURS_PER_YEAR
        baseline_kwh = joules_to_kwh(baseline) / hours * HOURS_PER_YEAR
        annual_usd = annual_kwh * USD_PER_KWH
        saving_usd = (baseline_kwh - annual_kwh) * USD_PER_KWH
        detail = {"saving_pct": saving_pct,
                  "annual_kwh": annual_kwh,
                  "annual_usd": annual_usd,
                  "annual_saving_usd": saving_usd,
                  "audited_hours": hours}
        return (saving_pct,
                f"projected ${annual_usd:,.0f}/year at "
                f"${USD_PER_KWH:.2f}/kWh — saves ${saving_usd:,.0f}/year "
                f"({saving_pct:.1f}%) vs {inputs.baseline_policy}",
                detail)


#: The six audit dimensions, in report order.
DEFAULT_ANALYZERS: Sequence[Analyzer] = (
    ZombieConversionAnalyzer(),
    StrandedMemoryAnalyzer(),
    PueEfficiencyAnalyzer(),
    EnergyPerGBAnalyzer(),
    LeaseChurnAnalyzer(),
    CostProjectionAnalyzer(),
)


def run_analyzers(inputs: AuditInputs) -> List[Dimension]:
    return [analyzer.analyze(inputs) for analyzer in DEFAULT_ANALYZERS]
