"""Ranked, quantified recommendations from audit dimensions.

Each :class:`ImpactCalculator` inspects the scored dimensions (and the
raw inputs) and, when its pattern applies, emits a
:class:`Recommendation` quantified in joules/hour recoverable — e.g.
*"host h7 holds 38 % stranded zombie RAM; raising the lend quota
recovers ~214 J/hour"*.  The engine runs every calculator and ranks the
surviving recommendations by impact, so the report always leads with
the cheapest watt.

The J/hour figures are first-order estimates from the measured machine
profile (Table 3 power fractions), not promises; each recommendation
carries its arithmetic in ``basis`` so an operator can audit the audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.acpi.states import SleepState
from repro.energy.model import server_power_watts
from repro.energy.profiles import PROFILES, MachineProfile
from repro.obs.audit.analyzers import Dimension
from repro.obs.audit.inputs import AuditInputs
from repro.units import HOUR, bytes_to_gib


@dataclass(frozen=True)
class Recommendation:
    """One actionable finding, quantified in joules/hour recoverable."""

    action: str              # imperative: what to change
    impact_j_per_hour: float
    dimension: str           # key of the dimension it improves
    rationale: str           # the observation that triggered it
    basis: Dict[str, float] = field(default_factory=dict)


def _profile(inputs: AuditInputs) -> MachineProfile:
    return PROFILES.get(inputs.profile, PROFILES["HP"])


def _dim(dimensions: Sequence[Dimension], key: str) -> Optional[Dimension]:
    for dimension in dimensions:
        if dimension.key == key and dimension.available:
            return dimension
    return None


class ImpactCalculator:
    """Base class: return a Recommendation, or None when inapplicable."""

    def propose(self, inputs: AuditInputs,
                dimensions: Sequence[Dimension]
                ) -> Optional[Recommendation]:
        raise NotImplementedError


class StrandedHostCalculator(ImpactCalculator):
    """Worst stranded host: raise its lend quota / convert it.

    Stranded DRAM on an S0 host means the board burns idle power for
    nothing; converting the host to Sz (serving the same bytes from the
    pool) drops it from S0-idle to Sz draw.  Stranded *zombie* pool on
    an Sz host means the quota lent exceeds demand — trim it and deepen
    another host's sleep instead.
    """

    def propose(self, inputs, dimensions):
        worst = None
        for host in inputs.hosts:
            if worst is None or host.stranded_fraction > worst.stranded_fraction:
                worst = host
        if worst is None or worst.stranded_fraction < 0.05:
            return None
        profile = _profile(inputs)
        if worst.state == "S0":
            idle_w = server_power_watts(profile, SleepState.S0, 0.0)
            sz_w = server_power_watts(profile, SleepState.SZ)
            # The stranded share of the board's power, recoverable by
            # lending those frames and letting another board sleep.
            impact_j_h = (idle_w - sz_w) * worst.stranded_fraction * HOUR
            action = (f"raise host {worst.name!r} lend quota (or convert "
                      "it to a zombie) to pool its idle DRAM")
        else:
            sz_w = server_power_watts(profile, SleepState.SZ)
            impact_j_h = sz_w * worst.stranded_fraction * 3600.0
            action = (f"trim host {worst.name!r} zombie lend quota to "
                      "match demand and deepen sleep elsewhere")
        rationale = (f"host {worst.name!r} holds "
                     f"{worst.stranded_fraction * 100:.0f}% stranded "
                     f"{'zombie ' if worst.state != 'S0' else ''}RAM "
                     f"({bytes_to_gib(worst.stranded_bytes):.2f} GiB)")
        return Recommendation(
            action=action, impact_j_per_hour=impact_j_h,
            dimension="stranded_memory", rationale=rationale,
            basis={"stranded_fraction": worst.stranded_fraction,
                   "stranded_bytes": worst.stranded_bytes})


class UnservedRemoteCalculator(ImpactCalculator):
    """Cold demand not served by zombies → spun-up memory servers.

    Every remote server-second the zombie pool fails to cover is served
    by a dedicated S0 memory server instead; each such server-second
    costs S0-idle draw where Sz draw would have sufficed.
    """

    def propose(self, inputs, dimensions):
        conversion = _dim(dimensions, "zombie_conversion")
        if conversion is None:
            return None
        unserved = conversion.detail.get("unserved_server_seconds", 0.0)
        if unserved <= 0 or inputs.duration_s <= 0 and not unserved:
            return None
        span = inputs.value("dc_demand_slot_seconds_total",
                            policy=inputs.policy, profile=inputs.profile)
        if span <= 0 or unserved <= 0:
            return None
        profile = _profile(inputs)
        idle_w = server_power_watts(profile, SleepState.S0, 0.0)
        sz_w = server_power_watts(profile, SleepState.SZ)
        # mean unserved servers × per-server saving, per hour
        mean_unserved = unserved / span
        impact_j_h = mean_unserved * (idle_w - sz_w) * 3600.0
        rationale = (f"{mean_unserved:.2f} server-equivalents of cold "
                     "memory demand bypass the zombie pool and run on "
                     "dedicated S0 memory servers")
        return Recommendation(
            action="grow the zombie pool (convert more idle hosts to Sz) "
                   "so cold pages land on zombies, not memory servers",
            impact_j_per_hour=impact_j_h,
            dimension="zombie_conversion", rationale=rationale,
            basis={"unserved_server_seconds": unserved,
                   "mean_unserved_servers": mean_unserved,
                   "idle_watts": idle_w, "sz_watts": sz_w})


class PolicyGapCalculator(ImpactCalculator):
    """Audited policy vs. the best policy in the same snapshot."""

    def propose(self, inputs, dimensions):
        audited = inputs.value("dc_energy_joules_total",
                               policy=inputs.policy, profile=inputs.profile)
        span = inputs.value("dc_demand_slot_seconds_total",
                            policy=inputs.policy, profile=inputs.profile)
        if audited <= 0 or span <= 0:
            return None
        best_policy, best_joules = None, audited
        for labels, joules in inputs.series("dc_energy_joules_total",
                                            profile=inputs.profile):
            if labels.get("policy") == inputs.policy:
                continue
            if 0 < joules < best_joules:
                best_policy, best_joules = labels.get("policy"), joules
        if best_policy is None:
            return None
        impact_j_h = (audited - best_joules) / (span / 3600.0)
        rationale = (f"policy {best_policy!r} serves the same demand for "
                     f"{(1 - best_joules / audited) * 100:.1f}% less energy "
                     "in this snapshot")
        return Recommendation(
            action=f"switch the fleet policy from {inputs.policy!r} to "
                   f"{best_policy!r}",
            impact_j_per_hour=impact_j_h,
            dimension="pue_efficiency", rationale=rationale,
            basis={"audited_joules": audited, "best_joules": best_joules,
                   "span_s": span})


class LeaseChurnCalculator(ImpactCalculator):
    """Churny leases: every revoke/re-home round trip wastes work."""

    #: First-order cost of one churn event: the slow-path page moves and
    #: RPC round trips of a reclaim, expressed as joules of S0 CPU time.
    JOULES_PER_CHURN_EVENT = 25.0

    def propose(self, inputs, dimensions):
        churn = _dim(dimensions, "lease_churn")
        if churn is None or churn.value <= 0.5:
            return None
        events = churn.detail.get("churn_events", 0.0)
        # Assume at least an hour's observation so short scripted runs
        # do not extrapolate a few events into absurd hourly rates.
        hours = max(inputs.duration_s / 3600.0, 1.0)
        impact_j_h = events * self.JOULES_PER_CHURN_EVENT / hours
        rationale = (f"{events:.0f} reclaim/invalidate/transfer events "
                     f"against {churn.detail.get('lend_events', 0):.0f} "
                     "lease grants — leases thrash instead of settling")
        return Recommendation(
            action="lengthen lease terms / add reclaim hysteresis so "
                   "buffers settle instead of ping-ponging",
            impact_j_per_hour=impact_j_h,
            dimension="lease_churn", rationale=rationale,
            basis={"churn_events": events, "hours": hours,
                   "joules_per_event": self.JOULES_PER_CHURN_EVENT})


class FallbackPressureCalculator(ImpactCalculator):
    """Pages living in local fallback burn donor DRAM twice."""

    JOULES_PER_FALLBACK_OP = 5.0
    #: Carrying cost of one un-homed page: its share of the donor
    #: board's DRAM refresh + the lost pooling opportunity, per hour.
    JOULES_PER_HELD_PAGE_HOUR = 0.02

    def propose(self, inputs, dimensions):
        fallback = sum(
            inputs.value("page_store_ops_total", op=op)
            for op in ("fallback_store", "fallback_load", "orphaned"))
        pages_held = inputs.value("page_store_fallback_pages")
        if fallback <= 0 and pages_held <= 0:
            return None
        hours = max(inputs.duration_s / 3600.0, 1.0)
        impact_j_h = (fallback * self.JOULES_PER_FALLBACK_OP / hours
                      + pages_held * self.JOULES_PER_HELD_PAGE_HOUR)
        rationale = (f"{fallback:.0f} local-fallback page ops "
                     f"({pages_held:.0f} pages still un-homed) — remote "
                     "placements are failing back to donor DRAM")
        return Recommendation(
            action="re-home fallback pages (raise pool headroom or fix "
                   "the failing lease targets) to empty the local store",
            impact_j_per_hour=impact_j_h,
            dimension="energy_per_gb", rationale=rationale,
            basis={"fallback_ops": fallback,
                   "fallback_pages": pages_held,
                   "joules_per_op": self.JOULES_PER_FALLBACK_OP,
                   "joules_per_held_page_hour":
                       self.JOULES_PER_HELD_PAGE_HOUR})


class SuspendedFleetCalculator(ImpactCalculator):
    """Fully suspended boards that could be zombies instead.

    An S3 board saves maximal power but serves nothing; if remote demand
    went unserved while boards sat in S3, waking them into Sz trades a
    small draw increase for displacing an entire S0 memory server.
    """

    def propose(self, inputs, dimensions):
        labels = dict(policy=inputs.policy, profile=inputs.profile)
        suspended = inputs.value("dc_mean_servers", role="suspended",
                                 **labels)
        conversion = _dim(dimensions, "zombie_conversion")
        if conversion is None or suspended < 1.0:
            return None
        unserved = conversion.detail.get("unserved_server_seconds", 0.0)
        span = inputs.value("dc_demand_slot_seconds_total", **labels)
        if unserved <= 0 or span <= 0:
            return None
        profile = _profile(inputs)
        idle_w = server_power_watts(profile, SleepState.S0, 0.0)
        sz_w = server_power_watts(profile, SleepState.SZ)
        s3_w = server_power_watts(profile, SleepState.S3)
        mean_unserved = unserved / span
        convertible = min(suspended, mean_unserved)
        # Each converted board: +(Sz−S3) on itself, −(S0−Sz) on the
        # memory server it displaces.
        impact_j_h = convertible * ((idle_w - sz_w) - (sz_w - s3_w)) * 3600.0
        if impact_j_h <= 0:
            return None
        rationale = (f"{suspended:.1f} boards sleep in S3 while "
                     f"{mean_unserved:.2f} server-equivalents of cold "
                     "demand run on dedicated memory servers")
        return Recommendation(
            action="promote suspended boards to Sz zombies to absorb "
                   "unserved cold-memory demand",
            impact_j_per_hour=impact_j_h,
            dimension="zombie_conversion", rationale=rationale,
            basis={"suspended_servers": suspended,
                   "convertible": convertible,
                   "sz_watts": sz_w, "s3_watts": s3_w})


#: Default calculator pipeline, run in order; output is re-ranked anyway.
DEFAULT_CALCULATORS: Sequence[ImpactCalculator] = (
    StrandedHostCalculator(),
    UnservedRemoteCalculator(),
    PolicyGapCalculator(),
    LeaseChurnCalculator(),
    FallbackPressureCalculator(),
    SuspendedFleetCalculator(),
)


def run_calculators(inputs: AuditInputs, dimensions: Sequence[Dimension]
                    ) -> List[Recommendation]:
    """Run every calculator and rank the findings by J/hour (desc)."""
    out: List[Recommendation] = []
    for calculator in DEFAULT_CALCULATORS:
        recommendation = calculator.propose(inputs, dimensions)
        if recommendation is not None:
            out.append(recommendation)
    out.sort(key=lambda r: (-r.impact_j_per_hour, r.action))
    return out
