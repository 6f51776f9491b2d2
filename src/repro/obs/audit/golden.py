"""The golden audit scenario and the checked-in regression baseline.

``run_golden_audit(seed)`` drives a deterministic fleet — the Fig. 10
DC demand trace under all four policies on the HP profile, plus a small
fully-instrumented rack (zombies, RAM-Ext VMs, a reclaim wake-up, a
live migration) metered by a :class:`RackEnergyMonitor` — and audits
the ZombieStack run.  ``self_check()`` is the CI gate:

- same seed ⇒ byte-identical JSON report (determinism by construction);
- every one of the :data:`GOLDEN_SEEDS` ⇒ the same letter grades (the
  calibration bands absorb seed-level value jitter);
- all six dimensions measurable, ≥ 3 quantified recommendations;
- key ratios within ±10 % of the checked-in
  ``benchmarks/BENCH_fig10_dc_energy.json`` (regenerate with
  ``python -m repro.obs audit --regen`` after an intentional change).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional

from repro.hypervisor.vm import VmSpec
from repro.obs import Telemetry
from repro.obs.audit.engine import AuditReport, run_audit
from repro.obs.audit.inputs import collect_inputs
from repro.obs.audit.render import to_json
from repro.tables import dumps
from repro.units import MiB

#: Seeds whose golden audits must all land on the same letter grades.
GOLDEN_SEEDS = (42, 7, 19)

#: Fig. 10 policy sweep audited against its first entry.
POLICIES = ("baseline", "Neat", "Oasis", "ZombieStack")

#: Checked-in grades + key ratios (regenerate with ``audit --regen``).
BASELINE_PATH = (Path(__file__).resolve().parents[4]
                 / "benchmarks" / "BENCH_fig10_dc_energy.json")

#: Relative tolerance for baseline ratio drift.
TOLERANCE = 0.10

_DC_SERVERS = 150
_DC_DAYS = 1.0


def run_golden_audit(seed: int = 42) -> AuditReport:
    """One deterministic fleet run, audited end to end."""
    from repro.core.rack import Rack
    from repro.dc.energy_sim import simulate_energy
    from repro.energy.profiles import HP_PROFILE
    from repro.energy.rack_monitor import RackEnergyMonitor
    from repro.traces.google import generate_trace
    from repro.traces.schema import TraceConfig

    tel = Telemetry(enabled=True)

    # -- the rack leg: real servers, zombies, churn, metered power -------
    rack = Rack(["u1", "a1", "z1", "z2"], memory_bytes=256 * MiB,
                buff_size=16 * MiB, rng_seed=seed, telemetry=tel)
    monitor = RackEnergyMonitor(rack, HP_PROFILE, sample_period_s=0.5)
    rack.make_zombie("z1")
    rack.make_zombie("z2")
    vm1 = rack.create_vm("u1", VmSpec("vm1", 96 * MiB), local_fraction=0.5)
    hypervisor = rack.server("u1").hypervisor
    for ppn in range(vm1.spec.total_pages):
        hypervisor.access(vm1, ppn)
    rack.server("u1").manager.request_swap(16 * MiB)
    rack.engine.run(until=2.0)
    # Sz exit under reclaim: revokes leases, re-homes pages — churn.
    rack.wake("z1", reclaim_bytes=256 * MiB)
    rack.create_vm("u1", VmSpec("vm2", 32 * MiB), local_fraction=0.5)
    rack.migrate_vm("vm2", "u1", "a1")
    # A serving-host crash: invalidations fan out and remote pages fail
    # back to donor-local fallback frames (the churn and fallback-
    # pressure analyzers need a lived-in fleet, not a clean room).
    rack.crash_server("z2")
    rack.server("u1").manager.report_host_failure("z2")
    rack.heal_server("z2")
    rack.engine.run(until=4.0)

    # -- the DC leg: Fig. 10 policy sweep on the shared hub --------------
    tasks = generate_trace(TraceConfig(n_servers=_DC_SERVERS,
                                       duration_days=_DC_DAYS, seed=seed))
    for policy in POLICIES:
        simulate_energy(tasks, _DC_SERVERS, HP_PROFILE, policy,
                        telemetry=tel)

    inputs = collect_inputs(
        tel, rack=rack, monitor=monitor, policy="ZombieStack",
        baseline_policy="baseline", profile="HP",
        meta={"scenario": "golden-fig10", "seed": seed,
              "dc_servers": _DC_SERVERS, "dc_days": _DC_DAYS})
    monitor.stop()
    return run_audit(inputs)


def baseline_payload(report: AuditReport) -> dict:
    """The slice of a report the regression baseline pins."""
    return {
        "scenario": "golden-fig10",
        "overall_grade": report.overall_grade,
        "grades": report.grades,
        "values": {dim.key: round(dim.value, 6)
                   for dim in report.dimensions if dim.available},
        "recommendations": len(report.recommendations),
        "tolerance": TOLERANCE,
    }


def regen_baseline(path: Optional[Path] = None) -> Path:
    """Write the seed-42 golden baseline (``audit --regen``)."""
    target = path or BASELINE_PATH
    payload = baseline_payload(run_golden_audit(GOLDEN_SEEDS[0]))
    target.write_text(dumps(payload))
    return target


def _compare_baseline(report: AuditReport, path: Path) -> List[str]:
    problems: List[str] = []
    if not path.exists():
        return [f"baseline {path} is missing — run "
                "`python -m repro.obs audit --regen` and check it in"]
    baseline = json.loads(path.read_text())
    for key, grade in baseline.get("grades", {}).items():
        dim = report.dimension(key)
        got = dim.grade if dim is not None else None
        if got != grade:
            problems.append(f"dimension {key!r} grades {got!r}, baseline "
                            f"pins {grade!r}")
    if report.overall_grade != baseline.get("overall_grade"):
        problems.append(f"overall grade {report.overall_grade!r} != "
                        f"baseline {baseline.get('overall_grade')!r}")
    tolerance = float(baseline.get("tolerance", TOLERANCE))
    for key, pinned in baseline.get("values", {}).items():
        dim = report.dimension(key)
        if dim is None or not dim.available:
            problems.append(f"dimension {key!r} is in the baseline but not "
                            "measurable any more")
            continue
        band = max(tolerance * abs(pinned), 1e-6)
        if abs(dim.value - pinned) > band:
            problems.append(
                f"dimension {key!r} value {dim.value:.6f} drifted "
                f"outside ±{tolerance * 100:.0f}% of baseline "
                f"{pinned:.6f}")
    if len(report.recommendations) < int(baseline.get("recommendations", 3)):
        problems.append(f"only {len(report.recommendations)} "
                        "recommendations, baseline had "
                        f"{baseline.get('recommendations')}")
    return problems


def self_check() -> List[str]:
    """Run the full golden-audit contract; empty list means pass."""
    problems: List[str] = []
    reports = {seed: run_golden_audit(seed) for seed in GOLDEN_SEEDS}
    primary = reports[GOLDEN_SEEDS[0]]

    # Determinism: the same seed must reproduce the report byte for byte.
    if to_json(run_golden_audit(GOLDEN_SEEDS[0])) != to_json(primary):
        problems.append(f"seed {GOLDEN_SEEDS[0]} audit is not byte-stable "
                        "across runs")

    # Grade stability: calibration bands must absorb seed jitter.
    for seed in GOLDEN_SEEDS[1:]:
        if reports[seed].grades != primary.grades:
            problems.append(
                f"seed {seed} grades {reports[seed].grades} differ from "
                f"seed {GOLDEN_SEEDS[0]} grades {primary.grades}")

    # Coverage: all six dimensions scored, enough quantified findings.
    for dim in primary.dimensions:
        if not dim.available:
            problems.append(f"dimension {dim.key!r} is not measurable on "
                            "the golden scenario")
    quantified = [r for r in primary.recommendations
                  if r.impact_j_per_hour > 0]
    if len(quantified) < 3:
        problems.append(f"only {len(quantified)} quantified "
                        "recommendations (>0 J/hour); need >= 3")

    problems += _compare_baseline(primary, BASELINE_PATH)
    return problems
