"""The paper's experiments, each tabulated once.

:data:`EXPERIMENTS` maps an experiment's CLI name (``fig1`` … ``table3``)
to a function that runs it at a :class:`Scale` and returns its
:class:`~repro.tables.Table` list.  ``python -m repro experiment <name>``
prints those tables as text; :func:`generate_report` renders every one
as markdown, plus the ZomAudit scorecard, into one self-contained report
(the generated counterpart of the curated EXPERIMENTS.md) that
``python -m repro report out.md`` writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import experiments, figures
from repro.energy.model import energy_proportionality_curve, rack_scenarios
from repro.tables import Table, to_markdown
from repro.workloads.microbench import MicroBenchmark


@dataclass(frozen=True)
class Scale:
    """How big the experiments run; the defaults are the benchmark scale."""

    micro: MicroBenchmark = experiments.DEFAULT_MICRO
    #: Tables 1-2 workloads; ``None`` is :func:`experiments.default_workloads`.
    workloads: Optional[Tuple[Tuple[str, object], ...]] = None
    servers: int = 1000
    days: float = 7.0
    seed: int = 42


def _quick_scale(pages: int, seed: int) -> Scale:
    """Shrunk workloads and datacenter: the report builds in under a minute."""
    micro = MicroBenchmark(wss_pages=pages, passes=12)
    workloads = experiments.default_workloads(scale_pages=pages)
    workloads[0] = ("micro-bench.", micro)
    return Scale(micro=micro, workloads=tuple(workloads), servers=300,
                 days=3.0, seed=seed)


def _pct(fraction: float) -> str:
    return f"{fraction * 100:.0f}%"


_FRACTIONS = [_pct(f) for f in experiments.LOCAL_FRACTIONS]


def _fig1(scale: Scale) -> List[Table]:
    return [Table("Fig. 1 — energy vs utilization (% of max)",
                  ("utilization %", "actual %", "ideal %"),
                  energy_proportionality_curve(points=11))]


def _fig2(scale: Scale) -> List[Table]:
    return [Table("Fig. 2 — AWS memory:CPU demand ratio", ("year", "ratio"),
                  figures.aws_memory_cpu_ratio())]


def _fig3(scale: Scale) -> List[Table]:
    return [Table("Fig. 3 — server memory:CPU capacity ratio",
                  ("year", "normalized ratio"),
                  figures.server_capacity_ratio())]


def _fig4(scale: Scale) -> List[Table]:
    return [Table("Fig. 4 — rack energy by architecture",
                  ("architecture", "energy (Emax)"),
                  [(s.name, s.total_energy) for s in rack_scenarios()])]


def _fig8(scale: Scale) -> List[Table]:
    data = experiments.replacement_policy_comparison(micro=scale.micro)
    return [Table(f"Fig. 8 — replacement policies: {label}",
                  ["policy"] + _FRACTIONS,
                  [[policy] + [rows[f][metric]
                               for f in experiments.LOCAL_FRACTIONS]
                   for policy, rows in data.items()])
            for metric, label in (("exec_s", "execution time (s)"),
                                  ("faults", "page faults"),
                                  ("cycles_per_fault",
                                   "policy cycles per fault"))]


def _table1(scale: Scale) -> List[Table]:
    table = experiments.ram_ext_penalty_table(workloads=scale.workloads)
    return [Table("Table 1 — RAM Ext penalty (%)", ["workload"] + _FRACTIONS,
                  [[name] + [row[f] for f in experiments.LOCAL_FRACTIONS]
                   for name, row in table.items()])]


def _table2(scale: Scale) -> List[Table]:
    table = experiments.swap_technology_table(workloads=scale.workloads)
    return [Table(f"Table 2 — swap technologies, penalty (%): {name}",
                  ("% local",) + experiments.SWAP_CONFIGS,
                  [[_pct(f)] + [per_frac[f][c]
                                for c in experiments.SWAP_CONFIGS]
                   for f in experiments.LOCAL_FRACTIONS])
            for name, per_frac in table.items()]


def _fig9(scale: Scale) -> List[Table]:
    return [Table("Fig. 9 — migration time (s), 8 GiB VM",
                  ("WSS ratio", "native", "ZombieStack"),
                  [(_pct(r["wss_ratio"]), r["native_s"], r["zombiestack_s"])
                   for r in experiments.migration_comparison()])]


def _table3(scale: Scale) -> List[Table]:
    table = experiments.sz_energy_table()
    columns = list(next(iter(table.values())))
    return [Table("Table 3 — power per configuration (% of max)",
                  ["machine"] + columns,
                  [[machine] + [row[c] for c in columns]
                   for machine, row in table.items()])]


def _fig10(scale: Scale) -> List[Table]:
    data = experiments.dc_energy_comparison(n_servers=scale.servers,
                                            duration_days=scale.days,
                                            seed=scale.seed)
    tables = []
    for trace_set, per_machine in data.items():
        policies = list(next(iter(per_machine.values())))
        tables.append(Table(
            f"Fig. 10 — datacenter energy saving (%), {trace_set} traces",
            ["machine"] + policies,
            [[machine] + [row[p] for p in policies]
             for machine, row in per_machine.items()]))
    return tables


#: Every paper experiment, in report order: name -> tables at a scale.
EXPERIMENTS: Dict[str, Callable[[Scale], List[Table]]] = {
    "fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4,
    "fig8": _fig8, "table1": _table1, "table2": _table2, "fig9": _fig9,
    "table3": _table3, "fig10": _fig10,
}


def generate_report(quick: bool = True,
                    seed: int = 42,
                    scale_pages: Optional[int] = None) -> str:
    """Build the full markdown report; returns the text.

    ``quick`` shrinks the workloads (``scale_pages`` overrides their
    size, a test hook) and the datacenter; otherwise the benchmark
    defaults.
    """
    from repro.obs.audit import report_dict, report_tables, run_golden_audit

    scale = (_quick_scale(scale_pages or 512, seed) if quick
             else Scale(seed=seed))
    parts = [
        "# Zombieland reproduction — generated experiment report\n\n"
        f"Scale: {'quick' if quick else 'full benchmark defaults'}.\n"
        "Shapes, not absolute numbers, are the reproduction target; see "
        "EXPERIMENTS.md for the curated paper-vs-measured discussion.\n"
    ]
    for tabulate in EXPERIMENTS.values():
        parts += [to_markdown(table) for table in tabulate(scale)]

    audit = report_dict(run_golden_audit(seed=seed))
    head = audit["audit"]
    parts.append(
        "## Fleet energy audit (ZomAudit)\n\n"
        f"Golden fleet scenario, seed {seed}: policy `{head['policy']}` vs "
        f"`{head['baseline_policy']}` on the {head['profile']} profile.  "
        f"Overall grade: **{head['overall_grade']}** "
        f"(GPA {head['overall_points']:.2f}).\n")
    parts += [to_markdown(table) for table in report_tables(audit)]
    return "\n".join(parts)
