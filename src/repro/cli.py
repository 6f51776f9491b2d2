"""Command-line interface: ``python -m repro <command>``.

Subcommands:

- ``demo``        — the quickstart rack walkthrough
- ``experiment``  — run one paper experiment and print its tables
- ``trace``       — generate a synthetic Google-format trace CSV
- ``report``      — write the full generated experiment report
- ``ycsb``        — sweep a YCSB workload over local-memory ratios
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.units import MiB


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.rack import Rack
    from repro.hypervisor.vm import VmSpec

    rack = Rack(["user", "spare"], memory_bytes=args.memory_mib * MiB,
                buff_size=8 * MiB)
    rack.make_zombie("spare")
    print(f"spare -> {rack.server('spare').state} "
          f"(lent {rack.server('spare').manager.lent_bytes // MiB} MiB)")
    vm = rack.create_vm("user", VmSpec("vm", args.vm_mib * MiB),
                        local_fraction=0.5)
    hv = rack.server("user").hypervisor
    for ppn in range(vm.spec.total_pages):
        hv.access(vm, ppn)
    stats = hv.stats("vm")
    print(f"vm: {stats.page_faults} faults, {stats.evictions} demotions, "
          f"{stats.time_total_s * 1e3:.1f} ms simulated")
    print(f"fabric: {rack.fabric.stats.writes} RDMA writes, "
          f"{rack.fabric.stats.reads} reads")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis.report import EXPERIMENTS, Scale
    from repro.tables import to_text

    if args.name != "fig10" and (args.servers, args.days) != (None, None):
        print("repro experiment: --servers and --days apply to fig10 only",
              file=sys.stderr)
        return 2
    scale = Scale(servers=500 if args.servers is None else args.servers,
                  days=7.0 if args.days is None else args.days)
    tables = EXPERIMENTS[args.name](scale)
    print("\n".join(to_text(table) for table in tables), end="")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.traces.google import generate_trace, trace_to_csv
    from repro.traces.schema import TraceConfig
    from repro.traces.transform import double_memory_demand

    config = TraceConfig(n_servers=args.servers, duration_days=args.days,
                         seed=args.seed)
    tasks = generate_trace(config)
    if args.modified:
        tasks = double_memory_demand(tasks)
    trace_to_csv(tasks, args.output)
    print(f"{len(tasks)} tasks -> {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    with open(args.output, "w") as handle:
        handle.write(generate_report(quick=not args.full))
    print(f"report written to {args.output}")
    return 0


def _cmd_ycsb(args: argparse.Namespace) -> int:
    from repro.analysis.harness import RamExtHarness
    from repro.workloads.ycsb import YCSB_WORKLOADS

    factory = YCSB_WORKLOADS[args.workload.upper()]
    workload = factory(total_pages=args.pages)
    baseline = RamExtHarness(args.pages, 1.0).run(workload.stream(),
                                                  workload.compute_s)
    print(f"{workload.name}: {baseline.accesses} ops, baseline "
          f"{baseline.sim_time_s * 1e3:.1f} ms")
    for fraction in (0.2, 0.4, 0.5, 0.6, 0.8):
        harness = RamExtHarness(args.pages, fraction)
        result = harness.run(workload.stream(), workload.compute_s)
        penalty = result.penalty_vs(baseline) * 100
        print(f"  {fraction * 100:3.0f}% local: penalty {penalty:8.2f}%  "
              f"({harness.stats.page_faults} faults)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.analysis.report import EXPERIMENTS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Zombieland reproduction (EuroSys 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="quickstart rack walkthrough")
    demo.add_argument("--memory-mib", type=int, default=256)
    demo.add_argument("--vm-mib", type=int, default=64)
    demo.set_defaults(fn=_cmd_demo)

    exp = sub.add_parser("experiment", help="run one paper experiment")
    exp.add_argument("name", choices=list(EXPERIMENTS))
    exp.add_argument("--servers", type=int,
                     help="fig10 only: datacenter servers (default 500)")
    exp.add_argument("--days", type=float,
                     help="fig10 only: simulated days (default 7)")
    exp.set_defaults(fn=_cmd_experiment)

    trace = sub.add_parser("trace", help="generate a synthetic trace CSV")
    trace.add_argument("output")
    trace.add_argument("--servers", type=int, default=500)
    trace.add_argument("--days", type=float, default=7.0)
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument("--modified", action="store_true",
                       help="memory demand = 2 x CPU demand")
    trace.set_defaults(fn=_cmd_trace)

    report = sub.add_parser("report",
                            help="write the full experiment report")
    report.add_argument("output")
    report.add_argument("--full", action="store_true",
                        help="benchmark-scale workloads (slower)")
    report.set_defaults(fn=_cmd_report)

    ycsb = sub.add_parser("ycsb", help="sweep a YCSB workload")
    ycsb.add_argument("workload", choices=list("ABCDEFabcdef"))
    ycsb.add_argument("--pages", type=int, default=1024)
    ycsb.set_defaults(fn=_cmd_ycsb)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
