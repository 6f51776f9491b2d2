"""ZomTrace CLI: per-run reports, exports, the self-check, and ZomAudit.

Usage::

    python -m repro.obs                    # golden scenario + text report
    python -m repro.obs --format json      # same, machine-readable
    python -m repro.obs --self-check       # contract check, exit 0/1
    python -m repro.obs --perfetto t.json  # also write a Chrome trace
    python -m repro.obs --prometheus m.prom
    python -m repro.obs --top 20

    python -m repro.obs audit              # scored fleet audit (text)
    python -m repro.obs audit --format json --out report.json
    python -m repro.obs audit --format prom
    python -m repro.obs audit --seed 7
    python -m repro.obs audit --self-check # golden-audit gate, exit 0/1
    python -m repro.obs audit --regen      # refresh the checked-in baseline
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _audit_main(args) -> int:
    from repro.obs.audit import (regen_baseline, render, run_golden_audit,
                                 self_check)

    if args.regen:
        path = regen_baseline()
        print(f"wrote {path}")
        return 0
    if args.self_check:
        problems = self_check()
        if problems:
            for problem in problems:
                print(f"FAIL {problem}")
            print(f"\naudit self-check: {len(problems)} problem(s)")
            return 1
        print("audit self-check: ok (byte-stable reports, seed-stable "
              "grades, 6/6 dimensions scored, baseline within tolerance)")
        return 0

    report = run_golden_audit(seed=args.seed)
    text = render(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    if argv and argv[0] == "audit":
        audit = argparse.ArgumentParser(
            prog="python -m repro.obs audit",
            description="ZomAudit: run the golden fleet scenario and "
                        "render its scored energy audit.",
        )
        audit.add_argument("--self-check", action="store_true",
                           help="verify the audit contract (byte-stable "
                                "reports, seed-stable grades, baseline "
                                "within tolerance); exit 1 on violation")
        audit.add_argument("--regen", action="store_true",
                           help="regenerate benchmarks/"
                                "BENCH_fig10_dc_energy.json from seed "
                                "42 and exit")
        audit.add_argument("--seed", type=int, default=42,
                           help="golden-scenario seed (default: "
                                "%(default)s)")
        audit.add_argument("--format", choices=("text", "json", "prom"),
                           default="text",
                           help="report rendering (default: %(default)s)")
        audit.add_argument("--out", metavar="PATH",
                           help="write the report here instead of stdout")
        return _audit_main(audit.parse_args(argv[1:]))

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="ZomTrace: run an instrumented rack scenario and "
                    "render its observability report.  See also the "
                    "`audit` subcommand for the scored fleet audit.",
    )
    parser.add_argument("--self-check", action="store_true",
                        help="verify the observability contract (every "
                             "verb traced, connected span trees, valid "
                             "exports); exit 1 on any violation")
    parser.add_argument("--perfetto", metavar="PATH",
                        help="write the Chrome-trace/Perfetto JSON here")
    parser.add_argument("--prometheus", metavar="PATH",
                        help="write the Prometheus text exposition here")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="slowest spans to list in the report "
                             "(default: %(default)s)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="report rendering (default: %(default)s)")
    args = parser.parse_args(argv)

    from repro.obs.selfcheck import (INTRA_RACK_VERBS, run_golden_scenario,
                                     self_check)

    if args.self_check:
        problems = self_check()
        if problems:
            for problem in problems:
                print(f"FAIL {problem}")
            print(f"\nself-check: {len(problems)} problem(s)")
            return 1
        traced = len(INTRA_RACK_VERBS)
        print(f"self-check: ok ({traced}/{traced} verbs traced, span forest "
              "connected, exports valid)")
        return 0

    rack = run_golden_scenario()
    tel = rack.telemetry
    if args.prometheus:
        from repro.obs.export import to_prometheus_text
        with open(args.prometheus, "w", encoding="utf-8") as fh:
            fh.write(to_prometheus_text(tel.registry))
        print(f"wrote {args.prometheus}")
    if args.perfetto:
        from repro.obs.export import to_chrome_trace
        with open(args.perfetto, "w", encoding="utf-8") as fh:
            fh.write(to_chrome_trace(tel.tracer, tel.registry))
        print(f"wrote {args.perfetto}")
    from repro.obs.report import render_report, report_data
    from repro.tables import dumps
    data = report_data(tel, top_n=args.top)
    print(dumps(data) if args.format == "json" else render_report(data),
          end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
