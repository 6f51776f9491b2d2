"""CLI entry point: ``python -m repro.lint [paths ...]``.

Exits 0 when every finding is suppressed or baselined, 1 when any finding
is not in the baseline, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.lint import (ALL_RULES, RULE_DESCRIPTIONS, Finding, check_sources,
                        load_sources)
from repro.lint.baseline import (diff_against_baseline, load_baseline,
                                 write_baseline)


def _print_stats(rules: Sequence[str], findings: List[Finding],
                 new: List[Finding], suppressed: Dict[str, int]) -> None:
    print("rule    findings  new  baselined  suppressed")
    for rule in rules:
        total = sum(1 for f in findings if f.rule == rule)
        fresh = sum(1 for f in new if f.rule == rule)
        print(f"{rule}  {total:8d}  {fresh:3d}  {total - fresh:9d}  "
              f"{suppressed.get(rule, 0):10d}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="ZomLint: domain-specific static checks and "
                    "whole-program passes for the Zombieland reproduction.",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze (default: src)")
    parser.add_argument("--rule", action="append", dest="rules",
                        metavar="ZLxxx",
                        help="run only the given rule (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--stats", action="store_true",
                        help="print per-rule finding, baseline and "
                             "suppression counts")
    parser.add_argument("--baseline", default="flow_baseline.json",
                        help="baseline file (default: flow_baseline.json)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline: report every finding "
                             "and fail on any")
    parser.add_argument("--regen", action="store_true",
                        help="rewrite the baseline to the current findings")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule}  {RULE_DESCRIPTIONS[rule]}")
        return 0

    rules = [r.upper() for r in args.rules] if args.rules else None
    if rules:
        unknown = sorted(set(rules) - set(ALL_RULES))
        if unknown:
            parser.error(f"unknown rule(s): {', '.join(unknown)}")
    sources = load_sources(args.paths)
    if not sources:
        parser.error(f"no python files under: {', '.join(args.paths)}")
    findings, suppressed = check_sources(sources, rules=rules)

    baseline_path = Path(args.baseline)
    if args.regen:
        write_baseline(baseline_path, findings)
        print(f"baseline regenerated: {len(findings)} finding(s) -> "
              f"{baseline_path}")
        return 0

    shown = rules or ALL_RULES
    baseline = set() if args.no_baseline else load_baseline(baseline_path)
    new, baselined, burned_down = diff_against_baseline(findings, baseline)
    # A rule that did not run cannot burn its entries down.
    burned_down = [fp for fp in burned_down if fp.split(":")[0] in shown]

    for finding in new:
        print(finding)
    if args.stats:
        _print_stats(shown, findings, new, suppressed)
    if baselined:
        print(f"{len(baselined)} baselined finding(s) (burn-down debt, "
              f"see {baseline_path})")
    if burned_down:
        print(f"{len(burned_down)} baseline entr(ies) no longer fire — "
              f"ratchet down with --regen:")
        for fingerprint in burned_down:
            print(f"  fixed: {fingerprint}")
    if new:
        print(f"\n{len(new)} new finding(s) not in {baseline_path}. "
              "Suppress intentional ones with '# zl: ignore[ZLxxx] <why>' "
              "on the flagged line.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
