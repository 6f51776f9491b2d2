"""CLI entry point: ``python -m repro.lint [paths ...]``.

Exits 0 when every finding is suppressed, 1 on any unsuppressed finding,
2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.lint import (ALL_RULES, RULE_DESCRIPTIONS, Finding, check_sources,
                        load_sources)
from repro.tables import Table, to_text


def _print_stats(rules: Sequence[str], findings: List[Finding],
                 suppressed: Dict[str, int]) -> None:
    rows = [(rule, sum(1 for f in findings if f.rule == rule),
             suppressed.get(rule, 0)) for rule in rules]
    print(to_text(Table("ZomLint per-rule counts",
                        ("rule", "findings", "suppressed"), rows)), end="")


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
                        help="print per-rule finding and suppression counts")
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

    for finding in findings:
        print(finding)
    if args.stats:
        _print_stats(rules or ALL_RULES, findings, suppressed)
    if findings:
        print(f"\n{len(findings)} finding(s). Fix them, or suppress an "
              "intentional one with '# zl: ignore[ZLxxx] <why>' on the "
              "flagged line.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
