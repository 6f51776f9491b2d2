#!/usr/bin/env python3
"""Append one ZomBench row to ``benchmarks/BENCH_wall_trajectory.jsonl``.

    python3 benchmarks/wall_trajectory.py --label "PR 23"      # measure + append
    python3 benchmarks/wall_trajectory.py --seconds 0 --seeds 7 --dry-run

One row is one tree measured once: every workload ``BENCHMARK.json``
names is run untraced through ``benchmarks/wall/run.py`` for each seed
(the row keeps the median of each end-to-end metric over the seeds) and
traced once (the row keeps each layer's share of the traced wall time).
The file is the trajectory ROADMAP 1(e) asks for: what a PR did to the
wall-clock numbers, as data rather than changelog prose.

This script only *invokes* the harness; it lives outside
``benchmarks/wall/`` so a PR that claims a gain can still record it.
``--repo`` measures another checkout (a clone of the parent commit) with
that checkout's own harness and source.  ``--dry-run`` builds and
validates a row — and every row already in the file — without
appending: with ``--seconds 0`` it is a schema check that asserts no
timing, which is what CI runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "BENCH_wall_trajectory.jsonl"


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def commit_of(repo: Path) -> str:
    """Short hash of the measured tree, ``-dirty`` when it has local edits."""
    commit = _git(repo, "rev-parse", "--short", "HEAD")
    return commit + ("-dirty" if _git(repo, "status", "--porcelain") else "")


def run_once(repo: Path, workload: str, seed: int, seconds: float,
             trace: int) -> Tuple[dict, dict]:
    """One harness run in a fresh process; returns ``(result, info)``."""
    out = subprocess.run(
        [sys.executable, str(repo / "benchmarks" / "wall" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run incorrect: "
                         f"{info['problems'] or info['op_errors']}")
    return result, info


def measure(repo: Path, seeds: List[int], seconds: float) -> Dict[str, dict]:
    """The ``workloads`` block of a row."""
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    workloads = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(repo, name, seed, seconds, trace=0)[0]["metrics"]
                for seed in seeds]
        end_to_end = {m["name"]: statistics.median(
            run[m["name"]]["value"] for run in runs)
            for m in spec["end_to_end"]}
        traced, info = run_once(repo, name, seeds[0], seconds, trace=1)
        shares = {metric[:-len(".busy_s")]: cell["value"] / info["wall_s"]
                  for metric, cell in traced["metrics"].items()
                  if metric.endswith(".busy_s")}
        workloads[name] = {"end_to_end": end_to_end,
                           "traced_busy_share": shares}
        print(f"{name}: ops_per_s {end_to_end['ops_per_s']:.6g}, "
              f"peak_rss_mib {end_to_end['peak_rss_mib']:.4g}",
              file=sys.stderr)
    return workloads


def row_problems(row: dict, spec: dict) -> List[str]:
    """Schema check of one row against ``BENCHMARK.json``."""
    problems = []
    for key, kind in (("commit", str), ("label", str), ("seeds", list),
                      ("seconds", (int, float)), ("workloads", dict)):
        if not isinstance(row.get(key), kind):
            problems.append(f"{key!r} missing or not {kind}")
    if problems:
        return problems
    layers = {m["name"][:-len(".busy_s")] for m in spec["per_layer"]
              if m["name"].endswith(".busy_s")}
    for workload in (w["name"] for w in spec["workloads"]):
        cell = row["workloads"].get(workload)
        if cell is None:
            problems.append(f"workload {workload!r} missing")
            continue
        for block, names in (("end_to_end",
                              {m["name"] for m in spec["end_to_end"]}),
                             ("traced_busy_share", layers)):
            values = cell.get(block, {})
            if set(values) != names:
                problems.append(f"{workload}.{block}: names differ from "
                                f"BENCHMARK.json: {sorted(set(values) ^ names)}")
            if not all(isinstance(v, (int, float)) for v in values.values()):
                problems.append(f"{workload}.{block}: non-numeric value")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repo", type=Path, default=HERE.parent,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 12, 13])
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run.py's --seconds; 0 = the fixed prefix only")
    parser.add_argument("--label", default="",
                        help="what this row is, e.g. 'PR 23'")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate the new row and the file; append "
                        "nothing")
    args = parser.parse_args(argv)

    repo = args.repo.resolve()
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    row = {"commit": commit_of(repo), "label": args.label,
           "seeds": args.seeds, "seconds": args.seconds,
           "workloads": measure(repo, args.seeds, args.seconds)}
    rows = [json.loads(line) for line in
            TRAJECTORY.read_text().splitlines()] if TRAJECTORY.exists() else []
    problems = [f"row {index}: {problem}"
                for index, old in enumerate(rows + [row])
                for problem in row_problems(old, spec)]
    for problem in problems:
        print(f"SCHEMA: {problem}", file=sys.stderr)
    if problems:
        return 1
    if args.dry_run:
        print(json.dumps(row, indent=1))
        print(f"dry run: row valid, {len(rows)} checked-in row(s) valid; "
              "nothing appended", file=sys.stderr)
        return 0
    with TRAJECTORY.open("a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"appended row {len(rows)} to {TRAJECTORY}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
