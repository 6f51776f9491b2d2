"""Findings baseline with ratchet semantics.

The interprocedural passes land on a codebase with pre-existing debt.
Failing the build on day one would force either mass suppression
comments or rule dilution; instead the known findings are checked into
``flow_baseline.json`` keyed by *fingerprint* (line-free identity), and
the CLI enforces a ratchet:

- a finding whose fingerprint is NOT in the baseline is **new** → fail;
- a baseline fingerprint that no longer fires is **burned down** → the
  run reports it and ``--regen`` shrinks the file (the ratchet only
  ever tightens: regeneration rewrites the baseline to exactly the
  current findings, so fixed debt cannot silently return).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from repro.lint.engine import Finding

BASELINE_VERSION = 1


def load_baseline(path: Path) -> Set[str]:
    """Fingerprint set from a baseline file; missing file → empty set."""
    if not path.exists():
        return set()
    data = json.loads(path.read_text(encoding="utf-8"))
    entries = data.get("findings", {})
    return set(entries)


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Rewrite the baseline to exactly the current findings."""
    entries: Dict[str, Dict[str, str]] = {}
    for finding in findings:
        entries.setdefault(finding.fingerprint, {
            "rule": finding.rule,
            "where": f"{finding.path}:{finding.line}",
            "note": finding.message,
        })
    payload = {
        "version": BASELINE_VERSION,
        "findings": {fp: entries[fp] for fp in sorted(entries)},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n",
                    encoding="utf-8")


def diff_against_baseline(findings: Sequence[Finding],
                          baseline: Set[str]
                          ) -> Tuple[List[Finding], List[Finding],
                                     List[str]]:
    """Split findings into (new, baselined) and list burned-down entries."""
    new: List[Finding] = []
    baselined: List[Finding] = []
    fired: Set[str] = set()
    for finding in findings:
        fired.add(finding.fingerprint)
        if finding.fingerprint in baseline:
            baselined.append(finding)
        else:
            new.append(finding)
    burned_down = sorted(baseline - fired)
    return new, baselined, burned_down
