"""ZomLint driver: file walking, suppression parsing, finding collection.

A *finding* is one rule violation anchored to a file and line.  Suppression
is line-scoped: ``# zl: ignore[ZL001]`` (or a comma list,
``# zl: ignore[ZL001,ZL005]``) on the flagged line silences those rules for
that line only — there is deliberately no file- or project-wide opt-out, so
every suppression sits next to the code it excuses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

_SUPPRESS_RE = re.compile(r"#\s*zl:\s*ignore\[([A-Za-z0-9_,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation."""

    rule: str        # stable rule id, e.g. "ZL001"
    path: str        # file the violation lives in
    line: int        # 1-based line number
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number → rule ids suppressed on that line."""
    suppressed: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = {r.strip().upper() for r in match.group(1).split(",")
                 if r.strip()}
        if rules:
            suppressed[lineno] = rules
    return suppressed


def apply_suppressions(findings: Iterable[Finding],
                       suppressed: Dict[int, Set[str]],
                       counts: Optional[Dict[str, int]] = None
                       ) -> List[Finding]:
    """Drop suppressed findings; ``counts`` (rule → n) tallies the drops."""
    kept = []
    for finding in findings:
        rules = suppressed.get(finding.line, ())
        if finding.rule in rules or "*" in rules:
            if counts is not None:
                counts[finding.rule] = counts.get(finding.rule, 0) + 1
            continue
        kept.append(finding)
    return kept


def lint_source(source: str, path: str = "<string>",
                rules: Optional[Sequence[str]] = None,
                suppressed_counts: Optional[Dict[str, int]] = None
                ) -> List[Finding]:
    """Run the per-file rules over one source text (honouring suppressions).

    ``rules`` limits the run to a subset of rule ids (fixture tests use
    this); the project-wide ZL003 check needs a tree and only runs from
    :func:`lint_paths`.
    """
    from repro.lint.rules import check_file
    findings = check_file(source, path, rules=rules)
    return apply_suppressions(findings, parse_suppressions(source),
                              counts=suppressed_counts)


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            out.append(path)
        elif path.is_dir():
            out.extend(sorted(p for p in path.rglob("*.py")
                              if "__pycache__" not in p.parts))
    return out


def lint_paths(paths: Sequence[str],
               rules: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint every python file under ``paths``, plus the project-wide checks."""
    findings, _ = lint_paths_counted(paths, rules=rules)
    return findings


def lint_paths_counted(paths: Sequence[str],
                       rules: Optional[Sequence[str]] = None
                       ) -> "tuple[List[Finding], Dict[str, int]]":
    """Like :func:`lint_paths`, plus per-rule suppressed-finding counts.

    The counts feed ``python -m repro.lint --stats`` so baseline burn-down
    (how much debt hides behind ``# zl: ignore[...]`` lines) stays visible
    in CI logs.
    """
    from repro.lint.rules import check_project
    findings: List[Finding] = []
    suppressed_counts: Dict[str, int] = {}
    files = iter_python_files(paths)
    sources: Dict[Path, str] = {}
    for path in files:
        try:
            sources[path] = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(Finding("ZL000", str(path), 1,
                                    f"unreadable file: {exc}"))
    for path, source in sources.items():
        findings.extend(lint_source(source, str(path), rules=rules,
                                    suppressed_counts=suppressed_counts))
    if rules is None or {"ZL003", "ZL007"} & set(rules):
        project = check_project(sources, rules=rules)
        for finding in project:
            source = next((s for p, s in sources.items()
                           if str(p) == finding.path), "")
            kept = apply_suppressions([finding], parse_suppressions(source),
                                      counts=suppressed_counts)
            findings.extend(kept)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, suppressed_counts
