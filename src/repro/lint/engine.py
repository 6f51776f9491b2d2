"""ZomLint's shared substrate: findings, the loader, suppressions, names.

A *finding* is one rule violation anchored to a file and line, plus a
line-free *fingerprint* — its identity, so a test can name a finding
without pinning the line an unrelated edit would move.

Every file of a run is read by :func:`load_sources` and parsed by
:func:`parse_sources` exactly once; every rule reads those trees.  A file
that cannot be read or parsed becomes one ``ZL000`` finding, never a
silent skip.

Suppression is line-scoped: ``# zl: ignore[ZL001]`` (or a comma list,
``# zl: ignore[ZL001,ZL005]``) on the flagged line silences those rules for
that line only — there is deliberately no file- or project-wide opt-out, so
every suppression sits next to the code it excuses.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple, Union)

_SUPPRESS_RE = re.compile(r"#\s*zl:\s*ignore\[([A-Za-z0-9_,\s]+)\]")

#: A loaded file: its text, or the error that kept it from being read.
Text = Union[str, OSError, UnicodeDecodeError]


@dataclass(frozen=True)
class Finding:
    """One rule violation."""

    rule: str        # stable rule id, e.g. "ZL001"
    path: str        # file the violation lives in
    line: int        # 1-based line number
    message: str
    #: Stable, line-free identity.  Rules that leave it empty get
    #: ``rule:module:message``.
    fingerprint: str = ""

    def __post_init__(self) -> None:
        if not self.fingerprint:
            module = module_name_for(Path(self.path))
            object.__setattr__(self, "fingerprint",
                               f"{self.rule}:{module}:{self.message}")

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


# -- the loader ----------------------------------------------------------------

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


def load_sources(paths: Sequence[str]) -> Dict[Path, Text]:
    """Read every python file under ``paths`` (an unreadable one keeps
    its error, which :func:`parse_sources` reports)."""
    sources: Dict[Path, Text] = {}
    for path in iter_python_files(paths):
        try:
            sources[path] = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            sources[path] = exc
    return sources


def parse_sources(sources: Mapping[Path, Text]
                  ) -> Tuple[Dict[Path, ast.Module], List[Finding]]:
    """Each file's tree, parsed once, and a ZL000 for each file without one."""
    trees: Dict[Path, ast.Module] = {}
    broken: List[Finding] = []
    for path in sorted(sources):
        text = sources[path]
        if not isinstance(text, str):
            broken.append(Finding("ZL000", str(path), 1,
                                  f"unreadable file: {text}"))
            continue
        try:
            trees[path] = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            broken.append(Finding("ZL000", str(path), exc.lineno or 1,
                                  f"syntax error: {exc.msg}"))
    return trees, broken


# -- suppressions ---------------------------------------------------------------

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
                       sources: Mapping[Path, Text]
                       ) -> Tuple[List[Finding], Dict[str, int]]:
    """Drop suppressed findings; also return the drops per rule."""
    by_path: Dict[str, Dict[int, Set[str]]] = {}
    kept: List[Finding] = []
    counts: Dict[str, int] = {}
    for finding in findings:
        if finding.path not in by_path:
            text = sources.get(Path(finding.path))
            by_path[finding.path] = (parse_suppressions(text)
                                     if isinstance(text, str) else {})
        if finding.rule in by_path[finding.path].get(finding.line, ()):
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
            continue
        kept.append(finding)
    return kept, counts


# -- names ------------------------------------------------------------------------

def module_name_for(path: Path) -> str:
    """Dotted module name for a file, anchored at the ``repro`` package.

    Falls back to a path-derived name for synthetic fixture trees that
    do not carry the package root.
    """
    parts = list(path.parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    stem = [p for p in parts[:-1]] + [path.stem]
    if stem and stem[-1] == "__init__":
        stem = stem[:-1]
    return ".".join(stem) if stem else path.stem


def dotted_name(node: ast.AST) -> Optional[str]:
    """Best-effort dotted name for a Name/Attribute chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def raised_name(exc: Optional[ast.AST]) -> Optional[str]:
    """The class a ``raise`` names: ``raise errors.Foo(...)`` → ``Foo``."""
    dotted = dotted_name(exc.func if isinstance(exc, ast.Call) else exc)
    return dotted.split(".")[-1] if dotted else None


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a Name/Attribute chain (``a.b.c`` → ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def expand_alias(dotted: str, aliases: Dict[str, str]) -> str:
    """``dotted`` with its head expanded through a module's import aliases.

    ``rnd.random`` under ``import random as rnd`` is ``random.random``,
    ``_mono`` under ``from time import monotonic as _mono`` is
    ``time.monotonic``: aliasing cannot launder a wall-clock read or a
    global random draw past a dotted-name match.
    """
    head, _, rest = dotted.partition(".")
    target = aliases.get(head)
    if target is None:
        return dotted
    return target + ("." + rest if rest else "")
