"""ZomLint: the static analyzer for the Zombieland codebase.

Generic linters cannot see the invariants this reproduction lives by —
simulated time must come from :class:`~repro.sim.engine.Engine`, randomness
from :class:`~repro.sim.rng.DeterministicRng`, every protocol verb must be
honest about what it raises, shared rack state must survive an RPC yield
point, and every physical quantity must keep its unit.  ZomLint makes those
invariants mechanical.  One run reads and parses each file once
(:mod:`repro.lint.engine`) and walks each module once
(:func:`~repro.lint.callgraph.walk_module`: import aliases, function body
nodes, ``self.x`` sites, parent links).  The per-file rules read that
walk's aliases and ZL007 its nodes; the whole-program passes share one
call graph (:mod:`repro.lint.callgraph`), built only when one of them is
selected.  It is the one call resolver: every pass reads the callees it
bound, and ZL010's, ZL011's and ZomDim's summaries run to convergence on
its one fixpoint solver.  No rule keeps a copy of a fact the tree owns:
the ``errors.py`` class hierarchy and its ``retryable`` flags are read
once per run (:func:`~repro.lint.rules.parse_hierarchy`) and ZL005 and
ZL011 share them, and ZL007 requires exactly the series ``obs/audit/``
reads:

=================  =============================================  ==========
rules              implemented in                                 scope
=================  =============================================  ==========
ZL001 ZL002        :mod:`repro.lint.rules`                        per file
ZL004              :mod:`repro.lint.rules`                        per file
ZL005              :mod:`repro.lint.rules` (+ ``errors.py``)      per file
ZL007              :mod:`repro.lint.rules` (reads of obs/audit/)  project
ZL009              :mod:`repro.lint.purity`                       call graph
ZL010              :mod:`repro.lint.atomicity`                    call graph
ZL011              :mod:`repro.lint.contracts` (+ ``errors.py``)  call graph
ZL012 ZL013 ZL014  :mod:`repro.lint.dimensions`                   call graph
=================  =============================================  ==========

What each rule flags is :data:`~repro.lint.rules.RULE_DESCRIPTIONS`
(``python -m repro.lint --list-rules``).  ZL003, ZL006 and ZL008 are
retired (they checked facts of a verb that its ``Method`` row and
``tests/test_verb_table.py`` now hold) and are not reused; ZL000 marks a
file that cannot be read or parsed.

Every finding meets the same line-scoped suppression (``# zl:
ignore[ZLxxx]`` on the flagged line, ideally followed by a short
justification), and there is no other exception list.  Run ``python -m
repro.lint src``: exit 0 when every finding is suppressed, 1 on any other
finding, 2 on a usage error.  See ``docs/FLOWCHECK.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.lint.atomicity import check_atomicity
from repro.lint.callgraph import link_modules, walk_module
from repro.lint.contracts import check_contracts
from repro.lint.dimensions import check_dimensions
from repro.lint.engine import (Finding, Text, apply_suppressions,
                               load_sources, parse_sources)
from repro.lint.purity import check_purity
from repro.lint.rules import (ALL_RULES, PER_FILE_RULES, RULE_DESCRIPTIONS,
                              WHOLE_PROGRAM_RULES,
                              check_audit_metric_registrations, check_file,
                              parse_hierarchy)

__all__ = ["ALL_RULES", "Finding", "RULE_DESCRIPTIONS", "check_sources",
           "load_sources"]


def check_sources(sources: Mapping[Path, Text],
                  rules: Optional[Sequence[str]] = None
                  ) -> Tuple[List[Finding], Dict[str, int]]:
    """Run the enabled rules (default: all) over one tree.

    Returns the findings that survive suppression, sorted, and the
    per-rule count of suppressed ones.
    """
    enabled = frozenset(rules) if rules is not None else frozenset(ALL_RULES)
    trees, findings = parse_sources(sources)
    infos = [walk_module(path, tree) for path, tree in trees.items()]
    hierarchy = parse_hierarchy(trees)
    if enabled & PER_FILE_RULES:
        for info in infos:
            findings.extend(check_file(info, enabled, hierarchy))
    if "ZL007" in enabled:
        findings.extend(check_audit_metric_registrations(infos))
    if enabled & WHOLE_PROGRAM_RULES:
        graph = link_modules(infos)
        if "ZL009" in enabled:
            findings.extend(check_purity(graph))
        if "ZL010" in enabled:
            findings.extend(check_atomicity(graph))
        if "ZL011" in enabled:
            findings.extend(check_contracts(graph, trees, hierarchy))
        if enabled & {"ZL012", "ZL013", "ZL014"}:
            findings.extend(f for f in check_dimensions(graph, trees)
                            if f.rule in enabled)
    kept, suppressed = apply_suppressions(findings, sources)
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept, suppressed
