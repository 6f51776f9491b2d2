"""ZL009 — transitive sim-purity taint.

ZL001/ZL002 flag a wall-clock read or a global-random draw *where it
happens*; they are blind to the call edge that carries the impurity into
simulated code.  This pass seeds taint at the impurity sources and walks
the call graph both ways:

- a function is a **source carrier** when its body reads the wall clock
  (``time.time``/``datetime.now``/…, through any import alias), draws
  from the module-level ``random`` stream, calls ``os.urandom``, or
  iterates an unordered set without ``sorted(...)``;
- a function is **sim context** when it is transitively reachable from a
  registered protocol-verb handler or from a callback handed to
  ``engine.schedule(_at)`` / ``PeriodicProcess`` (the closure the
  discrete-event engine drives).

Every source occurrence inside sim context is one finding, reported at
the source line with the full root → … → carrier call chain, so the
report shows exactly how the impurity launders into replayed state.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.callgraph import CallGraph
from repro.lint.engine import Finding, dotted_name
# The same sets ZL001/ZL002 match per file: a source here is exactly what
# they would flag at its line.
from repro.lint.rules import RANDOM_ALLOWED, WALL_CLOCK_CALLS


class _Source:
    """One impurity occurrence inside a function body."""

    def __init__(self, func: str, lineno: int, kind: str, detail: str):
        self.func = func
        self.lineno = lineno
        self.kind = kind      # "wall-clock" | "global-random" | "urandom"
        self.detail = detail  # the offending expression, for the report


def _call_sources(graph: CallGraph) -> List[_Source]:
    """Wall-clock / global-random / urandom sources, alias-resolved."""
    sources: List[_Source] = []
    for call in graph.external_calls:
        dotted = call.dotted
        for suffix in WALL_CLOCK_CALLS:
            if dotted == suffix or dotted.endswith("." + suffix):
                sources.append(_Source(call.func, call.lineno,
                                       "wall-clock", f"{dotted}()"))
                break
        else:
            parts = dotted.split(".")
            if (parts[0] == "random" and len(parts) == 2
                    and parts[1] not in RANDOM_ALLOWED):
                sources.append(_Source(call.func, call.lineno,
                                       "global-random", f"{dotted}()"))
            elif dotted == "os.urandom":
                sources.append(_Source(call.func, call.lineno,
                                       "urandom", "os.urandom()"))
    return sources


class _SetIterationVisitor(ast.NodeVisitor):
    """Unordered-iteration sources: ``for x in <set>`` without sorted()."""

    def __init__(self, graph: CallGraph, fn) -> None:
        self.graph = graph
        self.fn = fn
        self.info = graph.modules.get(fn.module)
        self.sources: List[_Source] = []

    def scan(self) -> List[_Source]:
        for stmt in getattr(self.fn.node, "body", []):
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, ast.For):
                    self._check(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.GeneratorExp, ast.DictComp)):
                    for gen in node.generators:
                        self._check(gen.iter)
        return self.sources

    def _check(self, iter_expr: ast.AST) -> None:
        if self._is_unordered_set(iter_expr):
            detail = dotted_name(iter_expr) or "set expression"
            self.sources.append(_Source(
                self.fn.qual, iter_expr.lineno, "unordered-iteration",
                f"iteration over unordered set {detail!r}"))

    def _is_unordered_set(self, expr: ast.AST) -> bool:
        # sorted(...) / min(...) / max(...) impose or ignore order.
        if isinstance(expr, ast.Call):
            dotted = dotted_name(expr.func)
            if dotted in ("set", "frozenset"):
                return True
            return False
        if isinstance(expr, ast.Set):
            return True
        if isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            return (self._is_unordered_set(expr.left)
                    or self._is_unordered_set(expr.right))
        tag = self._type_of(expr)
        return tag == "set"

    def _type_of(self, expr: ast.AST) -> Optional[str]:
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and self.fn.class_name is not None):
            class_qual = f"{self.fn.module}.{self.fn.class_name}"
            return self.graph.attr_types.get(class_qual, {}).get(expr.attr)
        return None


def _iteration_sources(graph: CallGraph) -> List[_Source]:
    sources: List[_Source] = []
    for fn in graph.functions.values():
        sources.extend(_SetIterationVisitor(graph, fn).scan())
    return sources


def check_purity(graph: CallGraph) -> List[Finding]:
    """Run ZL009 over a built call graph."""
    sources = _call_sources(graph) + _iteration_sources(graph)
    if not sources:
        return []
    roots = graph.sim_roots()
    sim_context = graph.reachable_from(sorted(roots))
    findings: List[Finding] = []
    for source in sources:
        if source.func not in sim_context:
            continue
        fn = graph.functions.get(source.func)
        if fn is None:
            continue
        chain = graph.shortest_chain(roots, source.func) or [source.func]
        findings.append(Finding(
            rule="ZL009", path=fn.path, line=source.lineno,
            message=(f"{source.kind} source {source.detail} reaches sim "
                     f"context via {graph.render(chain)}; simulated code "
                     "must stay deterministic (Engine.now / "
                     "DeterministicRng / sorted iteration)"),
            fingerprint=f"ZL009:{fn.module}:{source.func.split('.')[-1]}:"
                        f"{source.kind}:{source.detail}",
        ))
    findings.sort(key=lambda f: (f.path, f.line))
    return findings
