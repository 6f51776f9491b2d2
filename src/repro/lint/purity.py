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
from typing import List, NamedTuple

from repro.lint.callgraph import CallGraph, FunctionNode
from repro.lint.engine import Finding, dotted_name
# The classifier ZL001/ZL002 use per file: a call source here is exactly
# what they would flag at its line (plus ``os.urandom``).
from repro.lint.rules import impurity


class _Source(NamedTuple):
    """One impurity occurrence inside a function body."""

    func: str
    lineno: int
    kind: str    # an impurity() kind, or "unordered-iteration"
    detail: str  # the offending expression, for the report


def _call_sources(graph: CallGraph) -> List[_Source]:
    """Wall-clock / global-random / urandom sources, alias-resolved."""
    sources: List[_Source] = []
    for call in graph.external_calls:
        kind = impurity(call.dotted)
        if kind is not None:
            sources.append(_Source(call.func, call.lineno, kind,
                                   f"{call.dotted}()"))
    return sources


def _iteration_sources(graph: CallGraph) -> List[_Source]:
    """Unordered-iteration sources: ``for x in <set>`` without sorted()."""
    sources: List[_Source] = []
    for fn in graph.functions.values():
        for node in fn.nodes():
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                iters = [gen.iter for gen in node.generators]
            else:
                continue
            for iter_expr in iters:
                if _is_unordered_set(iter_expr, graph, fn):
                    detail = dotted_name(iter_expr) or "set expression"
                    sources.append(_Source(
                        fn.qual, iter_expr.lineno, "unordered-iteration",
                        f"iteration over unordered set {detail!r}"))
    return sources


def _is_unordered_set(expr: ast.AST, graph: CallGraph,
                      fn: FunctionNode) -> bool:
    # sorted(...) / min(...) / max(...) impose or ignore order.
    if isinstance(expr, ast.Call):
        return dotted_name(expr.func) in ("set", "frozenset")
    if isinstance(expr, ast.Set):
        return True
    if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return (_is_unordered_set(expr.left, graph, fn)
                or _is_unordered_set(expr.right, graph, fn))
    key = fn.self_attr(expr)
    return key is not None \
        and graph.attr_types.get(key[0], {}).get(key[1]) == "set"


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
