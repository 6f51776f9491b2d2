"""ZL011 — error-contract flow at verb-handler boundaries.

ZL005 checks that a *handler body* does not swallow exceptions silently;
it is blind to what the handler *throws*.  The RPC layer serializes any
exception escaping a dispatched handler back to the caller, so the set
of exception types that can cross a verb boundary IS part of the wire
contract — callers decide retry/abort/fence from it.  This pass makes
that contract explicit and checks it interprocedurally:

- each ``Method`` row in ``core/protocol.py`` declares the exception
  class names its verb may raise (a declared base class covers its
  subtree);
- the transport-retryable family (``is_retryable``: ``RpcTimeoutError``
  plus ``RdmaError`` descendants outside the ``RpcError`` subtree),
  ``FencingError`` and ``ConfigurationError`` are implicitly allowed on
  every verb — they belong to the transport, fencing and configuration
  planes, not to any one verb (a ``ConfigurationError`` marks a
  misconfigured component, such as a bad metric name or a negative
  increment, and no caller branches on it);
- an *escaped-exception* summary is computed for every function by
  fixpoint over the call graph, with ``try/except`` subtraction that
  understands the ``errors.py`` class hierarchy;
- every type escaping a registered handler that is neither declared nor
  implicitly allowed is one finding, reported at the deepest raise site
  with the handler → … → raise-site call chain.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import CallGraph
from repro.lint.engine import Finding, dotted_name
from repro.lint.rules import protocol_rows

#: Exception families allowed to cross every verb boundary regardless of
#: the per-verb declaration (see module docstring).
IMPLICITLY_ALLOWED_ROOTS = ("FencingError", "ConfigurationError")


class ErrorHierarchy:
    """Class → ancestor map parsed from the tree's ``errors`` module."""

    def __init__(self, parents: Dict[str, List[str]]):
        self.parents = parents

    def ancestors(self, name: str) -> Set[str]:
        seen: Set[str] = set()
        frontier = list(self.parents.get(name, ()))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.parents.get(current, ()))
        return seen

    def is_a(self, name: str, base: str) -> bool:
        if base in ("Exception", "BaseException"):
            return True
        return name == base or base in self.ancestors(name)

    def covered(self, name: str, declared: Sequence[str]) -> bool:
        return any(self.is_a(name, base) for base in declared)

    def retryable_family(self) -> Set[str]:
        """Mirror of ``rdma.rpc.is_retryable``: RpcTimeoutError, plus the
        RdmaError subtree minus the RpcError subtree."""
        family = {"RpcTimeoutError"}
        for name in self.parents:
            lineage = self.ancestors(name) | {name}
            if "RdmaError" in lineage and "RpcError" not in lineage:
                family.add(name)
        return family


def parse_hierarchy(trees: Dict[Path, ast.Module]) -> ErrorHierarchy:
    parents: Dict[str, List[str]] = {}
    for path in sorted(trees):
        if path.name != "errors.py":
            continue
        for node in trees[path].body:
            if isinstance(node, ast.ClassDef):
                bases = [b for b in (dotted_name(base) for base in node.bases)
                         if b is not None]
                parents[node.name] = [b.split(".")[-1] for b in bases]
    return ErrorHierarchy(parents)


class _EscapeAnalysis:
    """Fixpoint escaped-exception summaries over the call graph."""

    def __init__(self, graph: CallGraph, hierarchy: ErrorHierarchy):
        self.graph = graph
        self.hierarchy = hierarchy
        self.summaries: Dict[str, Set[str]] = {
            q: set() for q in graph.functions}
        #: qual → [(type name, lineno)] of direct raises escaping locally.
        self.raise_sites: Dict[str, List[Tuple[str, int]]] = {}
        self._callees: Dict[str, Dict[int, Set[str]]] = {}
        for edge in graph.edges:
            self._callees.setdefault(edge.caller, {}).setdefault(
                edge.lineno, set()).add(edge.callee)

    def run(self) -> None:
        for _ in range(30):
            changed = False
            for qual, fn in self.graph.functions.items():
                sites: List[Tuple[str, int]] = []
                escaped = self._body_escapes(
                    getattr(fn.node, "body", []), qual, None, set(), sites)
                self.raise_sites[qual] = sites
                if escaped - self.summaries[qual]:
                    self.summaries[qual] |= escaped
                    changed = True
            if not changed:
                return

    # -- recursive statement evaluation -------------------------------------
    def _body_escapes(self, stmts: Sequence[ast.stmt], qual: str,
                      caught_name: Optional[str], caught_types: Set[str],
                      sites: List[Tuple[str, int]]) -> Set[str]:
        escaped: Set[str] = set()
        for stmt in stmts:
            escaped |= self._stmt_escapes(stmt, qual, caught_name,
                                          caught_types, sites)
        return escaped

    def _stmt_escapes(self, stmt: ast.stmt, qual: str,
                      caught_name: Optional[str], caught_types: Set[str],
                      sites: List[Tuple[str, int]]) -> Set[str]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return set()
        if isinstance(stmt, ast.Try):
            return self._try_escapes(stmt, qual, caught_name,
                                     caught_types, sites)
        if isinstance(stmt, ast.Raise):
            return self._raise_escapes(stmt, qual, caught_name,
                                       caught_types, sites)
        if isinstance(stmt, (ast.If, ast.While)):
            escaped = self._expr_escapes(stmt.test, qual)
            escaped |= self._body_escapes(stmt.body, qual, caught_name,
                                          caught_types, sites)
            escaped |= self._body_escapes(stmt.orelse, qual, caught_name,
                                          caught_types, sites)
            return escaped
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            escaped = self._expr_escapes(stmt.iter, qual)
            escaped |= self._body_escapes(stmt.body, qual, caught_name,
                                          caught_types, sites)
            escaped |= self._body_escapes(stmt.orelse, qual, caught_name,
                                          caught_types, sites)
            return escaped
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            escaped: Set[str] = set()
            for item in stmt.items:
                escaped |= self._expr_escapes(item.context_expr, qual)
            escaped |= self._body_escapes(stmt.body, qual, caught_name,
                                          caught_types, sites)
            return escaped
        # Simple statement: every call inside may propagate its callee's
        # escapes.
        return self._expr_escapes(stmt, qual)

    def _expr_escapes(self, node: ast.AST, qual: str) -> Set[str]:
        escaped: Set[str] = set()
        callees_at = self._callees.get(qual, {})
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Lambda, ast.FunctionDef,
                                ast.AsyncFunctionDef)):
                continue
            if isinstance(sub, ast.Call):
                for callee in callees_at.get(sub.lineno, ()):
                    escaped |= self.summaries.get(callee, set())
        return escaped

    def _raise_escapes(self, stmt: ast.Raise, qual: str,
                       caught_name: Optional[str], caught_types: Set[str],
                       sites: List[Tuple[str, int]]) -> Set[str]:
        exc = stmt.exc
        if exc is None:
            return set(caught_types)  # bare re-raise inside except
        if isinstance(exc, ast.Name) and exc.id == caught_name:
            return set(caught_types)  # ``raise e`` re-raise
        target = exc.func if isinstance(exc, ast.Call) else exc
        dotted = dotted_name(target)
        if dotted is None:
            return set()
        name = dotted.split(".")[-1]
        sites.append((name, stmt.lineno))
        escaped = {name}
        if isinstance(exc, ast.Call):
            escaped |= self._expr_escapes(exc, qual)
        return escaped

    def _try_escapes(self, stmt: ast.Try, qual: str,
                     caught_name: Optional[str], caught_types: Set[str],
                     sites: List[Tuple[str, int]]) -> Set[str]:
        body_esc = self._body_escapes(stmt.body, qual, caught_name,
                                      caught_types, sites)
        escaped: Set[str] = set()
        remaining = set(body_esc)
        for handler in stmt.handlers:
            declared = _handler_types(handler)
            matched = {t for t in remaining
                       if self.hierarchy.covered(t, declared)}
            remaining -= matched
            if not matched and declared:
                # Nothing statically known flowed in, but a bare re-raise
                # in the handler still re-raises the declared family.
                matched = set(declared) - {"Exception", "BaseException"}
            escaped |= self._body_escapes(
                handler.body, qual, handler.name, matched, sites)
        escaped |= remaining
        escaped |= self._body_escapes(stmt.orelse, qual, caught_name,
                                      caught_types, sites)
        escaped |= self._body_escapes(stmt.finalbody, qual, caught_name,
                                      caught_types, sites)
        return escaped


def _handler_types(handler: ast.ExceptHandler) -> List[str]:
    if handler.type is None:
        return ["BaseException"]
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    names: List[str] = []
    for t in types:
        dotted = dotted_name(t)
        if dotted is not None:
            names.append(dotted.split(".")[-1])
    return names


def check_contracts(graph: CallGraph,
                    trees: Dict[Path, ast.Module]) -> List[Finding]:
    """Run ZL011 over a built call graph."""
    _, rows = protocol_rows(trees)
    if not rows:
        return []  # fixture tree without a verb table: nothing to check
    contract = {row.verb: row.errors for row in rows}
    member_map = {row.member: row.verb for row in rows}
    hierarchy = parse_hierarchy(trees)
    implicitly_allowed = (set(hierarchy.retryable_family())
                          | set(IMPLICITLY_ALLOWED_ROOTS))
    analysis = _EscapeAnalysis(graph, hierarchy)
    analysis.run()
    findings: List[Finding] = []
    seen: Set[Tuple[str, str]] = set()
    for binding in sorted(graph.handler_bindings,
                          key=lambda b: (b.path, b.lineno)):
        verb = binding.verb or member_map.get(binding.member or "")
        if verb is None:
            continue
        declared = contract.get(verb, ())
        for handler in binding.handlers:
            for exc_type in sorted(analysis.summaries.get(handler, ())):
                if (verb, exc_type) in seen:
                    continue
                if any(hierarchy.is_a(exc_type, base)
                       for base in implicitly_allowed):
                    continue
                if hierarchy.covered(exc_type, declared):
                    continue
                seen.add((verb, exc_type))
                findings.append(_finding_for(graph, analysis, handler,
                                             verb, exc_type))
    findings.sort(key=lambda f: (f.path, f.line))
    return findings


def _finding_for(graph: CallGraph, analysis: _EscapeAnalysis,
                 handler: str, verb: str, exc_type: str) -> Finding:
    site_fn, site_line = handler, graph.functions[handler].lineno
    best_chain: Optional[List[str]] = None
    for qual in sorted(graph.reachable_from([handler])):
        if any(t == exc_type for t, _ in analysis.raise_sites.get(qual, ())):
            chain = graph.shortest_chain({handler}, qual)
            if chain is not None and (best_chain is None
                                      or len(chain) < len(best_chain)):
                best_chain = chain
                site_fn = qual
                site_line = next(l for t, l in analysis.raise_sites[qual]
                                 if t == exc_type)
    fn = graph.functions[site_fn]
    chain_text = graph.render(best_chain) if best_chain else fn.short
    return Finding(
        rule="ZL011", path=fn.path, line=site_line,
        message=(f"{exc_type} escapes verb {verb!r} via {chain_text} but is "
                 f"not among the errors the verb's Method row declares nor "
                 "the transport-retryable family; declare it, catch it, or "
                 "map it to a declared type at the boundary"),
        fingerprint=f"ZL011:{verb}:{exc_type}",
    )
