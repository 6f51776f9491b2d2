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
- the transport-retryable family (the classes whose ``errors.py``
  ``retryable`` flag ``is_retryable`` reads as true, and no others),
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

from repro.lint.callgraph import CallGraph, FunctionNode
from repro.lint.engine import Finding, dotted_name, raised_name
from repro.lint.rules import ErrorHierarchy, protocol_rows

#: Exception families allowed to cross every verb boundary regardless of
#: the per-verb declaration (see module docstring).
IMPLICITLY_ALLOWED_ROOTS = ("FencingError", "ConfigurationError")


class _Plan:
    """What one body, in one caught-exception context, lets escape."""

    __slots__ = ("callees", "names", "reraises", "tries")

    def __init__(self) -> None:
        #: functions called in the body: their summaries flow out.
        self.callees: Set[str] = set()
        #: exception types the body raises itself.
        self.names: Set[str] = set()
        #: whether it re-raises what its handler caught.
        self.reraises = False
        #: each ``try``: its body and its ``(declared types, handler)``s.
        self.tries: List[Tuple[_Plan, List[Tuple[List[str], _Plan]]]] = []


class _EscapeAnalysis:
    """Fixpoint escaped-exception summaries over the call graph.

    Each function body is compiled once into a :class:`_Plan`, whose
    calls are read from the graph's callee table; the fixpoint then only
    re-evaluates plans.
    """

    def __init__(self, graph: CallGraph, hierarchy: ErrorHierarchy):
        self.graph = graph
        self.hierarchy = hierarchy
        self.summaries: Dict[str, Set[str]] = {
            q: set() for q in graph.functions}
        #: qual → [(type name, lineno)] of direct raises escaping locally.
        self.raise_sites: Dict[str, List[Tuple[str, int]]] = {}
        self.plans = {qual: self._compile(qual, fn)
                      for qual, fn in graph.functions.items()}

    def run(self) -> None:
        self.graph.fixpoint(self._grow)

    def _grow(self, qual: str) -> bool:
        escaped = self._escapes(self.plans[qual], set())
        if escaped - self.summaries[qual]:
            self.summaries[qual] |= escaped
            return True
        return False

    # -- compiling a body ----------------------------------------------------
    def _compile(self, qual: str, fn: FunctionNode) -> _Plan:
        plan = _Plan()
        # The expressions (and simple statements) whose calls a plan
        # takes: a call belongs to the nearest one above it, or to none
        # (a nested def's body, a ``for`` target, an ``except`` clause).
        self._roots: Dict[ast.AST, _Plan] = {}
        self._sites: List[Tuple[str, int]] = []
        self._compile_body(getattr(fn.node, "body", []), plan, None)
        self.raise_sites[qual] = self._sites
        callees_at = self.graph.callees_at().get(qual, {})
        parent = self.graph.parent
        for node in fn.nodes():
            if not isinstance(node, ast.Call):
                continue
            up = node
            while up is not fn.node:
                owner = self._roots.get(up)
                if owner is not None:
                    owner.callees.update(callees_at.get(node.lineno, ()))
                    break
                up = parent[up]
        return plan

    def _compile_body(self, stmts: Sequence[ast.stmt], plan: _Plan,
                      caught_name: Optional[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Try):
                body = _Plan()
                self._compile_body(stmt.body, body, caught_name)
                handlers = []
                for handler in stmt.handlers:
                    caught = _Plan()
                    self._compile_body(handler.body, caught, handler.name)
                    handlers.append((_handler_types(handler), caught))
                plan.tries.append((body, handlers))
                self._compile_body(stmt.orelse + stmt.finalbody, plan,
                                   caught_name)
            elif isinstance(stmt, ast.Raise):
                self._compile_raise(stmt, plan, caught_name)
            elif isinstance(stmt, (ast.If, ast.While)):
                self._roots[stmt.test] = plan
                self._compile_body(stmt.body + stmt.orelse, plan,
                                   caught_name)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._roots[stmt.iter] = plan
                self._compile_body(stmt.body + stmt.orelse, plan,
                                   caught_name)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._roots[item.context_expr] = plan
                self._compile_body(stmt.body, plan, caught_name)
            else:
                # Simple statement: every call inside may propagate its
                # callee's escapes.
                self._roots[stmt] = plan

    def _compile_raise(self, stmt: ast.Raise, plan: _Plan,
                       caught_name: Optional[str]) -> None:
        exc = stmt.exc
        if exc is None or (isinstance(exc, ast.Name)
                           and exc.id == caught_name):
            plan.reraises = True  # bare ``raise`` or ``raise e``
            return
        name = raised_name(exc)
        if name is None:
            return
        self._sites.append((name, stmt.lineno))
        plan.names.add(name)
        if isinstance(exc, ast.Call):
            self._roots[exc] = plan

    # -- evaluating a plan -----------------------------------------------------
    def _escapes(self, plan: _Plan, caught: Set[str]) -> Set[str]:
        escaped = set(plan.names)
        for callee in plan.callees:
            escaped |= self.summaries.get(callee, set())
        if plan.reraises:
            escaped |= caught
        for body, handlers in plan.tries:
            remaining = self._escapes(body, caught)
            for declared, handler in handlers:
                matched = {t for t in remaining
                           if self.hierarchy.covered(t, declared)}
                remaining -= matched
                if not matched and declared:
                    # Nothing statically known flowed in, but a bare
                    # re-raise in the handler still re-raises the
                    # declared family.
                    matched = set(declared) - {"Exception", "BaseException"}
                escaped |= self._escapes(handler, matched)
            escaped |= remaining
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


def check_contracts(graph: CallGraph, trees: Dict[Path, ast.Module],
                    hierarchy: ErrorHierarchy) -> List[Finding]:
    """Run ZL011 over a built call graph and the tree's error hierarchy."""
    _, rows = protocol_rows(trees)
    if not rows:
        return []  # fixture tree without a verb table: nothing to check
    contract = {row.verb: row.errors for row in rows}
    member_map = {row.member: row.verb for row in rows}
    retryable = hierarchy.retryable_family()
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
                if exc_type in retryable or hierarchy.covered(
                        exc_type, IMPLICITLY_ALLOWED_ROOTS + declared):
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
