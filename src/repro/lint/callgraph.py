"""Whole-program call graph over the ``repro`` tree.

ZomLint's per-file rules cannot see through a helper function: a
wall-clock read laundered through one hop, or a raise three frames below
a verb handler, escapes every single-file AST walk.  This module builds
the shared substrate the interprocedural passes (ZL009-ZL014) run
on: every function and method in the analyzed tree becomes a node, and
edges record *may-call* relations resolved module-qualifiedly —
``self.method(...)``, attribute calls through ``__init__``-assigned
instance types, local variables bound to constructor calls, property
return annotations, and bare function references passed as callbacks
(``rpc.register(Method.X.value, self._guard(self.handler))``,
``engine.schedule(..., cb)``, ``PeriodicProcess(engine, period, fn)``).

Resolution is deliberately an over-approximation where it must be (an
unresolvable attribute call falls back to a unique-name match, excluding
a blocklist of ubiquitous method names) and an under-approximation where
guessing would flood the passes with junk edges.  An extra edge surfaces
as a finding to fix or suppress with a reason, a missing one as a blind
spot the injected-defect tests guard, never as silent test breakage.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import (collect_aliases, dotted_name, expand_alias,
                               module_name_for, terminal_name)

#: Attribute-call names too generic to resolve by unique-name fallback:
#: an edge guessed through one of these is far more likely to bind a
#: builtin container method than a project function.
_FALLBACK_BLOCKLIST = {
    "get", "add", "pop", "append", "extend", "remove", "clear", "update",
    "keys", "values", "items", "sort", "copy", "join", "split", "strip",
    "discard", "setdefault", "insert", "count", "index", "close", "read",
    "write", "open", "start", "stop", "run", "emit", "set", "inc", "observe",
    "items", "format", "encode", "decode", "popitem", "move_to_end",
}

#: Constructor calls that register their argument as a simulation-driven
#: callback (the argument runs inside sim context).
_SCHEDULER_CALLS = {"schedule", "schedule_at", "PeriodicProcess"}


@dataclass
class FunctionNode:
    """One function or method in the analyzed tree."""

    qual: str                 # module.Class.method or module.function
    module: str               # dotted module name
    path: str                 # file the definition lives in
    lineno: int
    node: ast.AST             # the FunctionDef
    class_name: Optional[str] = None

    @property
    def short(self) -> str:
        """Human-oriented name: ``Class.method`` or ``function``."""
        parts = self.qual.split(".")
        if self.class_name is not None:
            return ".".join(parts[-2:])
        return parts[-1]


@dataclass(frozen=True)
class Edge:
    """A may-call (or callback-bind) edge, anchored to the call site."""

    caller: str
    callee: str
    lineno: int
    kind: str  # "call" | "ref" | "fuzzy"


@dataclass(frozen=True)
class ExternalCall:
    """A call leaving the analyzed tree, with aliases resolved.

    ``dotted`` is the canonical dotted name after expanding the module's
    import aliases — ``_mono()`` under ``from time import monotonic as
    _mono`` records as ``time.monotonic``.
    """

    func: str     # qual of the enclosing function
    dotted: str
    lineno: int


@dataclass(frozen=True)
class HandlerBinding:
    """One ``register(verb, handler-expression)`` site.

    ``member`` is the ``Method`` enum member when the verb was spelled
    ``Method.X.value``; plain-string fixture verbs carry ``member=None``
    but still root the sim-context closure (their handlers run inside
    simulated processes all the same).
    """

    verb: Optional[str]       # the verb string when statically known
    member: Optional[str]     # Method enum member name, if spelled so
    handlers: Tuple[str, ...]  # quals of function refs bound at the site
    path: str
    lineno: int


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.AST
    #: import alias → canonical dotted prefix (``rnd`` → ``random``,
    #: ``_mono`` → ``time.monotonic``).
    aliases: Dict[str, str] = field(default_factory=dict)
    #: local class name → class qual (same module or imported).
    classes: Dict[str, str] = field(default_factory=dict)


class CallGraph:
    """The resolved graph plus the side tables the passes consume."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionNode] = {}
        self.edges: List[Edge] = []
        self.external_calls: List[ExternalCall] = []
        self.handler_bindings: List[HandlerBinding] = []
        #: Functions handed to ``engine.schedule(_at)`` / ``PeriodicProcess``.
        self.scheduled_callbacks: Set[str] = set()
        self.modules: Dict[str, ModuleInfo] = {}
        #: class qual → {attr name → type tag}.  Type tags are either a
        #: class qual (instance attribute) or one of the builtin markers
        #: ``"set"`` / ``"dict"`` / ``"list"``.
        self.attr_types: Dict[str, Dict[str, str]] = {}
        self._out: Optional[Dict[str, Set[str]]] = None
        self._in: Optional[Dict[str, Set[str]]] = None

    # -- derived views -----------------------------------------------------
    def out_edges(self) -> Dict[str, Set[str]]:
        if self._out is None:
            self._out = {}
            for edge in self.edges:
                self._out.setdefault(edge.caller, set()).add(edge.callee)
        return self._out

    def in_edges(self) -> Dict[str, Set[str]]:
        if self._in is None:
            self._in = {}
            for edge in self.edges:
                self._in.setdefault(edge.callee, set()).add(edge.caller)
        return self._in

    def sim_roots(self) -> Set[str]:
        """Entry points into sim context: verb handlers + scheduled callbacks.

        Everything transitively reachable from these runs inside the
        deterministic simulation, where a wall-clock read or an unseeded
        random draw breaks replay.
        """
        roots = set(self.scheduled_callbacks)
        for binding in self.handler_bindings:
            roots.update(binding.handlers)
        return roots

    def reachable_from(self, roots: Sequence[str]) -> Set[str]:
        """Forward closure over call edges (roots included)."""
        out = self.out_edges()
        seen: Set[str] = set()
        frontier = [r for r in roots if r in self.functions]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(out.get(current, ()))
        return seen

    def reaching(self, targets: Sequence[str]) -> Set[str]:
        """Backward closure: every function that may reach a target."""
        inward = self.in_edges()
        seen: Set[str] = set()
        frontier = [t for t in targets if t in self.functions]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(inward.get(current, ()))
        return seen

    def shortest_chain(self, roots: Set[str], target: str
                       ) -> Optional[List[str]]:
        """BFS path root → … → target, for source→sink chain reports."""
        out = self.out_edges()
        frontier: List[List[str]] = [[r] for r in sorted(roots)]
        seen: Set[str] = set(roots)
        while frontier:
            path = frontier.pop(0)
            if path[-1] == target:
                return path
            for nxt in sorted(out.get(path[-1], ())):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(path + [nxt])
        return None

    def render(self, chain: Sequence[str]) -> str:
        """``Class.method -> helper -> Class.other`` display form."""
        parts = []
        for qual in chain:
            node = self.functions.get(qual)
            parts.append(node.short if node is not None else qual)
        return " -> ".join(parts)


class _ModuleCollector:
    """First pass: declare every function/method and instance-attr type."""

    def __init__(self, graph: CallGraph, info: ModuleInfo):
        self.graph = graph
        self.info = info

    def collect(self) -> None:
        for node in self.info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._declare(node, class_name=None, prefix=self.info.name)
            elif isinstance(node, ast.ClassDef):
                qual = f"{self.info.name}.{node.name}"
                self.info.classes[node.name] = qual
                self.graph.attr_types.setdefault(qual, {})
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self._declare(stmt, class_name=node.name, prefix=qual)

    def _declare(self, node: ast.AST, class_name: Optional[str],
                 prefix: str) -> None:
        qual = f"{prefix}.{node.name}"
        self.graph.functions[qual] = FunctionNode(
            qual=qual, module=self.info.name, path=self.info.path,
            lineno=node.lineno, node=node, class_name=class_name,
        )
        # Nested defs become their own nodes with a bind edge from the
        # enclosing function (closures are registered to be called).
        for stmt in ast.walk(node):
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt is not node
                    and self._directly_nested(node, stmt)):
                inner_qual = f"{qual}.{stmt.name}"
                self.graph.functions[inner_qual] = FunctionNode(
                    qual=inner_qual, module=self.info.name,
                    path=self.info.path, lineno=stmt.lineno, node=stmt,
                    class_name=class_name,
                )
                self.graph.edges.append(
                    Edge(qual, inner_qual, stmt.lineno, "ref")
                )

    @staticmethod
    def _directly_nested(outer: ast.AST, inner: ast.AST) -> bool:
        """True when ``inner`` is defined inside ``outer`` and not inside
        another intermediate function (those get their own pass)."""
        stack = [(outer, 0)]
        while stack:
            node, depth = stack.pop()
            for child in ast.iter_child_nodes(node):
                if child is inner:
                    return depth == 0
                bump = isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                stack.append((child, depth + (1 if bump else 0)))
        return False


def _record_attr_types(graph: CallGraph, info: ModuleInfo) -> None:
    """Infer instance-attribute types from ``self.x = Ctor(...)`` sites."""
    for node in info.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        class_qual = info.classes[node.name]
        table = graph.attr_types.setdefault(class_qual, {})
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            tag = _type_tag(stmt.value, info, graph)
            if tag is not None:
                table.setdefault(target.attr, tag)
        # Property return annotations type the attribute they emulate.
        for stmt in node.body:
            if (isinstance(stmt, ast.FunctionDef) and stmt.returns is not None
                    and any(isinstance(d, ast.Name) and d.id == "property"
                            for d in stmt.decorator_list)):
                ann = dotted_name(stmt.returns)
                if ann is not None:
                    resolved = _resolve_class(ann, info, graph)
                    if resolved is not None:
                        table.setdefault(stmt.name, resolved)


def _type_tag(value: ast.AST, info: ModuleInfo,
              graph: CallGraph) -> Optional[str]:
    """Class qual or builtin marker for an assigned expression."""
    if isinstance(value, ast.Call):
        dotted = dotted_name(value.func)
        if dotted is None:
            return None
        if dotted in ("set", "frozenset"):
            return "set"
        if dotted == "dict":
            return "dict"
        if dotted == "list":
            return "list"
        return _resolve_class(dotted, info, graph)
    if isinstance(value, ast.Set) or isinstance(value, ast.SetComp):
        return "set"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    return None


def _resolve_class(dotted: str, info: ModuleInfo,
                   graph: CallGraph) -> Optional[str]:
    """Map a (possibly aliased) name to a known class qual."""
    dotted = expand_alias(dotted, info.aliases)
    tail = dotted.split(".")[-1]
    if tail in info.classes:
        return info.classes[tail]
    # An imported class: its alias expansion ends in module.Class.
    if dotted in graph.attr_types:
        return dotted
    for qual in graph.attr_types:
        if qual.endswith("." + tail):
            return qual
    return None


class _FunctionResolver(ast.NodeVisitor):
    """Second pass: resolve every call/ref inside one function body."""

    def __init__(self, graph: CallGraph, info: ModuleInfo,
                 fn: FunctionNode):
        self.graph = graph
        self.info = info
        self.fn = fn
        #: local variable → type tag, from constructor/attr assignments.
        self.locals: Dict[str, str] = {}
        self._method_index: Dict[str, List[str]] = {}

    def resolve(self) -> None:
        self._seed_parameter_types()
        body = getattr(self.fn.node, "body", [])
        for stmt in body:
            self._visit_stmt(stmt)

    # -- typing ------------------------------------------------------------
    def _seed_parameter_types(self) -> None:
        args = getattr(self.fn.node, "args", None)
        if args is None:
            return
        for arg in list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None:
                dotted = dotted_name(arg.annotation)
                if dotted is not None:
                    resolved = _resolve_class(dotted, self.info, self.graph)
                    if resolved is not None:
                        self.locals[arg.arg] = resolved

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are their own nodes
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            tag = self._expr_type(stmt.value)
            if tag is not None:
                self.locals[stmt.targets[0].id] = tag
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call):
                self._resolve_call(node)

    def _expr_type(self, value: ast.AST) -> Optional[str]:
        tag = _type_tag(value, self.info, self.graph)
        if tag is not None:
            return tag
        # v = self.attr — propagate the instance-attribute type.
        if (isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)):
            base = value.value.id
            if base == "self" and self.fn.class_name is not None:
                class_qual = f"{self.fn.module}.{self.fn.class_name}"
                return self.graph.attr_types.get(class_qual,
                                                 {}).get(value.attr)
            base_tag = self.locals.get(base)
            if base_tag is not None and base_tag in self.graph.attr_types:
                return self.graph.attr_types[base_tag].get(value.attr)
        if isinstance(value, ast.Name):
            return self.locals.get(value.id)
        return None

    # -- call resolution ---------------------------------------------------
    def _resolve_call(self, node: ast.Call) -> None:
        callee = self._resolve_callable(node.func)
        if callee is not None:
            kind, qual = callee
            self.graph.edges.append(
                Edge(self.fn.qual, qual, node.lineno, kind))
        else:
            dotted = dotted_name(node.func)
            if dotted is not None:
                expanded = expand_alias(dotted, self.info.aliases)
                self.graph.external_calls.append(
                    ExternalCall(self.fn.qual, expanded, node.lineno))
        self._resolve_callback_refs(node)

    def _resolve_callable(self, func: ast.AST
                          ) -> Optional[Tuple[str, str]]:
        """Resolve the called expression to ``(edge kind, qual)``."""
        dotted = dotted_name(func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        # Plain name: module function, local class ctor, or alias.
        if len(parts) == 1:
            name = parts[0]
            local = f"{self.fn.qual}.{name}"
            if local in self.graph.functions:
                return ("call", local)
            mod_fn = f"{self.fn.module}.{name}"
            if mod_fn in self.graph.functions:
                return ("call", mod_fn)
            cls = _resolve_class(name, self.info, self.graph)
            if cls is not None:
                init = f"{cls}.__init__"
                if init in self.graph.functions:
                    return ("call", init)
            return None
        base, attr = parts[0], parts[-1]
        # self.method(...) — same class, or an attr-typed instance.
        if base == "self" and self.fn.class_name is not None:
            class_qual = f"{self.fn.module}.{self.fn.class_name}"
            if len(parts) == 2:
                method = f"{class_qual}.{attr}"
                if method in self.graph.functions:
                    return ("call", method)
            else:
                tag = self.graph.attr_types.get(class_qual,
                                                {}).get(parts[1])
                resolved = self._method_on(tag, parts[1:], attr)
                if resolved is not None:
                    return resolved
        # var.method(...) through a typed local.
        tag = self.locals.get(base)
        if tag is not None:
            resolved = self._method_on(tag, parts, attr)
            if resolved is not None:
                return resolved
        # Module-qualified function (import m; m.f()).
        expanded = expand_alias(dotted, self.info.aliases)
        if expanded in self.graph.functions:
            return ("call", expanded)
        head = expand_alias(base, self.info.aliases)
        mod_fn = f"{head}.{attr}" if len(parts) == 2 else None
        if mod_fn is not None and mod_fn in self.graph.functions:
            return ("call", mod_fn)
        # Unique-name fallback for distinctive method names.
        if attr not in _FALLBACK_BLOCKLIST:
            matches = self._methods_named(attr)
            if len(matches) == 1:
                return ("fuzzy", matches[0])
        return None

    def _method_on(self, tag: Optional[str], chain: Sequence[str],
                   attr: str) -> Optional[Tuple[str, str]]:
        """Follow ``tag.attr2.attr3....method()`` through the type tables."""
        if tag is None or tag in ("set", "dict", "list"):
            return None
        # Walk intermediate attributes: a.b.c.m() with a: T resolves b on
        # T, c on type(b), then m as a method of type(c).
        current = tag
        for part in chain[1:-1]:
            table = self.graph.attr_types.get(current)
            if table is None:
                return None
            current = table.get(part)
            if current is None or current in ("set", "dict", "list"):
                return None
        method = f"{current}.{attr}"
        if method in self.graph.functions:
            return ("call", method)
        return None

    def _methods_named(self, name: str) -> List[str]:
        index = self._method_index
        if not index:
            for qual in self.graph.functions:
                index.setdefault(qual.rsplit(".", 1)[-1], []).append(qual)
        return index.get(name, [])

    # -- callback references ------------------------------------------------
    def _resolve_callback_refs(self, node: ast.Call) -> None:
        """Function refs passed as arguments become bind edges; register
        sites and scheduler calls feed the pass-specific side tables."""
        terminal = terminal_name(node.func)
        refs: List[Tuple[str, int]] = []
        for arg in list(node.args) + [k.value for k in node.keywords]:
            refs.extend(self._function_refs(arg))
        for qual, lineno in refs:
            self.graph.edges.append(Edge(self.fn.qual, qual, lineno, "ref"))
        if terminal == "register" and len(node.args) >= 2:
            member = _method_member(node.args[0])
            verb = _verb_literal(node.args[0])
            handlers = tuple(sorted({q for q, _
                                     in self._function_refs(node.args[1])}))
            if handlers:
                self.graph.handler_bindings.append(HandlerBinding(
                    verb=verb, member=member, handlers=handlers,
                    path=self.fn.path, lineno=node.lineno,
                ))
        if terminal in _SCHEDULER_CALLS:
            for qual, _ in refs:
                self.graph.scheduled_callbacks.add(qual)

    def _function_refs(self, expr: ast.AST) -> List[Tuple[str, int]]:
        """Known-function references inside an argument expression.

        Descends through wrapper calls (``self._guard(fn)``) and
        lambdas, so the innermost bound handler is still found.
        """
        refs: List[Tuple[str, int]] = []
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                continue  # the callee itself is resolved as a call
            qual = self._ref_target(sub)
            if qual is not None:
                refs.append((qual, getattr(sub, "lineno", expr.lineno)))
        # Callee positions inside wrapper calls are walked too: _guard(...)
        # is a call, but its *arguments* were covered by ast.walk above.
        return refs

    def _ref_target(self, sub: ast.AST) -> Optional[str]:
        if isinstance(sub, ast.Attribute):
            dotted = dotted_name(sub)
            if dotted is None:
                return None
            parts = dotted.split(".")
            if parts[0] == "self" and len(parts) == 2 \
                    and self.fn.class_name is not None:
                qual = f"{self.fn.module}.{self.fn.class_name}.{parts[1]}"
                if qual in self.graph.functions:
                    return qual
            tag = self.locals.get(parts[0])
            if tag is not None and len(parts) == 2:
                qual = f"{tag}.{parts[1]}"
                if qual in self.graph.functions:
                    return qual
            return None
        if isinstance(sub, ast.Name):
            local = f"{self.fn.qual}.{sub.id}"
            if local in self.graph.functions:
                return local
            mod_fn = f"{self.fn.module}.{sub.id}"
            if mod_fn in self.graph.functions:
                return mod_fn
        return None


def _method_member(node: ast.AST) -> Optional[str]:
    dotted = dotted_name(node)
    if dotted is None:
        return None
    parts = dotted.split(".")
    if len(parts) >= 3 and parts[-3] == "Method" and parts[-1] == "value":
        return parts[-2]
    return None


def _verb_literal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def build_graph(trees: Dict[Path, ast.Module]) -> CallGraph:
    """Resolve the whole tree from its parsed modules."""
    graph = CallGraph()
    infos: List[ModuleInfo] = []
    for path in sorted(trees):
        tree = trees[path]
        info = ModuleInfo(name=module_name_for(path), path=str(path),
                          tree=tree, aliases=collect_aliases(tree))
        infos.append(info)
        graph.modules[info.name] = info
    for info in infos:
        _ModuleCollector(graph, info).collect()
    for info in infos:
        _record_attr_types(graph, info)
    for info in infos:
        for qual, fn in list(graph.functions.items()):
            if fn.module == info.name and fn.path == info.path:
                _FunctionResolver(graph, info, fn).resolve()
    return graph
