"""Whole-program call graph over the ``repro`` tree.

ZomLint's per-file rules cannot see through a helper function: a
wall-clock read laundered through one hop, or a raise three frames below
a verb handler, escapes every single-file AST walk.  This module builds
the shared substrate the interprocedural passes (ZL009-ZL014) run
on: every function and method in the analyzed tree becomes a node, and
edges record *may-call* relations resolved module-qualifiedly —
plain calls to nested, module and imported functions,
``self.method(...)``, attribute calls through ``__init__``-assigned
instance types, local variables bound to constructor calls, property
return annotations, and bare function references passed as callbacks
(``rpc.register(Method.X.value, self._guard(self.handler))``,
``engine.schedule(..., cb)``, ``PeriodicProcess(engine, period, fn)``).

Resolution is deliberately an over-approximation where it must be (an
attribute call it cannot type falls back to a unique-name match,
excluding a blocklist of ubiquitous method names) and an
under-approximation where guessing would flood the passes with junk
edges.  An extra edge surfaces
as a finding to fix or suppress with a reason, a missing one as a blind
spot the injected-defect tests guard, never as silent test breakage.

This is the one place that walks a module: :func:`walk_module` visits
each node once and records what every pass reads — the import aliases,
each function's body nodes, the ``self.x`` assignment sites and each
node's parent — and the graph holds the tables the passes share (the
callee of each call, the callee-by-line table, the method-name index,
the class-by-name lookup) plus the one fixpoint solver their summaries
converge on.  It is the only call resolver: no pass binds a call itself.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from repro.lint.engine import (dotted_name, expand_alias, module_name_for,
                               terminal_name)

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

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
    #: One list per body statement: its nodes in ``ast.walk`` order, the
    #: statement first.  The body of a declared def nested in it is that
    #: def's alone; the def's decorators and defaults stay here.
    body: List[List[ast.AST]] = field(default_factory=list, repr=False)

    @property
    def short(self) -> str:
        """Human-oriented name: ``Class.method`` or ``function``."""
        parts = self.qual.split(".")
        if self.class_name is not None:
            return ".".join(parts[-2:])
        return parts[-1]

    def self_attr(self, expr: ast.AST) -> Optional[Tuple[str, str]]:
        """``(class qual, attr)`` when ``expr`` is ``self.attr`` here."""
        if (self.class_name is not None and isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"):
            return (f"{self.module}.{self.class_name}", expr.attr)
        return None

    def nodes(self) -> Iterator[ast.AST]:
        """Every node of the body, statement by statement."""
        for stmt_nodes in self.body:
            yield from stmt_nodes


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


class AttrSite(NamedTuple):
    """One ``self.x = v`` (or ``self.x: T = v``) site."""

    cls: Optional[ast.ClassDef]       # the module-level class holding it
    attr: str
    value: ast.expr
    owners: Tuple[FunctionNode, ...]  # the declared functions around it


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.AST
    #: import alias → canonical dotted prefix (``rnd`` → ``random``,
    #: ``_mono`` → ``time.monotonic``).
    aliases: Dict[str, str] = field(default_factory=dict)
    #: module-level class name → class qual.
    classes: Dict[str, str] = field(default_factory=dict)
    #: declared functions in graph order: each module-level function or
    #: method, then the defs nested directly in it.
    functions: List[FunctionNode] = field(default_factory=list)
    #: the bind edge from each nested def's enclosing function.
    edges: List[Edge] = field(default_factory=list)
    attr_sites: List[AttrSite] = field(default_factory=list)
    #: every node's parent node.
    parent: Dict[ast.AST, ast.AST] = field(default_factory=dict)


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
        #: Every module's ``self.x`` sites and every node's parent.
        self.attr_sites: List[AttrSite] = []
        self.parent: Dict[ast.AST, ast.AST] = {}
        #: Function name → quals defining it, in graph order.
        self.methods_named: Dict[str, List[str]] = {}
        #: Each resolved call expression → its callee's qual.
        self.callee_of: Dict[ast.Call, str] = {}
        #: Class name → the first class qual of that name.
        self.class_by_name: Dict[str, str] = {}
        self._out: Optional[Dict[str, Set[str]]] = None
        self._in: Optional[Dict[str, Set[str]]] = None
        self._callees_at: Optional[Dict[str, Dict[int, Set[str]]]] = None

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

    def callees_at(self) -> Dict[str, Dict[int, Set[str]]]:
        """caller → call-site line → callees bound there."""
        if self._callees_at is None:
            self._callees_at = {}
            for edge in self.edges:
                self._callees_at.setdefault(edge.caller, {}).setdefault(
                    edge.lineno, set()).add(edge.callee)
        return self._callees_at

    def fixpoint(self, grow: Callable[[str], bool]) -> None:
        """Drive per-function summaries over the call graph to convergence.

        ``grow(qual)`` recomputes one function's summary from its callees'
        and says whether it grew.  Every function is evaluated once, in
        :attr:`functions` order; after that only a caller of a function
        whose summary grew is evaluated again, in the same order, so a
        caller later in the order sees the growth in the same sweep.  It
        stops when nothing grows: there is no round cap.
        """
        callers = self.in_edges()
        order = list(self.functions)
        dirty = set(order)
        while dirty:
            for qual in order:
                if qual in dirty:
                    dirty.discard(qual)
                    if grow(qual):
                        dirty.update(callers.get(qual, ()))

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
        return self._closure(roots, self.out_edges())

    def reaching(self, targets: Sequence[str]) -> Set[str]:
        """Backward closure: every function that may reach a target."""
        return self._closure(targets, self.in_edges())

    def _closure(self, starts: Sequence[str],
                 step: Dict[str, Set[str]]) -> Set[str]:
        seen: Set[str] = set()
        frontier = [s for s in starts if s in self.functions]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(step.get(current, ()))
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


def walk_module(path: Path, tree: ast.Module) -> ModuleInfo:
    """The one walk of a module, breadth-first in ``ast.walk`` order.

    Declares each module-level function, each method of a module-level
    class and each def nested directly in one of those (a def nested in
    a nested def stays part of its body), and records the import
    aliases (the last binding wins), each declared function's body
    nodes (a declared nested def's body is its own, not its enclosing
    function's), the ``self.x`` assignment sites and every node's parent.
    """
    info = ModuleInfo(name=module_name_for(path), path=str(path), tree=tree)
    #: each module-level function or method → the defs nested in it.
    outers: Dict[ast.AST, Tuple[FunctionNode, List[FunctionNode]]] = {}
    for node in tree.body:
        if isinstance(node, DEFS):
            outers[node] = (_function(info, node, info.name, None), [])
        elif isinstance(node, ast.ClassDef):
            qual = f"{info.name}.{node.name}"
            info.classes[node.name] = qual
            for stmt in node.body:
                if isinstance(stmt, DEFS):
                    outers[stmt] = (_function(info, stmt, qual, node.name), [])
    # Each entry: node, enclosing module-level class, the declared def
    # whose direct nested defs are declared too, the declared functions
    # around the node, and the statement lists the node belongs to.
    parent = info.parent
    todo = deque([(tree, None, None, (), ())])
    while todo:
        node, cls, outer, owners, lists = todo.popleft()
        for nodes in lists:
            nodes.append(node)
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                info.aliases[alias.asname or head] = (
                    alias.name if alias.asname else head)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                info.aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            site = _attr_site(node, cls, owners)
            if site is not None:
                info.attr_sites.append(site)
        elif isinstance(node, DEFS):
            fn = outers[node][0] if node in outers else None
            if fn is None and outer is not None:
                fn = _function(info, node, outer.qual, outer.class_name)
                outers[outer.node][1].append(fn)
            outer = fn if node in outers else None
            if fn is not None:
                owners = owners + (fn,)
                stmt_lists = {}
                for stmt in node.body:
                    fn.body.append([])
                    # The body belongs to this def alone; its decorators
                    # and defaults run in the enclosing function.
                    stmt_lists[stmt] = (fn.body[-1],)
                for child in ast.iter_child_nodes(node):
                    parent[child] = node
                    todo.append((child, cls, outer, owners,
                                 stmt_lists.get(child, lists)))
                continue
        elif isinstance(node, ast.ClassDef) and parent.get(node) is tree:
            cls = node
        for child in ast.iter_child_nodes(node):
            parent[child] = node
            todo.append((child, cls, outer, owners, lists))
    for fn, inner in outers.values():
        info.functions.append(fn)
        for sub in inner:
            info.functions.append(sub)
            info.edges.append(Edge(fn.qual, sub.qual, sub.lineno, "ref"))
    return info


def _function(info: ModuleInfo, node: ast.AST, prefix: str,
              class_name: Optional[str]) -> FunctionNode:
    return FunctionNode(qual=f"{prefix}.{node.name}", module=info.name,
                        path=info.path, lineno=node.lineno, node=node,
                        class_name=class_name)


def _attr_site(node: ast.stmt, cls: Optional[ast.ClassDef],
               owners: Tuple[FunctionNode, ...]) -> Optional[AttrSite]:
    """The ``self.x = v`` site an assignment is, if it is one."""
    if isinstance(node, ast.Assign):
        if len(node.targets) != 1:
            return None
        target = node.targets[0]
    elif node.value is None:
        return None  # a bare ``self.x: T`` annotation binds nothing
    else:
        target = node.target
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return AttrSite(cls, target.attr, node.value, owners)
    return None


def _record_attr_types(graph: CallGraph, info: ModuleInfo) -> None:
    """Type instance attributes from their ``self.x = Ctor(...)`` sites,
    then from property return annotations; the first type wins."""
    sites: Dict[ast.AST, List[AttrSite]] = {}
    for site in info.attr_sites:
        sites.setdefault(site.cls, []).append(site)
    for node in info.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        table = graph.attr_types[info.classes[node.name]]
        for site in sites.get(node, ()):
            tag = _type_tag(site.value, info, graph)
            if tag is not None:
                table.setdefault(site.attr, tag)
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
    return graph.class_by_name.get(tail)


class _FunctionResolver:
    """Resolve every call/ref inside one function body."""

    def __init__(self, graph: CallGraph, info: ModuleInfo,
                 fn: FunctionNode):
        self.graph = graph
        self.info = info
        self.fn = fn
        #: local variable → type tag, from constructor/attr assignments.
        self.locals: Dict[str, str] = {}

    def resolve(self) -> None:
        self._seed_parameter_types()
        for nodes in self.fn.body:
            stmt = nodes[0]
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                tag = self._expr_type(stmt.value)
                if tag is not None:
                    self.locals[stmt.targets[0].id] = tag
            refs = self._callback_refs(nodes)
            for node in nodes:
                if isinstance(node, ast.Call):
                    self._resolve_call(node, refs.get(node, []))

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

    def _expr_type(self, value: ast.AST) -> Optional[str]:
        tag = _type_tag(value, self.info, self.graph)
        if tag is not None:
            return tag
        # v = self.attr — propagate the instance-attribute type.
        key = self.fn.self_attr(value)
        if key is not None:
            return self.graph.attr_types.get(key[0], {}).get(key[1])
        if (isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)):
            base_tag = self.locals.get(value.value.id)
            if base_tag is not None and base_tag in self.graph.attr_types:
                return self.graph.attr_types[base_tag].get(value.attr)
        if isinstance(value, ast.Name):
            return self.locals.get(value.id)
        return None

    # -- call resolution ---------------------------------------------------
    def _resolve_call(self, node: ast.Call,
                      refs: List[Tuple[str, int, ast.AST]]) -> None:
        callee = self._resolve_callable(node.func)
        if callee is not None:
            kind, qual = callee
            self.graph.edges.append(
                Edge(self.fn.qual, qual, node.lineno, kind))
            self.graph.callee_of[node] = qual
        else:
            dotted = dotted_name(node.func)
            if dotted is not None:
                expanded = expand_alias(dotted, self.info.aliases)
                self.graph.external_calls.append(
                    ExternalCall(self.fn.qual, expanded, node.lineno))
        # Function refs passed as arguments become bind edges; register
        # sites and scheduler calls feed the pass-specific side tables.
        for qual, lineno, _ in refs:
            self.graph.edges.append(Edge(self.fn.qual, qual, lineno, "ref"))
        terminal = terminal_name(node.func)
        if terminal == "register" and len(node.args) >= 2:
            handlers = tuple(sorted({q for q, _, arg in refs
                                     if arg is node.args[1]}))
            if handlers:
                self.graph.handler_bindings.append(HandlerBinding(
                    verb=_verb_literal(node.args[0]),
                    member=_method_member(node.args[0]), handlers=handlers,
                    path=self.fn.path, lineno=node.lineno,
                ))
        if terminal in _SCHEDULER_CALLS:
            self.graph.scheduled_callbacks.update(q for q, _, _ in refs)

    def _resolve_callable(self, func: ast.AST
                          ) -> Optional[Tuple[str, str]]:
        """Resolve the called expression to ``(edge kind, qual)``."""
        dotted = dotted_name(func)
        if dotted is None:
            # A computed receiver (``self.meters[name].set_power(...)``):
            # only the method name is known.
            if isinstance(func, ast.Attribute):
                return self._unique_name(func.attr)
            return None
        parts = dotted.split(".")
        # Plain name: nested, module or imported function, or class ctor.
        if len(parts) == 1:
            qual = self._named_function(parts[0])
            if qual is not None:
                return ("call", qual)
            cls = _resolve_class(parts[0], self.info, self.graph)
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
        return self._unique_name(attr)

    def _unique_name(self, attr: str) -> Optional[Tuple[str, str]]:
        """The one fallback: the only function of a distinctive name."""
        if attr not in _FALLBACK_BLOCKLIST:
            matches = self.graph.methods_named.get(attr, [])
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

    # -- callback references ------------------------------------------------
    def _callback_refs(self, nodes: List[ast.AST]
                       ) -> Dict[ast.Call, List[Tuple[str, int, ast.AST]]]:
        """Known-function references inside each call's arguments.

        Maps a call to ``(qual, line, argument)`` for every reference
        anywhere in one of its arguments — through wrapper calls
        (``self._guard(fn)``) and lambdas, so the innermost bound handler
        is still found.  Found by climbing from each reference to its
        statement: only expressions lie between, and every call on the
        way whose callee position it is not in takes it.
        """
        refs: Dict[ast.Call, List[Tuple[str, int, ast.AST]]] = {}
        parent = self.graph.parent
        for sub in nodes:
            if not isinstance(sub, (ast.Attribute, ast.Name)):
                continue
            qual = self._ref_target(sub)
            if qual is None:
                continue
            child, up = sub, parent[sub]
            while not isinstance(up, ast.stmt):
                if isinstance(up, ast.Call) and child is not up.func:
                    refs.setdefault(up, []).append((qual, sub.lineno, child))
                child, up = up, parent[up]
        return refs

    def _ref_target(self, sub: ast.AST) -> Optional[str]:
        if isinstance(sub, ast.Name):
            return self._named_function(sub.id)
        dotted = dotted_name(sub) if isinstance(sub, ast.Attribute) else None
        if dotted is None or dotted.count(".") != 1:
            return None
        base, attr = dotted.split(".")
        owners = [self.locals.get(base)]
        if base == "self" and self.fn.class_name is not None:
            owners.insert(0, f"{self.fn.module}.{self.fn.class_name}")
        for owner in owners:
            if owner is not None and f"{owner}.{attr}" in self.graph.functions:
                return f"{owner}.{attr}"
        return None

    def _named_function(self, name: str) -> Optional[str]:
        """A bare name bound to a def nested here, a module function or
        an imported one (``from m import f``)."""
        for qual in (f"{self.fn.qual}.{name}", f"{self.fn.module}.{name}",
                     self.info.aliases.get(name)):
            if qual in self.graph.functions:
                return qual
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
    return link_modules([walk_module(path, trees[path])
                         for path in sorted(trees)])


def link_modules(infos: Sequence[ModuleInfo]) -> CallGraph:
    """Resolve the graph over walked modules, given in path order."""
    graph = CallGraph()
    for info in infos:
        graph.modules[info.name] = info
        graph.attr_sites.extend(info.attr_sites)
        graph.parent.update(info.parent)
        for qual in info.classes.values():
            graph.attr_types.setdefault(qual, {})
        for fn in info.functions:
            graph.functions[fn.qual] = fn
        graph.edges.extend(info.edges)
    for qual in graph.functions:
        graph.methods_named.setdefault(qual.rsplit(".", 1)[-1],
                                       []).append(qual)
    for qual in graph.attr_types:
        graph.class_by_name.setdefault(qual.rsplit(".", 1)[-1], qual)
    for info in infos:
        _record_attr_types(graph, info)
    by_path: Dict[str, List[FunctionNode]] = {}
    for fn in graph.functions.values():
        by_path.setdefault(fn.path, []).append(fn)
    for info in infos:
        for fn in by_path.get(info.path, ()):
            _FunctionResolver(graph, info, fn).resolve()
    return graph
