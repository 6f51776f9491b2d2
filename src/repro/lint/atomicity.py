"""ZL010 — yield-point atomicity over shared rack state.

The control-plane machines (`core/controller.py`, `core/secondary.py`,
`core/manager.py`, `core/recovery.py`) run today under a single-threaded
discrete-event engine, so a handler body is atomic end to end.  The
asyncio serving gateway and the multi-rack control plane (ROADMAP items
1 and 3) turn every outgoing RPC into a *yield point*: another request
can interleave while the reply is in flight.  Any read-then-write on
shared rack state that straddles such a point is a latent
read-check-act race — the classic lost-update — and this pass flags it
*before* the concurrency lands.

The rule, per function in the scoped modules:

1. a **read** of a shared-state family (leases, epochs, zombie-pool
   membership, mirror watermarks, recovery queues), followed by
2. a **yield point** — a call that may transitively issue an outgoing
   RPC (``RpcClient.call``) or a literal ``yield``/``await``, followed by
3. a **write** to the same family,

with no re-validation between the yield and the write, is one finding.
Re-validation is a fresh read of the family (directly or through a
called helper that reads it) or a fencing check (``self.fenced``, an
epoch read, or raising ``FencingError``) — exactly the idioms the
fencing layer already uses.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import CallGraph, FunctionNode
from repro.lint.engine import Finding, raised_name, terminal_name

#: Modules the pass scopes to (path tails).  The cooperative-concurrency
#: hazard lives in the control-plane machines; applying the rule to pure
#: compute modules would only manufacture noise.
ATOMICITY_MODULE_TAILS = (
    ("core", "controller.py"),
    ("core", "secondary.py"),
    ("core", "manager.py"),
    ("core", "recovery.py"),
)

#: Shared-state attribute → family.  A family is the unit of the
#: read/write race: reading ``db`` and writing ``_lent`` both touch the
#: lease book, so they belong to one family.
STATE_FAMILIES: Dict[str, str] = {
    "db": "leases",
    "_lent": "leases",
    "_stores_by_buffer": "leases",
    "_stores_needing_repair": "leases",
    "epoch": "epochs",
    "epochs": "epochs",
    "fenced": "epochs",
    "zombie_hosts": "zombie-pool",
    "known_hosts": "zombie-pool",
    "agent_clients": "zombie-pool",
    "_mirror_acked": "mirror",
    "mirror_applied_seq": "mirror",
    "mirror_deferred": "mirror",
    "lost_hosts": "recovery",
    "_owed_invalidations": "recovery",
    "_owed_resyncs": "recovery",
    "_misses": "recovery",
    "_open_incident": "recovery",
}

#: Method names that mutate their receiver.  A call
#: ``<...family-attr...>.<mutator>(...)`` is a write to the family
#: (``owe``/``settle`` are the recovery queues' ``OwedWork`` writers).
_MUTATORS = {
    "add", "remove", "set_kind", "assign", "unassign", "apply", "adopt",
    "host_add", "zombie_add", "zombie_remove", "pop", "popleft", "append",
    "extend", "clear", "update", "discard", "insert", "setdefault", "popitem",
    "owe", "settle",
}

#: Attribute-call names that ARE the outgoing-RPC surface, matched
#: syntactically so the pass does not depend on resolving the client
#: object's type (``client.call(...)``, ``self.mirror.call(...)``).
_DIRECT_YIELD_ATTRS = {"call"}


class _Event:
    """One ordered occurrence inside a function body."""

    __slots__ = ("line", "col", "reads", "writes", "yields", "fences")

    def __init__(self, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self.yields = False
        self.fences = False


def _chain_parts(node: ast.AST) -> List[str]:
    """Every attribute/name identifier along an access chain."""
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return parts
        else:
            return parts


def _families_in(node: ast.AST) -> Set[str]:
    return {STATE_FAMILIES[p] for p in _chain_parts(node)
            if p in STATE_FAMILIES}


def _loaded_name(node: ast.AST) -> Optional[str]:
    """The identifier a Name/Attribute load reads, else ``None``."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    return None


def _is_direct_yield(node: ast.AST) -> bool:
    return isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DIRECT_YIELD_ATTRS)


def direct_yield_functions(graph: CallGraph) -> Set[str]:
    """Functions whose own body issues (or is) an RPC round trip."""
    return {qual for qual, fn in graph.functions.items()
            if qual.endswith("RpcClient.call")
            or any(_is_direct_yield(node) for node in fn.nodes())}


def _reader_summary(graph: CallGraph) -> Dict[str, Set[str]]:
    """Families each function reads, in its own body or any callee's
    (the re-validation a call performs)."""
    summary = {qual: {STATE_FAMILIES[name] for name in map(_loaded_name,
                                                          fn.nodes())
                      if name in STATE_FAMILIES}
               for qual, fn in graph.functions.items()}
    out = graph.out_edges()

    def grow(qual: str) -> bool:
        reads = summary[qual]
        before = len(reads)
        for callee in out.get(qual, ()):
            reads |= summary.get(callee, set())
        return len(reads) > before

    graph.fixpoint(grow)
    return summary


class _BodyScanner:
    """Builds the ordered event list for one function body."""

    def __init__(self, fn: FunctionNode, yield_fns: Set[str],
                 reader_summary: Dict[str, Set[str]],
                 callees_at: Dict[int, Set[str]]):
        self.fn = fn
        self.yield_fns = yield_fns
        self.reader_summary = reader_summary
        self.callees_at = callees_at
        self.events: List[_Event] = []

    def scan(self) -> List[_Event]:
        for node in self.fn.nodes():
            self._scan_node(node)
        self.events.sort(key=lambda e: (e.line, e.col))
        return self.events

    def _event(self, node: ast.AST) -> _Event:
        event = _Event(getattr(node, "lineno", self.fn.lineno),
                       getattr(node, "col_offset", 0))
        self.events.append(event)
        return event

    def _scan_node(self, node: ast.AST) -> None:
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
            self._event(node).yields = True
        elif isinstance(node, ast.Call):
            self._scan_call(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._scan_assign(node)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                families = _families_in(target)
                if families:
                    self._event(node).writes |= families
        elif isinstance(node, ast.Raise):
            if raised_name(node.exc) == "FencingError":
                self._event(node).fences = True
        else:
            self._scan_load(node)

    def _scan_call(self, node: ast.Call) -> None:
        event = _Event(node.lineno, node.col_offset)
        func = node.func
        terminal = terminal_name(func)
        chain_families = (_families_in(func.value)
                          if isinstance(func, ast.Attribute) else set())
        if terminal in _DIRECT_YIELD_ATTRS and isinstance(func,
                                                          ast.Attribute):
            event.yields = True
        if terminal in _MUTATORS and chain_families:
            event.writes |= chain_families
        elif chain_families:
            event.reads |= chain_families
        for callee in self.callees_at.get(node.lineno, ()):
            if callee in self.yield_fns:
                event.yields = True
            reads = self.reader_summary.get(callee)
            if reads:
                event.reads |= reads
        if event.reads or event.writes or event.yields or event.fences:
            self.events.append(event)

    def _scan_assign(self, node: ast.stmt) -> None:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        event = _Event(node.lineno, node.col_offset)
        for target in targets:
            # The outermost chain is enough.
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                event.writes |= _families_in(target)
        if isinstance(node, ast.AugAssign):
            event.reads |= event.writes  # x += 1 reads x first
        if event.writes:
            self.events.append(event)

    def _scan_load(self, node: ast.AST) -> None:
        family = STATE_FAMILIES.get(_loaded_name(node))
        if family is None:
            return
        event = self._event(node)
        event.reads.add(family)
        if family == "epochs":
            # Reading the fencing epoch (or the fenced flag) IS the
            # re-validation idiom; it fences every family.
            event.fences = True


def _in_scope(fn: FunctionNode, tails: Sequence[Tuple[str, ...]]) -> bool:
    from pathlib import Path
    parts = Path(fn.path).parts
    return any(parts[-len(tail):] == tail for tail in tails)


def check_atomicity(graph: CallGraph,
                    module_tails: Sequence[Tuple[str, ...]] =
                    ATOMICITY_MODULE_TAILS) -> List[Finding]:
    """Run ZL010 over a built call graph."""
    yield_fns = graph.reaching(sorted(direct_yield_functions(graph)))
    reader_summary = _reader_summary(graph)
    callees_at = graph.callees_at()
    findings: List[Finding] = []
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        if not _in_scope(fn, module_tails):
            continue
        events = _BodyScanner(fn, yield_fns, reader_summary,
                              callees_at.get(qual, {})).scan()
        findings.extend(_evaluate(graph, fn, events))
    findings.sort(key=lambda f: (f.path, f.line))
    return findings


def _evaluate(graph: CallGraph, fn: FunctionNode,
              events: List[_Event]) -> List[Finding]:
    last_read: Dict[str, int] = {}
    #: family → (read line, yield line) when a read is stale behind a
    #: yield point and not yet re-validated.
    pending: Dict[str, Tuple[int, int]] = {}
    reported: Set[str] = set()
    findings: List[Finding] = []
    for event in events:
        if event.fences:
            pending.clear()
        for family in event.reads:
            pending.pop(family, None)
            last_read[family] = event.line
        if event.yields:
            for family, line in last_read.items():
                pending.setdefault(family, (line, event.line))
        for family in event.writes:
            stale = pending.get(family)
            if stale is not None and family not in reported:
                read_line, yield_line = stale
                findings.append(Finding(
                    rule="ZL010", path=fn.path, line=event.line,
                    message=(f"write to {family} state depends on a read "
                             f"at line {read_line} made stale by the yield "
                             f"point at line {yield_line} (outgoing RPC); "
                             "re-read the state or check the fencing epoch "
                             "after the RPC returns"),
                    fingerprint=f"ZL010:{fn.module}:{fn.short}:{family}",
                ))
                reported.add(family)
            if stale is not None:
                pending.pop(family, None)
                last_read.pop(family, None)
    return findings
