"""The rule catalogue and the per-file and project-wide rules.

Per-file rules (ZL001/ZL002/ZL004/ZL005) are plain AST walks; the one
project-wide rule keeps the fleet-audit metrics registered (ZL007).
ZL009-ZL014 are the whole-program passes over the call graph
(:mod:`repro.lint.callgraph`); ZL011 reads the :class:`Method` verb table
through :func:`protocol_rows`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import AbstractSet, Dict, List, NamedTuple, Optional, Tuple

from repro.lint.callgraph import ModuleInfo
from repro.lint.engine import (Finding, dotted_name, expand_alias,
                               terminal_name)

RULE_DESCRIPTIONS = {
    "ZL001": "wall-clock time in library code (use Engine.now)",
    "ZL002": "module-level random instead of repro.sim.rng.DeterministicRng",
    "ZL004": "float ==/!= on a simulated timestamp",
    "ZL005": "RpcError swallowed without raise, return, or event emission",
    "ZL007": "fleet-audit metric no longer registered by its owning "
             "module",
    "ZL009": "transitive sim-purity taint: a wall-clock/global-random/"
             "urandom/unordered-iteration source reaches sim context "
             "through the call graph",
    "ZL010": "yield-point atomicity: a read of shared rack state and its "
             "dependent write straddle an outgoing RPC (or yield/await) "
             "without re-validation or a fencing check in between",
    "ZL011": "error-contract flow: a raise site escapes a protocol verb "
             "handler's boundary without being declared in the errors "
             "of the verb's Method row (or the transport-retryable family)",
    "ZL012": "dimension soundness: values carrying different physical "
             "dimensions (bytes/pages/joules/watts/seconds/...) meet in "
             "+/-/comparison, a call argument, an assignment or a return "
             "whose declared dimension disagrees",
    "ZL013": "time-domain separation: a simulated-clock timestamp "
             "(engine.now) and a wall-clock value mix in arithmetic, or "
             "a sim timestamp feeds a wall-clock API",
    "ZL014": "metric unit contract: the dimension of a value passed to "
             "inc()/set()/observe() contradicts the unit declared by the "
             "metric's name suffix (_joules_total, _watts, _bytes, ...)",
}

ALL_RULES = tuple(sorted(RULE_DESCRIPTIONS))

#: The rules that walk one file at a time, and those that run on the
#: whole-program call graph.
PER_FILE_RULES = frozenset({"ZL001", "ZL002", "ZL004", "ZL005"})
WHOLE_PROGRAM_RULES = frozenset(
    {"ZL009", "ZL010", "ZL011", "ZL012", "ZL013", "ZL014"})

#: Dotted-call suffixes that read the wall clock.  The simulation must get
#: time exclusively from ``Engine.now`` so trace replays are bit-identical.
#: ZL001 flags them where they happen, ZL009 where they reach sim context
#: and ZL013 where they meet sim time.
WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
}

#: ``random.Random(seed)`` is how DeterministicRng itself is built; every
#: other attribute of the module is the shared, unseeded global stream.
RANDOM_ALLOWED = {"Random", "SystemRandom", "getstate", "setstate"}


def impurity(dotted: str) -> Optional[str]:
    """What impure source an alias-expanded call is, if any.

    ``"wall-clock"`` (ZL001), ``"global-random"`` (ZL002) or
    ``"urandom"``; ZL009 counts all three, the per-file rules the first
    two.
    """
    for suffix in WALL_CLOCK_CALLS:
        if dotted == suffix or dotted.endswith("." + suffix):
            return "wall-clock"
    parts = dotted.split(".")
    if len(parts) == 2 and parts[0] == "random" \
            and parts[1] not in RANDOM_ALLOWED:
        return "global-random"
    if dotted == "os.urandom":
        return "urandom"
    return None

#: Identifiers that (by project convention) carry simulated timestamps.
_TIMESTAMP_EXACT = {
    "now", "time", "time_s", "timestamp", "now_s", "at_s",
    "detected_at", "recovered_at", "opened_at", "_now",
}
_TIMESTAMP_SUFFIXES = ("_time", "_time_s", "_timestamp", "_now", "_at_s")

#: The RPC failure family ZL005 watches (``errors.py`` hierarchy).
_RPC_ERROR_NAMES = {"RpcError", "RpcTimeoutError", "CircuitOpenError"}


def _is_timestamp_operand(node: ast.AST) -> bool:
    name = terminal_name(node)
    if name is None:
        return False
    return name in _TIMESTAMP_EXACT or name.endswith(_TIMESTAMP_SUFFIXES)


class _FileVisitor(ast.NodeVisitor):
    """One pass collecting ZL001/ZL002/ZL004/ZL005 findings."""

    def __init__(self, path: str, rules: AbstractSet[str],
                 aliases: Dict[str, str]):
        self.path = path
        self.rules = rules
        self.aliases = aliases
        self.findings: List[Finding] = []

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        if rule in self.rules:
            self.findings.append(
                Finding(rule, self.path, getattr(node, "lineno", 1), message)
            )

    # -- ZL001 / ZL002: calls --------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None:
            # Expand through the module's import aliases so
            # ``from time import monotonic as _mono; _mono()`` and
            # ``import random as rnd; rnd.random()`` cannot evade the
            # dotted-name match.
            expanded = expand_alias(dotted, self.aliases)
            kind = impurity(expanded)
            if kind == "wall-clock":
                self._add("ZL001", node,
                          f"wall-clock call {dotted}(); simulated code "
                          "must read Engine.now")
            elif kind == "global-random":
                self._add("ZL002", node,
                          f"module-level {expanded}(); use a seeded "
                          "repro.sim.rng.DeterministicRng")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            bad = [a.name for a in node.names if a.name not in RANDOM_ALLOWED]
            if bad:
                self._add("ZL002", node,
                          f"from random import {', '.join(bad)}; use a "
                          "seeded repro.sim.rng.DeterministicRng")
        self.generic_visit(node)

    # -- ZL004: float equality on timestamps ------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if _is_timestamp_operand(side):
                    name = terminal_name(side)
                    self._add("ZL004", node,
                              f"float equality on timestamp {name!r}; "
                              "compare with a tolerance or ordering")
                    break
        self.generic_visit(node)

    # -- ZL005: swallowed RpcError ----------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self._catches_rpc_error(node.type):
            if not self._body_handles(node.body):
                self._add("ZL005", node,
                          "RpcError caught and discarded; re-raise, return "
                          "the failure, or emit an audit event")
        self.generic_visit(node)

    @staticmethod
    def _catches_rpc_error(type_node: Optional[ast.AST]) -> bool:
        if type_node is None:
            return False
        nodes = (type_node.elts if isinstance(type_node, ast.Tuple)
                 else [type_node])
        return any(terminal_name(n) in _RPC_ERROR_NAMES for n in nodes)

    @staticmethod
    def _body_handles(body: List[ast.stmt]) -> bool:
        """The handler re-raises, returns the outcome, or emits an event."""
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Raise, ast.Return)):
                    return True
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "emit"):
                    return True
        return False


def check_file(info: ModuleInfo, rules: AbstractSet[str]) -> List[Finding]:
    """Run the enabled per-file rules over one walked module; returns raw
    (unsuppressed) findings."""
    visitor = _FileVisitor(info.path, rules, aliases=info.aliases)
    visitor.visit(info.tree)
    return visitor.findings


# -- the verb table -------------------------------------------------------------

class VerbRow(NamedTuple):
    """One ``Method`` member as written in ``core/protocol.py``."""

    member: str
    verb: str
    idempotency: str
    errors: Tuple[str, ...]
    lineno: int


def protocol_rows(trees: Dict[Path, ast.Module]
                  ) -> Tuple[Optional[Path], List[VerbRow]]:
    """The verb table of the tree's ``core/protocol.py``, read statically.

    The one parser of the ``Method`` class body: a member is a literal
    ``NAME = ("verb", "class", ("ErrorName", ...))`` row.  Returns
    ``(None, [])`` for a tree that carries no protocol module.
    """
    path = next((p for p in sorted(trees)
                 if p.parts[-2:] == ("core", "protocol.py")), None)
    if path is None:
        return None, []
    rows: List[VerbRow] = []
    for node in trees[path].body:
        if not (isinstance(node, ast.ClassDef) and node.name == "Method"):
            continue
        for stmt in node.body:
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Tuple)):
                continue
            try:
                verb, idempotency, *rest = ast.literal_eval(stmt.value)
            except ValueError:
                continue  # not a literal row
            rows.append(VerbRow(stmt.targets[0].id, verb, idempotency,
                                tuple(rest[0]) if rest else (),
                                stmt.lineno))
    return path, rows


#: The fleet-audit metric contract (ZL007): metric-name
#: literals each module must register via ``registry.gauge("...")`` /
#: ``.counter("...")`` calls.  ZomAudit's scored dimensions read these
#: series from registry snapshots, so a deleted registration silently
#: turns a graded dimension into "not measurable" — exactly the ad-hoc
#: invisibility the audit layer was built to end.
_AUDIT_METRIC_CONTRACT = (
    (("energy", "rack_monitor.py"),
     ("host_memory_bytes", "stranded_bytes",
      "zombie_pool_bytes", "zombie_pool_free_bytes")),
    (("energy", "meter.py"),
     ("host_energy_joules_total", "host_power_watts")),
    (("memory", "buffers.py"),
     ("page_store_fallback_pages", "page_store_ops_total")),
    # ZomFed: the inter-rack energy surcharge (the J/hour term placement
    # quality is graded on) and the per-rack capacity/liveness gauges.
    (("rdma", "fabric.py"),
     ("fed_cross_rack_ops_total", "fed_cross_rack_bytes_total",
      "fed_cross_rack_joules_total")),
    (("fed", "directory.py"),
     ("fed_rack_alive", "fed_rack_free_zombie_bytes")),
)


def check_audit_metric_registrations(trees: Dict[Path, ast.Module]
                                     ) -> List[Finding]:
    """ZL007: the fleet-audit metrics must stay registered.

    Statically scans each contract module for instrument-factory calls
    (``.gauge(...)``, ``.counter(...)``, ``.histogram(...)``) whose first
    argument is the required name literal.  Renaming or deleting one of
    these registrations breaks the ZomAudit dimension that reads it; the
    golden-audit self-check would catch it at runtime, but this fails at
    lint time with a pointer to the module that owns the series.
    """
    findings: List[Finding] = []
    for tail, required in _AUDIT_METRIC_CONTRACT:
        path = next((p for p in sorted(trees)
                     if p.parts[-len(tail):] == tail), None)
        if path is None:
            continue
        registered = set()
        for node in ast.walk(trees[path]):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("gauge", "counter", "histogram")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                registered.add(node.args[0].value)
        for name in required:
            if name not in registered:
                findings.append(Finding(
                    "ZL007", str(path), 1,
                    f"fleet-audit metric {name!r} is no longer registered "
                    "in this module; the ZomAudit dimensions that read it "
                    "would silently go unmeasurable"
                ))
    return findings
