"""ZomDim: interprocedural dimensional analysis (ZL012/ZL013/ZL014).

Zombieland's headline numbers are physical quantities — joules, watts,
zPUE, kJ per served GiB-hour — and ``repro.units`` documents the
conventions every ``float`` in the tree is supposed to follow.  This
module *enforces* them over the whole-program call graph:

- **ZL012 dimension soundness** — a dimension lattice (bytes, pages,
  frames, GiB, joules, kWh, watts, seconds, fractions, dollars) is
  inferred for locals, parameters, returns and attributes from the
  declarative tables in ``repro.units`` (:data:`UNIT_DIMENSIONS`,
  :data:`UNIT_CONVERSIONS`), naming conventions (``*_bytes``,
  ``power_watts=``, …) and the :data:`SEED_ANNOTATIONS` below, then
  propagated interprocedurally.  Mixed-dimension ``+``/``-``/comparison,
  mismatched call arguments and returns that contradict the function's
  declared dimension are findings, with the full inference chain naming
  source and sink in the message.
- **ZL013 time-domain separation** — simulated seconds (``engine.now``)
  and wall-clock seconds (``time.time()`` et al.) are *distinct
  sub-dimensions* of seconds: a sim timestamp can never feed a
  wall-clock API (``time.sleep``, ``fromtimestamp``) and the two can
  never meet in arithmetic.  This extends ZL009's purity taint into a
  two-domain type check.
- **ZL014 metric unit contracts** — a metric's name suffix
  (``_joules_total``, ``_watts``, ``_bytes``, ``_seconds``) declares the
  dimension of every value passed to ``inc()``/``set()``/``observe()``;
  the pass statically pins each such call against the contract
  (:data:`repro.units.METRIC_UNIT_SUFFIXES` — the same table the
  Prometheus exporter derives ``# UNIT`` metadata from).

The inference is deliberately conservative: a conflict is only reported
when *both* sides have a known dimension, so unannotated code stays
silent rather than noisy.  Where correct code is unprovable, add a seed
annotation here (or rename to the convention) instead of suppressing.

Like every other ZomLint rule, any unsuppressed finding fails the run.
See ``docs/FLOWCHECK.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro import units as _units
from repro.lint.callgraph import (AttrSite, CallGraph, FunctionNode,
                                  _FALLBACK_BLOCKLIST)
from repro.lint.engine import Finding, dotted_name, expand_alias
from repro.lint.rules import WALL_CLOCK_CALLS

#: A known dimension is carried as ``(dim, why)`` — the ``why`` string is
#: the inference provenance that ends up in the finding message.
Dim = Tuple[str, str]

#: Sub-dimension → parent: a child is usable wherever the parent is
#: expected (frames are page-granular counts; sim/wall seconds are both
#: seconds), but two *different* children never mix.
DIM_PARENTS: Dict[str, str] = {
    "sim-seconds": "seconds",
    "wall-seconds": "seconds",
    "frames": "pages",
}

TIME_DOMAINS = ("sim-seconds", "wall-seconds")

#: Name-suffix conventions (matched case-insensitively, against locals,
#: parameters, attributes, keywords and function names).  Names with a
#: ``_per_`` component are rates, not plain dimensions, and stay unknown.
NAME_SUFFIX_DIMS: Dict[str, str] = {
    "_bytes": "bytes",
    "_pages": "pages",
    "_frames": "frames",
    "_gib": "gib",
    "_joules": "joules",
    "_kwh": "kwh",
    "_watts": "watts",
    "_power": "watts",
    "_seconds": "seconds",
    "_s": "seconds",
    "_time": "seconds",
    "_fraction": "fraction",
    "_frac": "fraction",
    "_pct": "fraction",
    "_usd": "dollars",
    "_dollars": "dollars",
}

#: Exact-name conventions (lowercased).  ``now`` is always the simulated
#: clock in this tree — wall clocks are banned from sim code by ZL001/ZL009.
EXACT_NAME_DIMS: Dict[str, str] = {
    "joules": "joules",
    "watts": "watts",
    "kwh": "kwh",
    "now": "sim-seconds",
    "fraction": "fraction",
    "pages": "pages",
    "frames": "frames",
    "seconds": "seconds",
}

#: Dividing by one of these named constants is a recognized unit
#: conversion: ``x / GiB`` yields GiB, ``x // PAGE_SIZE`` yields pages,
#: ``x / KILOWATT_HOUR`` yields kWh.  The numerator must carry the
#: constant's own dimension.
DIVISOR_TARGETS: Dict[str, Optional[str]] = {
    "GiB": "gib",
    "PAGE_SIZE": "pages",
    "KILOWATT_HOUR": "kwh",
}

#: Wall-clock *sink* APIs: their first argument is a wall-clock
#: timestamp/duration, so a sim-seconds value flowing in is a ZL013.
WALL_SINK_CALLS = {
    "time.sleep",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.fromtimestamp",
    "datetime.datetime.fromtimestamp",
}

#: Seed annotations on core APIs, keyed by a suffix of the function's
#: qualified name; values map parameter names (and ``"return"``) to
#: dimensions.  These are the axioms of the analysis: keep the list
#: small and obviously true.
SEED_ANNOTATIONS: Dict[str, Dict[str, str]] = {
    "sim.engine.Engine.__init__": {"start_time": "sim-seconds"},
    "sim.engine.Engine.now": {"return": "sim-seconds"},
    "sim.engine.Engine.schedule": {"delay": "seconds"},
    "sim.engine.Engine.run": {"until": "sim-seconds"},
    "energy.meter.EnergyMeter.__init__": {"start_time": "sim-seconds",
                                          "power_watts": "watts"},
    "energy.meter.EnergyMeter.set_power": {"now": "sim-seconds",
                                           "power_watts": "watts"},
    "energy.meter.EnergyMeter.advance": {"now": "sim-seconds"},
    "energy.meter.EnergyMeter.accumulate": {"power_watts": "watts",
                                            "duration_s": "seconds"},
    "energy.meter.EnergyMeter.joules": {"return": "joules"},
    "energy.meter.EnergyMeter.power_watts": {"return": "watts"},
    "energy.meter.EnergyMeter.kwh": {"return": "kwh"},
    "energy.model.estimate_sz_fraction": {"return": "fraction"},
    "energy.model.server_power_fraction": {"utilization": "fraction",
                                           "return": "fraction"},
    "energy.model.server_power_watts": {"utilization": "fraction",
                                        "return": "watts"},
    "energy.profiles.MachineProfile.fraction": {"return": "fraction"},
    "energy.profiles.MachineProfile.watts": {"return": "watts"},
    "dc.energy_sim._slot_power": {"return": "watts"},
    "memory.frames.FrameAllocator.__init__": {"total_frames": "frames"},
    "memory.frames.FrameAllocator.free_frames": {"return": "frames"},
    "memory.frames.FrameAllocator.used_frames": {"return": "frames"},
    "memory.frames.FrameAllocator.alloc_many": {"count": "frames"},
    "memory.frames.FrameRun.__len__": {"return": "frames"},
    "memory.buffers.BufferLease.slots": {"return": "pages"},
}

#: Attribute names with a fixed dimension wherever they appear.
EXACT_ATTR_DIMS: Dict[str, str] = {"now": "sim-seconds"}

#: Instrument-creating registry methods and value-feeding sinks.
_METRIC_CREATORS = {"counter", "gauge", "histogram"}
_METRIC_SINKS = {"inc", "dec", "set", "observe"}

_NUMERIC = (int, float)


# -- lattice -----------------------------------------------------------------

def _ancestors(dim: str) -> Tuple[str, ...]:
    chain = [dim]
    while chain[-1] in DIM_PARENTS:
        chain.append(DIM_PARENTS[chain[-1]])
    return tuple(chain)


def compatible(a: str, b: str) -> bool:
    """True when one dimension refines the other (or they are equal)."""
    return a in _ancestors(b) or b in _ancestors(a)


def meet(a: str, b: str) -> Optional[str]:
    """The more specific of two compatible dimensions (else ``None``)."""
    if a in _ancestors(b):
        return b
    if b in _ancestors(a):
        return a
    return None


def name_dim(name: str) -> Optional[str]:
    """Dimension a bare name declares by convention (or ``None``)."""
    low = name.lower()
    if "_per_" in low or low.endswith("_per"):
        return None
    if low.endswith("_total"):
        low = low[:-len("_total")]
    if low in EXACT_NAME_DIMS:
        return EXACT_NAME_DIMS[low]
    for suffix in sorted(NAME_SUFFIX_DIMS, key=len, reverse=True):
        if low.endswith(suffix):
            return NAME_SUFFIX_DIMS[suffix]
    return None


def _agree(dims: List[Dim]) -> Optional[Dim]:
    """The meet of known dimensions, with the first one's provenance
    (``None`` when there are none or two conflict)."""
    agreed = dims[0] if dims else None
    for dim in dims[1:]:
        met = meet(agreed[0], dim[0])
        if met is None:
            return None
        agreed = (met, agreed[1])
    return agreed


def _rule_for(a: str, b: str) -> str:
    """ZL013 when the conflict is exactly sim-time vs wall-time."""
    if a in TIME_DOMAINS and b in TIME_DOMAINS and a != b:
        return "ZL013"
    return "ZL012"


# -- declarative tables (overridable by the analyzed tree's units.py) --------

@dataclass
class UnitTables:
    constants: Dict[str, str]
    conversions: Dict[str, Tuple[Tuple[Optional[str], ...], Optional[str]]]
    metric_suffixes: Dict[str, str]

    def metric_dim(self, metric: str) -> Optional[str]:
        for suffix in sorted(self.metric_suffixes, key=len, reverse=True):
            if metric.endswith(suffix):
                return self.metric_suffixes[suffix]
        return None


def _default_tables() -> UnitTables:
    return UnitTables(
        constants=dict(_units.UNIT_DIMENSIONS),
        conversions={k: (tuple(p), r)
                     for k, (p, r) in _units.UNIT_CONVERSIONS.items()},
        metric_suffixes=dict(_units.METRIC_UNIT_SUFFIXES),
    )


def load_unit_tables(trees: Dict[Path, ast.Module]) -> UnitTables:
    """The built-in tables, overlaid with any ``units.py`` in the tree.

    A fixture tree (or a future split package) may declare its own
    ``UNIT_DIMENSIONS`` / ``UNIT_CONVERSIONS`` / ``METRIC_UNIT_SUFFIXES``
    literals; they extend the defaults entry-by-entry.
    """
    tables = _default_tables()
    for path in sorted(trees):
        if path.name != "units.py":
            continue
        for node in trees[path].body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            target = node.targets[0].id
            if target not in ("UNIT_DIMENSIONS", "UNIT_CONVERSIONS",
                              "METRIC_UNIT_SUFFIXES"):
                continue
            try:
                value = ast.literal_eval(node.value)
            except (ValueError, SyntaxError):
                continue
            if not isinstance(value, dict):
                continue
            if target == "UNIT_DIMENSIONS":
                tables.constants.update(value)
            elif target == "METRIC_UNIT_SUFFIXES":
                tables.metric_suffixes.update(value)
            else:
                for fn_name, sig in value.items():
                    try:
                        params, ret = sig
                        tables.conversions[fn_name] = (tuple(params), ret)
                    except (TypeError, ValueError):
                        continue
    return tables


def seed_for(qual: str) -> Dict[str, str]:
    for key, table in SEED_ANNOTATIONS.items():
        if qual == key or qual.endswith("." + key):
            return table
    return {}


# -- the analysis ------------------------------------------------------------

@dataclass
class _Ctx:
    """Per-function inference state."""

    fn: FunctionNode
    aliases: Dict[str, str]
    env: Dict[str, Dim] = field(default_factory=dict)
    #: local name → metric name, for instruments stored in locals.
    metric_locals: Dict[str, str] = field(default_factory=dict)
    emit: bool = False
    return_dims: List[Dim] = field(default_factory=list)


class _DimAnalysis:
    def __init__(self, graph: CallGraph, tables: UnitTables):
        self.graph = graph
        self.tables = tables
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, int]] = set()
        #: qual → (dim, why); declared entries double as return contracts.
        self.returns: Dict[str, Dim] = {}
        self.declared: Set[str] = set()
        #: (class qual, attr) → dim; ``None`` tombstones a conflict.
        self.attr_dims: Dict[Tuple[str, str], Optional[Dim]] = {}
        #: (class qual, attr) → metric name for instrument attributes.
        self.attr_metrics: Dict[Tuple[str, str], str] = {}

    # -- driver --------------------------------------------------------------
    def run(self) -> List[Finding]:
        self._seed_return_contracts()
        self._collect_attributes()
        for _ in range(2):  # interprocedural return-dim fixpoint
            for fn in self.graph.functions.values():
                self._infer_function(fn, emit=False)
        for fn in self.graph.functions.values():
            self._infer_function(fn, emit=True)
        self._check_module_level()
        return self.findings

    def _seed_return_contracts(self) -> None:
        for qual, fn in self.graph.functions.items():
            seed = seed_for(qual)
            short_name = qual.rsplit(".", 1)[-1]
            conv = self._conversion_for(qual)
            if "return" in seed:
                self.returns[qual] = (seed["return"],
                                      f"return of {fn.short} [seed]")
                self.declared.add(qual)
            elif conv is not None and conv[1] is not None:
                self.returns[qual] = (conv[1],
                                      f"return of units.{short_name}()")
                self.declared.add(qual)
            else:
                dim = name_dim(short_name)
                if dim is not None:
                    self.returns[qual] = (
                        dim, f"return of {fn.short} [name convention]")
                    self.declared.add(qual)

    def _conversion_for(self, qual: str
                        ) -> Optional[Tuple[Tuple[Optional[str], ...],
                                            Optional[str]]]:
        module, _, short_name = qual.rpartition(".")
        if module.rsplit(".", 1)[-1] != "units":
            return None
        return self.tables.conversions.get(short_name)

    def _collect_attributes(self) -> None:
        """Attribute dims from name rules and ``self.X = expr`` sites,
        each read in every method (or def nested in one) around it."""
        sites: Dict[int, List[AttrSite]] = {}
        for site in self.graph.attr_sites:
            for owner in site.owners:
                sites.setdefault(id(owner), []).append(site)
        for fn in self.graph.functions.values():
            if fn.class_name is None:
                continue
            class_qual = f"{fn.module}.{fn.class_name}"
            ctx = self._fresh_ctx(fn)
            for site in sites.get(id(fn), ()):
                metric = self._creator_metric(site.value)
                if metric is not None:
                    self.attr_metrics[(class_qual, site.attr)] = metric
                    continue
                if name_dim(site.attr) is not None:
                    continue  # the name rule wins; nothing to record
                dim = self._dim(site.value, ctx)
                key = (class_qual, site.attr)
                if dim is None:
                    continue
                prior = self.attr_dims.get(key)
                if key in self.attr_dims and prior is None:
                    continue  # tombstoned
                if prior is not None and not compatible(prior[0], dim[0]):
                    self.attr_dims[key] = None
                else:
                    self.attr_dims[key] = (
                        dim[0], f"attribute '{site.attr}' ({dim[1]})")

    def _check_module_level(self) -> None:
        """Constant definitions like ``X_BYTES = 128 * GiB`` get checked
        too — a synthetic per-module pass over top-level statements."""
        for info in self.graph.modules.values():
            fn = FunctionNode(qual=f"{info.name}.<module>",
                              module=info.name, path=info.path, lineno=1,
                              node=info.tree, class_name=None)
            ctx = _Ctx(fn=fn, aliases=info.aliases, emit=True)
            for stmt in info.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                self._stmt(stmt, ctx)

    # -- per-function walk ---------------------------------------------------
    def _fresh_ctx(self, fn: FunctionNode, emit: bool = False) -> _Ctx:
        info = self.graph.modules.get(fn.module)
        ctx = _Ctx(fn=fn, aliases=info.aliases if info else {}, emit=emit)
        args = getattr(fn.node, "args", None)
        if args is not None:
            params = [a.arg for a in
                      list(getattr(args, "posonlyargs", [])) + args.args]
            positional = [p for p in params if p != "self"]
            for name in params + [a.arg for a in args.kwonlyargs]:
                if name == "self":
                    continue
                index = positional.index(name) if name in positional \
                    else None
                dim = self._param_dim(fn, name, index)
                if dim is not None:
                    ctx.env[name] = dim
        return ctx

    def _param_dim(self, fn: FunctionNode, name: str,
                   index: Optional[int]) -> Optional[Dim]:
        """A parameter's dimension: its seed, else its units-helper
        signature slot (by position), else its name convention."""
        seed = seed_for(fn.qual)
        if name in seed:
            return (seed[name], f"parameter '{name}' of {fn.short} [seed]")
        conv = self._conversion_for(fn.qual)
        if conv is not None and index is not None \
                and index < len(conv[0]) and conv[0][index] is not None:
            return (conv[0][index],
                    f"parameter '{name}' of units.{fn.short}()")
        dim = name_dim(name)
        if dim is not None:
            return (dim, f"parameter '{name}' of {fn.short} [name]")
        return None

    def _infer_function(self, fn: FunctionNode, emit: bool) -> None:
        ctx = self._fresh_ctx(fn, emit=emit)
        for stmt in getattr(fn.node, "body", []):
            self._stmt(stmt, ctx)
        if fn.qual not in self.declared:
            agreed = _agree(ctx.return_dims)
            if agreed is not None:
                self.returns[fn.qual] = (
                    agreed[0], f"return of {fn.short} ({agreed[1]})")

    def _stmt(self, stmt: ast.stmt, ctx: _Ctx) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value, stmt, ctx)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign([stmt.target], stmt.value, stmt, ctx)
        elif isinstance(stmt, ast.AugAssign):
            self._aug_assign(stmt, ctx)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                dim = self._dim(stmt.value, ctx)
                if dim is not None:
                    ctx.return_dims.append(dim)
                    self._check_return(stmt, dim, ctx)
        elif isinstance(stmt, ast.Expr):
            self._dim(stmt.value, ctx)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._dim(stmt.test, ctx)
            for s in stmt.body + stmt.orelse:
                self._stmt(s, ctx)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._dim(stmt.iter, ctx)
            for s in stmt.body + stmt.orelse:
                self._stmt(s, ctx)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._dim(item.context_expr, ctx)
            for s in stmt.body:
                self._stmt(s, ctx)
        elif isinstance(stmt, ast.Try):
            for s in stmt.body + stmt.orelse + stmt.finalbody:
                self._stmt(s, ctx)
            for handler in stmt.handlers:
                for s in handler.body:
                    self._stmt(s, ctx)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._dim(stmt.exc, ctx)
        elif isinstance(stmt, ast.Assert):
            self._dim(stmt.test, ctx)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._dim(target, ctx)

    def _assign(self, targets: List[ast.expr], value: ast.expr,
                stmt: ast.stmt, ctx: _Ctx) -> None:
        metric = self._creator_metric(value)
        if metric is not None and len(targets) == 1 \
                and isinstance(targets[0], ast.Name):
            ctx.metric_locals[targets[0].id] = metric
        dim = self._dim(value, ctx)
        for target in targets:
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) \
                    and len(target.elts) == len(value.elts):
                for t, v in zip(target.elts, value.elts):
                    self._assign([t], v, stmt, ctx)
                continue
            declared = self._target_dim(target, ctx)
            if declared is not None and dim is not None \
                    and not compatible(declared[0], dim[0]):
                self._report(
                    _rule_for(declared[0], dim[0]), stmt, ctx,
                    kind=f"assign:{declared[0]}:{dim[0]}",
                    message=(f"{dim[0]} value assigned to {declared[0]} "
                             f"target — target: {declared[1]}; "
                             f"value: {dim[1]}"))
            if isinstance(target, ast.Name):
                if dim is not None:
                    ctx.env[target.id] = dim
                elif declared is not None:
                    ctx.env[target.id] = declared

    def _target_dim(self, target: ast.expr, ctx: _Ctx) -> Optional[Dim]:
        """The dimension a bare assignment target *declares* (name/attr
        conventions and seeds only — never the previous binding)."""
        if isinstance(target, ast.Name):
            dim = name_dim(target.id)
            if dim is not None:
                return (dim, f"name '{target.id}' [convention]")
            return None
        if isinstance(target, ast.Attribute):
            return self._attr_dim(target, ctx, declare_only=True)
        return None

    def _aug_assign(self, stmt: ast.AugAssign, ctx: _Ctx) -> None:
        target = self._target_dim(stmt.target, ctx)
        if target is None and isinstance(stmt.target, ast.Name):
            target = ctx.env.get(stmt.target.id)
        value = self._dim(stmt.value, ctx)
        if target is None or value is None:
            return
        if isinstance(stmt.op, (ast.Add, ast.Sub)):
            if not compatible(target[0], value[0]):
                self._report(
                    _rule_for(target[0], value[0]), stmt, ctx,
                    kind=f"aug:{target[0]}:{value[0]}",
                    message=(f"{value[0]} value folded into {target[0]} "
                             f"accumulator with "
                             f"{'+=' if isinstance(stmt.op, ast.Add) else '-='}"
                             f" — target: {target[1]}; value: {value[1]}"))

    def _check_return(self, stmt: ast.Return, dim: Dim, ctx: _Ctx) -> None:
        qual = ctx.fn.qual
        if qual not in self.declared:
            return
        declared = self.returns.get(qual)
        if declared is not None and not compatible(declared[0], dim[0]):
            self._report(
                _rule_for(declared[0], dim[0]), stmt, ctx,
                kind=f"return:{declared[0]}:{dim[0]}",
                message=(f"returns {dim[0]} but declares {declared[0]} — "
                         f"declared: {declared[1]}; value: {dim[1]}"))

    # -- expression inference ------------------------------------------------
    def _dim(self, expr: ast.expr, ctx: _Ctx) -> Optional[Dim]:
        if isinstance(expr, ast.Name):
            bound = ctx.env.get(expr.id)
            if bound is not None:
                return bound
            const = self.tables.constants.get(expr.id)
            if const is not None:
                return (const, f"constant {expr.id} [units table]")
            dim = name_dim(expr.id)
            if dim is not None:
                return (dim, f"name '{expr.id}' [convention]")
            return None
        if isinstance(expr, ast.Attribute):
            self._dim(expr.value, ctx)
            return self._attr_dim(expr, ctx)
        if isinstance(expr, ast.Call):
            return self._call(expr, ctx)
        if isinstance(expr, ast.BinOp):
            return self._binop(expr, ctx)
        if isinstance(expr, ast.UnaryOp):
            return self._dim(expr.operand, ctx)
        if isinstance(expr, ast.Compare):
            return self._compare(expr, ctx)
        if isinstance(expr, ast.BoolOp):
            dims = [self._dim(v, ctx) for v in expr.values]
            known = [d for d in dims if d is not None]
            return known[0] if known else None
        if isinstance(expr, ast.IfExp):
            self._dim(expr.test, ctx)
            body = self._dim(expr.body, ctx)
            orelse = self._dim(expr.orelse, ctx)
            if body is not None and orelse is not None:
                met = meet(body[0], orelse[0])
                return (met, body[1]) if met is not None else None
            return body or orelse
        if isinstance(expr, ast.NamedExpr):
            dim = self._dim(expr.value, ctx)
            if isinstance(expr.target, ast.Name) and dim is not None:
                ctx.env[expr.target.id] = dim
            return dim
        if isinstance(expr, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            for gen in expr.generators:
                self._dim(gen.iter, ctx)
                for cond in gen.ifs:
                    self._dim(cond, ctx)
            return self._dim(expr.elt, ctx)
        if isinstance(expr, ast.DictComp):
            for gen in expr.generators:
                self._dim(gen.iter, ctx)
            self._dim(expr.key, ctx)
            self._dim(expr.value, ctx)
            return None
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for elt in expr.elts:
                self._dim(elt, ctx)
            return None
        if isinstance(expr, ast.Dict):
            for key in expr.keys:
                if key is not None:
                    self._dim(key, ctx)
            for value in expr.values:
                self._dim(value, ctx)
            return None
        if isinstance(expr, ast.Subscript):
            self._dim(expr.value, ctx)
            if not isinstance(expr.slice, ast.Slice):
                self._dim(expr.slice, ctx)
            return None
        if isinstance(expr, ast.JoinedStr):
            for value in expr.values:
                if isinstance(value, ast.FormattedValue):
                    self._dim(value.value, ctx)
            return None
        if isinstance(expr, ast.Starred):
            self._dim(expr.value, ctx)
            return None
        return None

    def _attr_dim(self, expr: ast.Attribute, ctx: _Ctx,
                  declare_only: bool = False) -> Optional[Dim]:
        attr = expr.attr
        if attr in EXACT_ATTR_DIMS:
            return (EXACT_ATTR_DIMS[attr], f"attribute '.{attr}'")
        dim = name_dim(attr)
        if dim is not None:
            return (dim, f"attribute '.{attr}' [convention]")
        key = ctx.fn.self_attr(expr)
        return self.attr_dims.get(key) if key is not None else None

    def _binop(self, expr: ast.BinOp, ctx: _Ctx) -> Optional[Dim]:
        left = self._dim(expr.left, ctx)
        right = self._dim(expr.right, ctx)
        op = expr.op
        if isinstance(op, (ast.Add, ast.Sub)):
            if left is not None and right is not None:
                met = meet(left[0], right[0])
                if met is None:
                    sym = "+" if isinstance(op, ast.Add) else "-"
                    a, b = sorted((left[0], right[0]))
                    self._report(
                        _rule_for(left[0], right[0]), expr, ctx,
                        kind=f"mix:{a}:{b}",
                        message=(f"mixed dimensions: {left[0]} {sym} "
                                 f"{right[0]} — left: {left[1]}; "
                                 f"right: {right[1]}"))
                    return None
                return (met, left[1])
            return left or right
        if isinstance(op, ast.Mult):
            scaled = self._literal_scaled(expr, left, right)
            if scaled is not None:
                return scaled
            if left is None or right is None:
                return None
            combos = {(left[0], right[0]), (right[0], left[0])}
            for l_dim, r_dim in combos:
                if l_dim == "watts" and "seconds" in _ancestors(r_dim):
                    return ("joules", f"{left[1]} * {right[1]}")
                if "pages" in _ancestors(l_dim) and r_dim == "bytes":
                    return ("bytes", f"{left[1]} * {right[1]}")
            if left[0] == "fraction":
                return (right[0], right[1])
            if right[0] == "fraction":
                return (left[0], left[1])
            return None
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            const = self._constant_name(expr.right, ctx)
            if const is not None and const in self.tables.constants:
                const_dim = self.tables.constants[const]
                if left is not None \
                        and not compatible(left[0], const_dim):
                    self._report(
                        _rule_for(left[0], const_dim), expr, ctx,
                        kind=f"div:{left[0]}:{const}",
                        message=(f"{left[0]} value divided by {const_dim} "
                                 f"constant {const} — numerator: "
                                 f"{left[1]}"))
                    return None
                target = DIVISOR_TARGETS.get(const)
                if target is not None:
                    return (target, f"conversion /{const}")
                return None
            if isinstance(expr.right, ast.Constant) \
                    and isinstance(expr.right.value, _NUMERIC):
                return left
            if left is None or right is None:
                return None
            if left[0] == "joules" and "seconds" in _ancestors(right[0]):
                return ("watts", f"{left[1]} / {right[1]}")
            if left[0] == "joules" and right[0] == "watts":
                return ("seconds", f"{left[1]} / {right[1]}")
            if meet(left[0], right[0]) is not None:
                return ("fraction", f"{left[1]} / {right[1]}")
            return None
        return None

    @staticmethod
    def _literal_scaled(expr: ast.BinOp, left: Optional[Dim],
                        right: Optional[Dim]) -> Optional[Dim]:
        """``x * 4`` keeps x's dimension (magnitude is not dimension)."""
        if isinstance(expr.right, ast.Constant) \
                and isinstance(expr.right.value, _NUMERIC):
            return left
        if isinstance(expr.left, ast.Constant) \
                and isinstance(expr.left.value, _NUMERIC):
            return right
        return None

    def _compare(self, expr: ast.Compare, ctx: _Ctx) -> None:
        operands = [expr.left] + list(expr.comparators)
        dims = [self._dim(o, ctx) for o in operands]
        for op, left, right in zip(expr.ops, dims, dims[1:]):
            if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                                   ast.Eq, ast.NotEq)):
                continue
            if left is None or right is None:
                continue
            if not compatible(left[0], right[0]):
                a, b = sorted((left[0], right[0]))
                self._report(
                    _rule_for(left[0], right[0]), expr, ctx,
                    kind=f"cmp:{a}:{b}",
                    message=(f"comparison of {left[0]} against {right[0]}"
                             f" — left: {left[1]}; right: {right[1]}"))
        return None

    def _constant_name(self, expr: ast.expr, ctx: _Ctx) -> Optional[str]:
        """Bare name of a units constant (``GiB``, ``units.GiB``)."""
        if isinstance(expr, ast.Name):
            return expr.id if expr.id in self.tables.constants else None
        if isinstance(expr, ast.Attribute):
            dotted = dotted_name(expr)
            if dotted is None:
                return None
            expanded = expand_alias(dotted, ctx.aliases)
            module, _, tail = expanded.rpartition(".")
            if tail in self.tables.constants \
                    and module.rsplit(".", 1)[-1] == "units":
                return tail
        return None

    # -- calls ---------------------------------------------------------------
    def _call(self, expr: ast.Call, ctx: _Ctx) -> Optional[Dim]:
        arg_dims = [self._dim(a, ctx) for a in expr.args]
        kw_dims = [(kw.arg, self._dim(kw.value, ctx))
                   for kw in expr.keywords]
        self._check_metric_sink(expr, arg_dims, ctx)
        dotted = dotted_name(expr.func)
        expanded = expand_alias(dotted, ctx.aliases) if dotted else None
        if expanded in WALL_CLOCK_CALLS:
            return ("wall-seconds", f"wall-clock {expanded}()")
        if expanded in WALL_SINK_CALLS and arg_dims and arg_dims[0] \
                and arg_dims[0][0] == "sim-seconds":
            self._report(
                "ZL013", expr, ctx, kind=f"sink:{expanded}",
                message=(f"sim-seconds value passed to wall-clock API "
                         f"{expanded}() — value: {arg_dims[0][1]}; "
                         f"sim timestamps never leave the engine"))
        builtin = self._builtin_dim(expr, dotted, arg_dims, ctx)
        if builtin is not None:
            return builtin
        qual = self._resolve_callee(expr, dotted, expanded, ctx)
        if qual is not None:
            self._check_args(expr, qual, arg_dims, kw_dims, ctx)
            return self.returns.get(qual)
        # Unresolved conversion-helper call (fixture trees without the
        # units module in-tree): apply the declarative signature.
        if expanded is not None:
            module, _, tail = expanded.rpartition(".")
            if module.rsplit(".", 1)[-1] == "units" \
                    and tail in self.tables.conversions:
                params, ret = self.tables.conversions[tail]
                for i, dim in enumerate(arg_dims):
                    if dim is None or i >= len(params) or params[i] is None:
                        continue
                    if not compatible(dim[0], params[i]):
                        self._report(
                            _rule_for(params[i], dim[0]), expr, ctx,
                            kind=f"arg:units.{tail}:{i}:{params[i]}:{dim[0]}",
                            message=(f"{dim[0]} argument to units.{tail}() "
                                     f"which expects {params[i]} — "
                                     f"value: {dim[1]}"))
                if ret is not None:
                    return (ret, f"return of units.{tail}()")
        # Metric reads: inputs.value("dc_energy_joules_total", ...).
        terminal = expr.func.attr if isinstance(expr.func, ast.Attribute) \
            else None
        if terminal == "value" and expr.args \
                and isinstance(expr.args[0], ast.Constant) \
                and isinstance(expr.args[0].value, str):
            metric = expr.args[0].value
            dim = self.tables.metric_dim(metric)
            if dim is not None:
                return (dim, f"metric '{metric}' [suffix contract]")
        # Unresolved keyword arguments still honor name conventions.
        self._check_keyword_conventions(expr, kw_dims, ctx)
        return None

    def _builtin_dim(self, expr: ast.Call, dotted: Optional[str],
                     arg_dims: List[Optional[Dim]],
                     ctx: _Ctx) -> Optional[Dim]:
        if dotted in ("float", "int", "abs", "round") \
                and len(arg_dims) >= 1:
            return arg_dims[0]
        if dotted in ("min", "max", "sum"):
            return _agree([d for d in arg_dims if d is not None])
        return None

    def _resolve_callee(self, expr: ast.Call, dotted: Optional[str],
                        expanded: Optional[str],
                        ctx: _Ctx) -> Optional[str]:
        if dotted is None:
            # The call target is itself an expression (subscripts like
            # ``self.meters[name].set_power(...)``): fall back to a
            # unique method name.
            if isinstance(expr.func, ast.Attribute):
                return self._unique_method(expr.func.attr)
            return None
        if expanded in self.graph.functions:
            return expanded
        parts = dotted.split(".")
        fn = ctx.fn
        if len(parts) == 1:
            for candidate in (f"{fn.qual}.{parts[0]}",
                              f"{fn.module}.{parts[0]}"):
                if candidate in self.graph.functions:
                    return candidate
            # A constructor call: check the __init__ if we know the class.
            info = self.graph.modules.get(fn.module)
            if info is not None:
                cls = info.classes.get(parts[0])
                if cls is None:
                    alias = expand_alias(parts[0], info.aliases)
                    if f"{alias}.__init__" in self.graph.functions:
                        cls = alias
                if cls is not None \
                        and f"{cls}.__init__" in self.graph.functions:
                    return f"{cls}.__init__"
            return None
        if parts[0] == "self" and fn.class_name is not None \
                and len(parts) == 2:
            candidate = f"{fn.module}.{fn.class_name}.{parts[1]}"
            if candidate in self.graph.functions:
                return candidate
        if len(parts) == 2:
            head = expand_alias(parts[0], ctx.aliases)
            candidate = f"{head}.{parts[1]}"
            if candidate in self.graph.functions:
                return candidate
        return self._unique_method(parts[-1])

    def _unique_method(self, name: str) -> Optional[str]:
        if name in _FALLBACK_BLOCKLIST:
            return None
        matches = self.graph.methods_named.get(name, [])
        return matches[0] if len(matches) == 1 else None

    def _check_args(self, expr: ast.Call, qual: str,
                    arg_dims: List[Optional[Dim]],
                    kw_dims: List[Tuple[Optional[str], Optional[Dim]]],
                    ctx: _Ctx) -> None:
        callee = self.graph.functions[qual]
        args = getattr(callee.node, "args", None)
        if args is None:
            return
        params = [a.arg for a in
                  list(getattr(args, "posonlyargs", [])) + args.args]
        if callee.class_name is not None and params \
                and params[0] == "self":
            params = params[1:]
        kwonly = {a.arg for a in args.kwonlyargs}
        bound = [(params[i], i, dim) for i, dim in enumerate(arg_dims)
                 if dim is not None and i < len(params)]
        bound += [(name, params.index(name) if name in params else None, dim)
                  for name, dim in kw_dims
                  if name is not None and dim is not None
                  and (name in params or name in kwonly)]
        for name, index, dim in bound:
            expected = self._param_dim(callee, name, index)
            if expected is not None \
                    and not compatible(expected[0], dim[0]):
                self._report(
                    _rule_for(expected[0], dim[0]), expr, ctx,
                    kind=(f"arg:{callee.short}.{name}:"
                          f"{expected[0]}:{dim[0]}"),
                    message=(f"{dim[0]} argument for {expected[0]} "
                             f"parameter — argument: {dim[1]}; "
                             f"expects: {expected[1]}"))

    def _check_keyword_conventions(
            self, expr: ast.Call,
            kw_dims: List[Tuple[Optional[str], Optional[Dim]]],
            ctx: _Ctx) -> None:
        """Keyword names carry conventions even when the callee is
        unknown (dataclass constructors like ``HostSample(...)``)."""
        for kw_name, dim in kw_dims:
            if kw_name is None or dim is None:
                continue
            expected = name_dim(kw_name)
            if expected is not None and not compatible(expected, dim[0]):
                self._report(
                    _rule_for(expected, dim[0]), expr, ctx,
                    kind=f"kwarg:{kw_name}:{expected}:{dim[0]}",
                    message=(f"{dim[0]} value passed as keyword "
                             f"'{kw_name}=' which declares {expected} "
                             f"by convention — value: {dim[1]}"))

    # -- metric contracts (ZL014) -------------------------------------------
    def _creator_metric(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Call) \
                and isinstance(expr.func, ast.Attribute) \
                and expr.func.attr in _METRIC_CREATORS \
                and expr.args \
                and isinstance(expr.args[0], ast.Constant) \
                and isinstance(expr.args[0].value, str):
            return expr.args[0].value
        return None

    def _metric_of(self, receiver: ast.expr, ctx: _Ctx) -> Optional[str]:
        metric = self._creator_metric(receiver)
        if metric is not None:
            return metric
        if isinstance(receiver, ast.Name):
            return ctx.metric_locals.get(receiver.id)
        key = ctx.fn.self_attr(receiver)
        return self.attr_metrics.get(key) if key is not None else None

    def _check_metric_sink(self, expr: ast.Call,
                           arg_dims: List[Optional[Dim]],
                           ctx: _Ctx) -> None:
        if not (isinstance(expr.func, ast.Attribute)
                and expr.func.attr in _METRIC_SINKS and expr.args):
            return
        metric = self._metric_of(expr.func.value, ctx)
        if metric is None:
            return
        contract = self.tables.metric_dim(metric)
        value = arg_dims[0]
        if contract is None or value is None:
            return
        if not compatible(contract, value[0]):
            self._report(
                "ZL014", expr, ctx,
                kind=f"{metric}:{value[0]}",
                message=(f"{value[0]} value fed to metric '{metric}' "
                         f"whose name suffix declares {contract} — "
                         f"value: {value[1]}; rename the metric or "
                         f"convert via repro.units"))

    # -- reporting -----------------------------------------------------------
    def _report(self, rule: str, node: ast.AST, ctx: _Ctx, kind: str,
                message: str) -> None:
        if not ctx.emit:
            return
        fingerprint = f"{rule}:{ctx.fn.module}:{ctx.fn.short}:{kind}"
        lineno = getattr(node, "lineno", ctx.fn.lineno)
        key = (fingerprint, lineno)
        if key in self._seen:
            return
        self._seen.add(key)
        if len(message) > 360:
            message = message[:357] + "..."
        self.findings.append(Finding(
            rule=rule, path=ctx.fn.path, line=lineno,
            message=f"{message} [in {ctx.fn.short}]",
            fingerprint=fingerprint,
        ))


def check_dimensions(graph: CallGraph,
                     trees: Dict[Path, ast.Module]) -> List[Finding]:
    """Run ZomDim (ZL012/ZL013/ZL014) over a resolved call graph."""
    tables = load_unit_tables(trees)
    return _DimAnalysis(graph, tables).run()
