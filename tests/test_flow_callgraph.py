"""Unit tests for the call-graph substrate of the whole-program passes.

The interesting property is *resolution*: handler bindings through
wrapper calls, methods through ``__init__``-assigned instance types,
import aliases, and scheduled callbacks.  The real-tree tests pin the
resolutions the passes depend on, so a refactor of ``_register_handlers``
that silently breaks binding discovery fails here, not as a quietly
empty analysis.
"""

import ast
from pathlib import Path

from repro.lint.callgraph import build_graph
from repro.lint.engine import module_name_for
from repro.lint.purity import check_purity
from repro.lint.rules import protocol_rows


def _graph(path, source):
    return build_graph({Path(path): ast.parse(source)})


#: A helper module whose one function reads the wall clock.
CLOCK_HELPER = {
    "fx/pkg/clock.py": (
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"
    ),
}


class TestRealTreeResolution:
    def test_register_binding_resolves_through_guard_wrapper(self,
                                                             real_graph):
        # register(Method.GS_GOTO_ZOMBIE.value,
        #          self._guard(self.gs_goto_zombie))
        bindings = [b for b in real_graph.handler_bindings
                    if b.member == "GS_GOTO_ZOMBIE"]
        assert bindings, "GS_GOTO_ZOMBIE register site not found"
        handlers = {h for b in bindings for h in b.handlers}
        assert ("repro.core.controller.GlobalMemoryController"
                ".gs_goto_zombie") in handlers

    def test_every_controller_verb_binds_its_handler(self, real_graph):
        by_member = {}
        for b in real_graph.handler_bindings:
            if b.member:
                by_member.setdefault(b.member, set()).update(b.handlers)
        for member, method in [
            ("GS_RECLAIM", "gs_reclaim"),
            ("US_RECLAIM", "us_reclaim"),
            ("MIRROR_OP", "apply_mirror"),
        ]:
            assert any(h.endswith("." + method) for h in by_member[member])

    def test_scheduled_callbacks_include_periodic_closures(self, real_graph):
        cbs = real_graph.scheduled_callbacks
        assert ("repro.core.recovery.RecoveryCoordinator.probe_tick"
                in cbs)
        # A callback defined as a closure inside a method still resolves.
        graph = _graph("fx/mod.py", (
            "class Manager:\n"
            "    def start(self, engine):\n"
            "        def tick():\n"
            "            return 1\n"
            "        return PeriodicProcess(engine, 60.0, tick)\n"
        ))
        assert "fx.mod.Manager.start.tick" in graph.scheduled_callbacks

    def test_sim_context_reaches_database_through_handlers(self, real_graph):
        sim = real_graph.reachable_from(sorted(real_graph.sim_roots()))
        assert "repro.core.database.BufferDatabase.remove" in sim

    def test_row_reader_agrees_with_the_imported_enum(self, real_trees):
        from repro.core.protocol import Method
        path, rows = protocol_rows(real_trees)
        assert path.parts[-2:] == ("core", "protocol.py")
        assert [(r.member, r.verb, r.idempotency, r.errors) for r in rows] \
            == [(m.name, m.value, m.idempotency, m.errors) for m in Method]


class TestFixtureResolution:
    def test_alias_expansion_on_external_calls(self):
        graph = _graph("fx/mod.py", (
            "from time import monotonic as _mono\n"
            "def f():\n"
            "    return _mono()\n"
        ))
        assert any(c.dotted == "time.monotonic"
                   for c in graph.external_calls)

    def test_attr_typed_method_call_resolves(self):
        graph = _graph("fx/mod.py", (
            "class Store:\n"
            "    def save(self):\n"
            "        return 1\n"
            "class App:\n"
            "    def __init__(self):\n"
            "        self.store = Store()\n"
            "    def run(self):\n"
            "        return self.store.save()\n"
        ))
        edges = {(e.caller, e.callee) for e in graph.edges}
        assert ("fx.mod.App.run", "fx.mod.Store.save") in edges

    def test_imported_function_call_resolves(self):
        # ``from m import f; f()`` binds the call to ``m.f``.
        trees = {Path(p): ast.parse(s) for p, s in {
            **CLOCK_HELPER,
            "fx/svc.py": (
                "from fx.pkg.clock import stamp\n"
                "def f():\n"
                "    return stamp()\n"
            ),
        }.items()}
        graph = build_graph(trees)
        call = next(node for node in ast.walk(trees[Path("fx/svc.py")])
                    if isinstance(node, ast.Call))
        assert graph.callee_of[call] == "fx.pkg.clock.stamp"
        assert ("fx.svc.f", "fx.pkg.clock.stamp", "call") in {
            (e.caller, e.callee, e.kind) for e in graph.edges}

    def test_taint_through_imported_helper_reaches_handler(self):
        graph = build_graph({Path(p): ast.parse(s) for p, s in {
            **CLOCK_HELPER,
            "fx/svc.py": (
                "from fx.pkg.clock import stamp\n"
                "class Service:\n"
                "    def __init__(self, rpc):\n"
                "        rpc.register('verb_x', self.handle)\n"
                "    def handle(self):\n"
                "        return stamp()\n"
            ),
        }.items()})
        findings = check_purity(graph)
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("ZL009", "fx/pkg/clock.py", 3)]
        assert "Service.handle -> stamp" in findings[0].message

    def test_taint_through_imported_scheduled_callback(self):
        graph = build_graph({Path(p): ast.parse(s) for p, s in {
            **CLOCK_HELPER,
            "fx/svc.py": (
                "from fx.pkg.clock import stamp\n"
                "class Sampler:\n"
                "    def __init__(self, engine):\n"
                "        engine.schedule(1.0, stamp)\n"
            ),
        }.items()})
        assert "fx.pkg.clock.stamp" in graph.scheduled_callbacks
        findings = check_purity(graph)
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("ZL009", "fx/pkg/clock.py", 3)]

    def test_nested_def_body_belongs_to_the_nested_def_alone(self):
        # ``inner``'s body runs when ``inner`` is called, not when
        # ``outer`` runs, wherever in ``outer`` the def statement sits.
        graph = _graph("fx/m.py", (
            "def helper():\n"
            "    return 1\n"
            "def outer(flag):\n"
            "    if flag:\n"
            "        def inner():\n"
            "            return helper()\n"
            "        return inner\n"
        ))
        edges = {(e.caller, e.callee, e.kind) for e in graph.edges}
        assert ("fx.m.outer.inner", "fx.m.helper", "call") in edges
        assert ("fx.m.outer", "fx.m.helper", "call") not in edges

    def test_nested_def_decorator_runs_in_the_enclosing_function(self):
        graph = _graph("fx/m.py", (
            "def deco(fn):\n"
            "    return fn\n"
            "def helper():\n"
            "    return 1\n"
            "def outer():\n"
            "    @deco\n"
            "    def inner(x=helper()):\n"
            "        return x\n"
            "    return inner\n"
        ))
        edges = {(e.caller, e.callee, e.kind) for e in graph.edges}
        assert ("fx.m.outer", "fx.m.helper", "call") in edges
        assert ("fx.m.outer.inner", "fx.m.helper", "call") not in edges

    def test_shortest_chain_and_render(self):
        graph = _graph("fx/mod.py", (
            "def a():\n"
            "    return b()\n"
            "def b():\n"
            "    return c()\n"
            "def c():\n"
            "    return 1\n"
        ))
        chain = graph.shortest_chain({"fx.mod.a"}, "fx.mod.c")
        assert chain == ["fx.mod.a", "fx.mod.b", "fx.mod.c"]
        assert graph.render(chain) == "a -> b -> c"

    def test_module_name_anchors_at_repro(self):
        assert module_name_for(
            Path("src/repro/core/controller.py")) == "repro.core.controller"
        assert module_name_for(Path("fx/pkg/__init__.py")) == "fx.pkg"
