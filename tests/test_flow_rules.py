"""Fixture tests for three whole-program passes and the one CLI.

Each rule gets a clean and a violating fixture tree (built as in-memory
``{path: source}`` dicts), including the two interprocedural shapes the
single-file rules cannot see: a two-hop taint chain (ZL009) and a
read-modify-write straddling an RPC yield (ZL010).  The CLI tests drive
per-file and whole-program findings through one suppression path and one
verdict.
"""

import ast
from pathlib import Path

import pytest

from repro.lint import check_sources
from repro.lint.__main__ import main
from repro.lint.atomicity import check_atomicity
from repro.lint.callgraph import build_graph
from repro.lint.contracts import check_contracts
from repro.lint.purity import check_purity


def _trees(sources):
    return {Path(p): ast.parse(s) for p, s in sources.items()}


def _graph(sources):
    return build_graph(_trees(sources))


def _findings(sources, rules=None):
    return check_sources({Path(p): s for p, s in sources.items()},
                         rules=rules)[0]


# -- ZL009: transitive sim-purity taint ---------------------------------------

SERVICE_TWO_HOP = {
    "fx/svc.py": (
        "import time\n"
        "class Service:\n"
        "    def __init__(self, rpc):\n"
        "        rpc.register('verb_x', self.handle)\n"
        "    def handle(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        return stamp()\n"
        "def stamp():\n"
        "    return time.time()\n"
    ),
}


class TestPurity:
    def test_two_hop_taint_chain_reaches_handler(self):
        findings = check_purity(_graph(SERVICE_TWO_HOP))
        assert [f.rule for f in findings] == ["ZL009"]
        finding = findings[0]
        assert finding.line == 10
        assert "Service.handle -> Service.helper -> stamp" in finding.message
        assert "wall-clock" in finding.message

    def test_source_outside_sim_context_is_clean(self):
        sources = dict(SERVICE_TWO_HOP)
        # Same impurity, but nothing registers the handler: not sim context.
        sources["fx/svc.py"] = sources["fx/svc.py"].replace(
            "        rpc.register('verb_x', self.handle)\n",
            "        pass\n")
        assert check_purity(_graph(sources)) == []

    def test_alias_laundered_wall_clock_is_caught(self):
        sources = {
            "fx/svc.py": (
                "from time import monotonic as _mono\n"
                "class Service:\n"
                "    def __init__(self, rpc):\n"
                "        rpc.register('verb_x', self.handle)\n"
                "    def handle(self):\n"
                "        return _mono()\n"
            ),
        }
        findings = check_purity(_graph(sources))
        assert [f.rule for f in findings] == ["ZL009"]
        assert "time.monotonic" in findings[0].message

    def test_global_random_in_scheduled_callback(self):
        sources = {
            "fx/svc.py": (
                "import random\n"
                "class Sampler:\n"
                "    def __init__(self, engine):\n"
                "        engine.schedule(1.0, self.tick)\n"
                "    def tick(self):\n"
                "        return random.random()\n"
            ),
        }
        findings = check_purity(_graph(sources))
        assert [f.rule for f in findings] == ["ZL009"]
        assert "global-random" in findings[0].message

    def test_unordered_set_iteration_in_sim_context(self):
        sources = {
            "fx/svc.py": (
                "class Service:\n"
                "    def __init__(self, rpc):\n"
                "        self.hosts = set()\n"
                "        rpc.register('verb_x', self.handle)\n"
                "    def handle(self):\n"
                "        return [h for h in self.hosts]\n"
            ),
        }
        findings = check_purity(_graph(sources))
        assert [f.rule for f in findings] == ["ZL009"]
        assert "unordered" in findings[0].message

    def test_annotated_set_attribute_iteration_in_sim_context(self):
        sources = {
            "fx/svc.py": (
                "from typing import Set\n"
                "class Service:\n"
                "    def __init__(self, rpc):\n"
                "        self.hosts: Set[str] = set()\n"
                "        rpc.register('verb_x', self.handle)\n"
                "    def handle(self):\n"
                "        for host in self.hosts:\n"
                "            yield host\n"
            ),
        }
        findings = check_purity(_graph(sources))
        assert [(f.rule, f.line) for f in findings] == [("ZL009", 7)]
        assert "'self.hosts'" in findings[0].message

    def test_sorted_set_iteration_is_clean(self):
        sources = {
            "fx/svc.py": (
                "class Service:\n"
                "    def __init__(self, rpc):\n"
                "        self.hosts = set()\n"
                "        rpc.register('verb_x', self.handle)\n"
                "    def handle(self):\n"
                "        return [h for h in sorted(self.hosts)]\n"
            ),
        }
        assert check_purity(_graph(sources)) == []

    def test_seeded_rng_construction_is_clean(self):
        sources = {
            "fx/svc.py": (
                "import random\n"
                "class Service:\n"
                "    def __init__(self, rpc):\n"
                "        rpc.register('verb_x', self.handle)\n"
                "    def handle(self):\n"
                "        return random.Random(7).random()\n"
            ),
        }
        assert check_purity(_graph(sources)) == []


# -- ZL010: yield-point atomicity ---------------------------------------------

def _controller_fixture(body):
    return {
        "fx/core/controller.py": (
            "class Controller:\n"
            "    def __init__(self, client):\n"
            "        self.client = client\n"
            "        self.db = {}\n"
            "        self.fenced = False\n"
            + body
        ),
    }


class TestAtomicity:
    def test_straddling_read_modify_write_fires(self):
        sources = _controller_fixture(
            "    def reclaim(self, host):\n"
            "        victims = self.db.get(host)\n"
            "        self.client.call('US_reclaim', victims)\n"
            "        self.db.pop(host)\n"
        )
        findings = check_atomicity(_graph(sources))
        assert [f.rule for f in findings] == ["ZL010"]
        assert "leases" in findings[0].message
        assert findings[0].fingerprint.endswith("Controller.reclaim:leases")

    def test_revalidated_write_is_clean(self):
        sources = _controller_fixture(
            "    def reclaim(self, host):\n"
            "        victims = self.db.get(host)\n"
            "        self.client.call('US_reclaim', victims)\n"
            "        if host not in self.db:\n"
            "            return\n"
            "        self.db.pop(host)\n"
        )
        assert check_atomicity(_graph(sources)) == []

    def test_fencing_check_after_yield_is_clean(self):
        sources = _controller_fixture(
            "    def reclaim(self, host):\n"
            "        victims = self.db.get(host)\n"
            "        self.client.call('US_reclaim', victims)\n"
            "        if self.fenced:\n"
            "            raise RuntimeError('deposed')\n"
            "        self.db.pop(host)\n"
        )
        assert check_atomicity(_graph(sources)) == []

    def test_write_without_prior_read_is_clean(self):
        sources = _controller_fixture(
            "    def record(self, host, ids):\n"
            "        self.client.call('US_reclaim', ids)\n"
            "        self.db.pop(host)\n"
        )
        assert check_atomicity(_graph(sources)) == []

    def test_yield_through_helper_rpc_is_seen(self):
        # The RPC is two frames down; the yield must still be detected.
        sources = _controller_fixture(
            "    def reclaim(self, host):\n"
            "        victims = self.db.get(host)\n"
            "        self.notify(victims)\n"
            "        self.db.pop(host)\n"
            "    def notify(self, victims):\n"
            "        self.forward(victims)\n"
            "    def forward(self, victims):\n"
            "        self.client.call('US_reclaim', victims)\n"
        )
        findings = check_atomicity(_graph(sources))
        assert [f.fingerprint.split(":")[-2:] for f in findings] == [
            ["Controller.reclaim", "leases"]]

    def test_revalidation_sixty_helpers_down_is_seen(self):
        # Callers come first, so the re-read climbs one helper per sweep
        # of the fixpoint: it must reach reclaim however deep it sits.
        sources = _controller_fixture(
            "    def reclaim(self, host):\n"
            "        victims = self.db.get(host)\n"
            "        self.client.call('US_reclaim', victims)\n"
            "        if not self.check1(host):\n"
            "            return\n"
            "        self.db.pop(host)\n"
            + "".join(f"    def check{i}(self, host):\n"
                      f"        return self.check{i + 1}(host)\n"
                      for i in range(1, 60))
            + "    def check60(self, host):\n"
              "        return host in self.db\n"
        )
        assert check_atomicity(_graph(sources)) == []

    def test_out_of_scope_module_is_ignored(self):
        sources = {
            "fx/cloud/pack.py": (
                "class Packer:\n"
                "    def __init__(self, client):\n"
                "        self.client = client\n"
                "        self.db = {}\n"
                "    def go(self, host):\n"
                "        v = self.db.get(host)\n"
                "        self.client.call('x', v)\n"
                "        self.db.pop(host)\n"
            ),
        }
        assert check_atomicity(_graph(sources)) == []


# -- ZL011: error-contract flow -----------------------------------------------

ERRORS_FIXTURE = (
    "class ReproError(Exception):\n    pass\n"
    "class RdmaError(ReproError):\n    pass\n"
    "class RpcError(RdmaError):\n    pass\n"
    "class RpcTimeoutError(RpcError):\n    pass\n"
    "class FencingError(ReproError):\n    pass\n"
    "class DeclaredError(ReproError):\n    pass\n"
    "class UndeclaredError(ReproError):\n    pass\n"
)


def _contract_fixture(raise_stmt, declared=("DeclaredError",)):
    decl = ", ".join(f"'{d}'" for d in declared)
    trailing = "," if len(declared) == 1 else ""
    return {
        "fx/errors.py": ERRORS_FIXTURE,
        "fx/core/protocol.py": (
            "class Method:\n"
            f"    DO_THING = ('do_thing', 'dedup_required', "
            f"({decl}{trailing}))\n"
        ),
        "fx/core/server.py": (
            "from fx.errors import DeclaredError, UndeclaredError\n"
            "class Server:\n"
            "    def __init__(self, rpc):\n"
            "        rpc.register('do_thing', self.handle)\n"
            "    def handle(self):\n"
            "        return self.helper()\n"
            "    def helper(self):\n"
            f"        {raise_stmt}\n"
        ),
    }


class TestContracts:
    def test_undeclared_escape_fires_with_chain(self):
        sources = _contract_fixture("raise UndeclaredError('boom')")
        findings = check_contracts(_graph(sources), _trees(sources))
        assert [f.rule for f in findings] == ["ZL011"]
        finding = findings[0]
        assert finding.fingerprint == "ZL011:do_thing:UndeclaredError"
        assert "Server.handle -> Server.helper" in finding.message
        assert finding.path.endswith("server.py")

    def test_escape_thirty_helpers_down_fires(self):
        # Callers come first, so the escape climbs one helper per sweep
        # of the fixpoint: it must reach the handler however deep.
        sources = _contract_fixture("raise UndeclaredError('boom')")
        sources["fx/core/server.py"] = (
            "from fx.errors import UndeclaredError\n"
            "class Server:\n"
            "    def __init__(self, rpc):\n"
            "        rpc.register('do_thing', self.handle)\n"
            "    def handle(self):\n"
            "        return self.h1()\n"
            + "".join(f"    def h{i}(self):\n"
                      f"        return self.h{i + 1}()\n"
                      for i in range(1, 30))
            + "    def h30(self):\n"
              "        raise UndeclaredError('deep')\n"
        )
        findings = check_contracts(_graph(sources), _trees(sources))
        assert [f.fingerprint for f in findings] == [
            "ZL011:do_thing:UndeclaredError"]
        assert "Server.handle -> Server.h1 -> " in findings[0].message

    def test_declared_escape_is_clean(self):
        sources = _contract_fixture("raise DeclaredError('boom')")
        assert check_contracts(_graph(sources), _trees(sources)) == []

    def test_declared_base_class_covers_subclass(self):
        sources = _contract_fixture("raise UndeclaredError('boom')",
                                    declared=("ReproError",))
        assert check_contracts(_graph(sources), _trees(sources)) == []

    def test_retryable_transport_family_is_implicitly_allowed(self):
        sources = _contract_fixture("raise RpcTimeoutError('slow')",
                                    declared=())
        assert check_contracts(_graph(sources), _trees(sources)) == []

    def test_caught_exception_does_not_escape(self):
        sources = _contract_fixture("raise UndeclaredError('boom')")
        sources["fx/core/server.py"] = (
            "from fx.errors import UndeclaredError\n"
            "class Server:\n"
            "    def __init__(self, rpc):\n"
            "        rpc.register('do_thing', self.handle)\n"
            "    def handle(self):\n"
            "        try:\n"
            "            return self.helper()\n"
            "        except UndeclaredError:\n"
            "            return None\n"
            "    def helper(self):\n"
            "        raise UndeclaredError('boom')\n"
        )
        assert check_contracts(_graph(sources), _trees(sources)) == []

    def test_catching_base_class_subtracts_subclass(self):
        sources = _contract_fixture("raise UndeclaredError('boom')")
        sources["fx/core/server.py"] = (
            "from fx.errors import ReproError, UndeclaredError\n"
            "class Server:\n"
            "    def __init__(self, rpc):\n"
            "        rpc.register('do_thing', self.handle)\n"
            "    def handle(self):\n"
            "        try:\n"
            "            return self.helper()\n"
            "        except ReproError:\n"
            "            return None\n"
            "    def helper(self):\n"
            "        raise UndeclaredError('boom')\n"
        )
        assert check_contracts(_graph(sources), _trees(sources)) == []


# -- suppressions, CLI ----------------------------------------------------------

#: One tree for the CLI: a ZL001 outside sim context, and the two-hop
#: ZL009 chain whose source line suppresses its own ZL001.
CLI_TREE = {
    "svc.py": SERVICE_TWO_HOP["fx/svc.py"].replace(
        "    return time.time()",
        "    return time.time()  # zl: ignore[ZL001] ZL009 owns this line"),
    "boot.py": "import time\nBOOT_STAMP = time.time()\n",
}


class TestSuppressionAndBaseline:
    def test_line_scoped_suppression_silences_flow_rule(self):
        sources = dict(SERVICE_TWO_HOP)
        sources["fx/svc.py"] = sources["fx/svc.py"].replace(
            "    return time.time()",
            "    return time.time()  # zl: ignore[ZL009] boot stamp only")
        assert _findings(sources, rules=["ZL009"]) == []

    @staticmethod
    def _cli_tree(tmp_path):
        tree = tmp_path / "fx"
        tree.mkdir()
        for name, source in CLI_TREE.items():
            (tree / name).write_text(source)
        return str(tree)

    def test_cli_exit_codes(self, tmp_path, capsys):
        tree = self._cli_tree(tmp_path)
        # Findings of both kinds: exit 1, each printed.
        assert main([tree]) == 1
        flagged = [line for line in capsys.readouterr().out.splitlines()
                   if ": ZL" in line]
        assert sorted(line.split()[1] for line in flagged) \
            == ["ZL001", "ZL009"]
        # Rule ids are case-insensitive.
        assert main([tree, "--rule", "zl001"]) == 1
        flagged = [line for line in capsys.readouterr().out.splitlines()
                   if ": ZL" in line]
        assert len(flagged) == 1 and "boot.py:2: ZL001" in flagged[0]
        # Usage errors exit 2 (argparse convention); there is no baseline
        # to read, rewrite or ignore.
        for argv in (["--rule", "ZL999"], ["--regen"], ["--no-baseline"],
                     ["--baseline", "flow_baseline.json"]):
            with pytest.raises(SystemExit) as excinfo:
                main([tree, *argv])
            assert excinfo.value.code == 2

    def test_cli_stats_lists_every_rule(self, tmp_path, capsys):
        main([self._cli_tree(tmp_path), "--stats"])
        rows = {line.split()[0]: line.split()[1:]
                for line in capsys.readouterr().out.splitlines()
                if line.lstrip().startswith("ZL")}
        # One table for both rule kinds; the suppressed ZL001 counted once.
        assert rows["ZL001"] == ["1", "1"]
        assert rows["ZL009"] == ["1", "0"]
        assert {"ZL010", "ZL011", "ZL014"} <= set(rows)
