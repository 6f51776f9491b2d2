"""The verb table, asserted on real objects.

A ``Method`` row is the one place a verb's name, delivery class and
error contract are written; ``RpcServer.register`` serves from it.  These
tests hold the things that read the table — every server of a built rack
and federation, the model checker's CLI, docs/PROTOCOL.md — to it.
"""

import re
from pathlib import Path

import pytest

from repro.check import ProtocolModel
from repro.check.__main__ import main as check_main
from repro.core.protocol import Method
from repro.core.rack import Rack
from repro.errors import ConfigurationError
from repro.fed import Federation
from repro.units import MiB

REPO = Path(__file__).resolve().parent.parent


def _rack_servers(rack):
    yield rack.controller.rpc
    yield rack.secondary.rpc
    for server in rack.servers.values():
        yield server.manager.rpc


def _built_rack():
    rack = Rack(["h1", "h2", "h3"], memory_bytes=128 * MiB,
                buff_size=8 * MiB)
    return list(_rack_servers(rack))


def _built_federation():
    fed = Federation(n_racks=2, hosts_per_rack=3, memory_bytes=512 * MiB,
                     buff_size=16 * MiB)
    servers = [rpc for rack in fed.racks.values()
               for rpc in _rack_servers(rack)]
    servers.append(fed.lending.agent_for("rack1", "rack2").rpc)
    return servers


class TestEveryServerServesFromTheTable:
    @pytest.mark.parametrize("build", [_built_rack, _built_federation])
    def test_classes_are_the_rows_and_every_verb_is_served(self, build):
        servers = build()
        for server in servers:
            assert server.handlers
            assert server.idempotency == {
                verb: Method(verb).idempotency for verb in server.handlers}
        served = set().union(*(server.handlers for server in servers))
        assert served == {m.value for m in Method}

    def test_a_row_with_an_unknown_class_fails_at_import(self):
        path = REPO / "src" / "repro" / "core" / "protocol.py"
        good = '("heartbeat", "read_only", ())'
        source = path.read_text(encoding="utf-8")
        assert good in source
        mutated = source.replace(good, '("heartbeat", "best_effort", ())')
        with pytest.raises(ConfigurationError, match="best_effort"):
            exec(compile(mutated, str(path), "exec"),
                 {"__name__": "mutated_protocol"})


class TestModelCoversTheTable:
    def test_cli_exits_2_on_a_verb_outside_the_table(self, monkeypatch):
        real = ProtocolModel.action_verbs
        monkeypatch.setattr(
            ProtocolModel, "action_verbs",
            lambda self: real(self) | {"GS_teleport"})

        def never(*args, **kwargs):
            raise AssertionError("explored an unsound model")
        monkeypatch.setattr("repro.check.__main__.Explorer", never)
        assert check_main(["--bound", "tiny"]) == 2


class TestProtocolDocTable:
    def test_doc_table_equals_the_method_rows_cell_for_cell(self):
        text = (REPO / "docs" / "PROTOCOL.md").read_text(encoding="utf-8")
        table = text.split("| verb | class | declared errors |", 1)[1]
        rows = []
        for line in table.splitlines()[2:]:
            if not line.startswith("|"):
                break
            verb, cls, errors = (cell.strip() for cell
                                 in line.strip("|").split("|"))
            rows.append((verb.strip("`"), cls.strip("`"),
                         tuple(re.findall(r"`(\w+)`", errors))))
        assert rows == [(m.value, m.idempotency, m.errors) for m in Method]
