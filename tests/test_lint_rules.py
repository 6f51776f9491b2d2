"""ZomLint: a good/bad fixture pair per rule, suppressions, and the CLI."""

import ast
from pathlib import Path

import pytest

from repro.lint import (ALL_RULES, RULE_DESCRIPTIONS, check_sources,
                        load_sources)
from repro.lint.__main__ import main


def _rules(findings):
    return [f.rule for f in findings]


def _lint(source):
    """Findings of a one-file tree."""
    return check_sources({Path("mod.py"): source})[0]


def _lint_tree(paths, rules=None):
    """Findings of every file under ``paths``."""
    return check_sources(load_sources(paths), rules=rules)[0]


class TestZL001WallClock:
    BAD = (
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"
    )
    GOOD = (
        "def stamp(engine):\n"
        "    return engine.now\n"
    )

    def test_bad(self):
        findings = _lint(self.BAD)
        assert _rules(findings) == ["ZL001"]
        assert findings[0].line == 3

    def test_good(self):
        assert _lint(self.GOOD) == []

    def test_datetime_now_flagged(self):
        source = (
            "import datetime\n"
            "t = datetime.datetime.now()\n"
        )
        assert _rules(_lint(source)) == ["ZL001"]


class TestImportAliasResolution:
    """Aliased imports must not launder impurity past ZL001/ZL002."""

    def test_from_import_alias_wall_clock(self):
        source = (
            "from time import monotonic as _mono\n"
            "def stamp():\n"
            "    return _mono()\n"
        )
        findings = _lint(source)
        assert _rules(findings) == ["ZL001"]
        assert findings[0].line == 3

    def test_plain_from_import_wall_clock(self):
        source = (
            "from time import perf_counter\n"
            "t = perf_counter()\n"
        )
        assert _rules(_lint(source)) == ["ZL001"]

    def test_module_alias_wall_clock(self):
        source = (
            "import time as clk\n"
            "t = clk.monotonic()\n"
        )
        assert _rules(_lint(source)) == ["ZL001"]

    def test_module_alias_random(self):
        source = (
            "import random as rnd\n"
            "jitter = rnd.uniform(0, 1)\n"
        )
        findings = _lint(source)
        assert _rules(findings) == ["ZL002"]
        assert "random.uniform" in findings[0].message

    def test_datetime_module_alias(self):
        source = (
            "import datetime as dt\n"
            "t = dt.datetime.now()\n"
        )
        assert _rules(_lint(source)) == ["ZL001"]

    def test_aliased_seeded_random_class_still_allowed(self):
        source = (
            "import random as rnd\n"
            "r = rnd.Random(42)\n"
        )
        assert _lint(source) == []

    def test_unrelated_alias_is_clean(self):
        source = (
            "import math as m\n"
            "x = m.floor(1.5)\n"
        )
        assert _lint(source) == []


class TestZL002UnseededRandom:
    BAD_CALL = (
        "import random\n"
        "jitter = random.uniform(0, 1)\n"
    )
    BAD_IMPORT = "from random import choice\n"
    GOOD = (
        "from repro.sim.rng import DeterministicRng\n"
        "jitter = DeterministicRng(0).uniform(0, 1)\n"
    )

    def test_bad_call(self):
        assert _rules(_lint(self.BAD_CALL)) == ["ZL002"]

    def test_bad_import(self):
        assert _rules(_lint(self.BAD_IMPORT)) == ["ZL002"]

    def test_good(self):
        assert _lint(self.GOOD) == []

    def test_seeded_random_class_allowed(self):
        # DeterministicRng itself wraps random.Random(seed).
        assert _lint("import random\nr = random.Random(42)\n") == []


class TestZL004TimestampEquality:
    BAD = "fired = event.time_s == deadline\n"
    GOOD = "fired = event.time_s >= deadline\n"

    def test_bad(self):
        assert _rules(_lint(self.BAD)) == ["ZL004"]

    def test_good(self):
        assert _lint(self.GOOD) == []

    def test_suffix_convention(self):
        assert _rules(_lint("x = a.detected_at != b.opened_at\n")) \
            == ["ZL004"]

    def test_non_timestamp_equality_untouched(self):
        assert _lint("same = left.host == right.host\n") == []


class TestZL005SwallowedRpcError:
    BAD = (
        "def probe(client):\n"
        "    try:\n"
        "        client.call('heartbeat')\n"
        "    except RpcError:\n"
        "        pass\n"
    )
    GOOD_RAISE = BAD.replace("pass", "raise")
    GOOD_RETURN = BAD.replace("pass", "return False")
    GOOD_EMIT = BAD.replace("pass", "events.emit(EventKind.HOST_LOST, 'h')")

    def test_bad(self):
        findings = _lint(self.BAD)
        assert _rules(findings) == ["ZL005"]
        assert findings[0].line == 4

    @pytest.mark.parametrize("source", [GOOD_RAISE, GOOD_RETURN, GOOD_EMIT])
    def test_good(self, source):
        assert _lint(source) == []

    def test_tuple_catch_flagged(self):
        source = (
            "try:\n"
            "    call()\n"
            "except (RpcTimeoutError, ValueError):\n"
            "    count += 1\n"
        )
        assert _rules(_lint(source)) == ["ZL005"]


class TestSuppressions:
    def test_matching_rule_is_silenced(self):
        source = (
            "import time\n"
            "t = time.time()  # zl: ignore[ZL001] boot wall-clock banner\n"
        )
        assert _lint(source) == []

    def test_wrong_rule_does_not_silence(self):
        source = (
            "import time\n"
            "t = time.time()  # zl: ignore[ZL002]\n"
        )
        assert _rules(_lint(source)) == ["ZL001"]

    def test_suppression_is_line_scoped(self):
        source = (
            "import time\n"
            "a = time.time()  # zl: ignore[ZL001]\n"
            "b = time.time()\n"
        )
        findings = _lint(source)
        assert [(f.rule, f.line) for f in findings] == [("ZL001", 3)]


def _protocol_tree(tmp_path):
    """A minimal src/ tree carrying a Method verb table and its wiring."""
    core = tmp_path / "src" / "repro" / "core"
    core.mkdir(parents=True)
    (core / "protocol.py").write_text(
        "import enum\n\n"
        "class Method(str, enum.Enum):\n"
        '    GS_PING = ("GS_ping", "read_only", ())\n')
    (core / "wiring.py").write_text(
        "from repro.core.protocol import Method\n\n"
        "def wire(rpc, handler):\n"
        "    rpc.register(Method.GS_PING.value, handler)\n")
    return tmp_path / "src"


class TestZL007AuditMetricContract:
    _MONITOR_OK = (
        "class Monitor:\n"
        "    def publish(self, registry):\n"
        "        registry.gauge('host_memory_bytes', 'Cap.').set(1)\n"
        "        registry.gauge('stranded_bytes', 'Idle.').set(0)\n"
        "        registry.gauge('zombie_pool_bytes', 'Pool.').set(0)\n"
        "        registry.gauge('zombie_pool_free_bytes', 'Free.').set(0)\n"
    )

    def _tree(self, tmp_path, monitor_source):
        src = tmp_path / "src" / "repro"
        energy = src / "energy"
        energy.mkdir(parents=True)
        (energy / "rack_monitor.py").write_text(monitor_source)
        return tmp_path / "src"

    def test_all_audit_gauges_registered_is_clean(self, tmp_path):
        src = self._tree(tmp_path, self._MONITOR_OK)
        assert _lint_tree([str(src)], rules=["ZL007"]) == []

    def test_dropped_audit_gauge_flagged(self, tmp_path):
        dropped = self._MONITOR_OK.replace(
            "        registry.gauge('stranded_bytes', 'Idle.').set(0)\n", "")
        src = self._tree(tmp_path, dropped)
        findings = _lint_tree([str(src)], rules=["ZL007"])
        assert _rules(findings) == ["ZL007"]
        assert "stranded_bytes" in findings[0].message
        assert "unmeasurable" in findings[0].message

    def test_renamed_audit_gauge_flagged(self, tmp_path):
        renamed = self._MONITOR_OK.replace("'zombie_pool_bytes'",
                                           "'zombie_bytes'")
        src = self._tree(tmp_path, renamed)
        findings = _lint_tree([str(src)], rules=["ZL007"])
        assert [f for f in findings
                if "zombie_pool_bytes" in f.message]

    def test_tree_without_contract_modules_is_exempt(self, tmp_path):
        src = tmp_path / "src" / "repro" / "util"
        src.mkdir(parents=True)
        (src / "misc.py").write_text("X = 1\n")
        assert _lint_tree([str(tmp_path / "src")], rules=["ZL007"]) == []

    def test_repository_satisfies_audit_metric_contract(self, real_findings):
        assert [f for f in real_findings if f.rule == "ZL007"] == []


class TestZL007FedMetricContract:
    """The ZomFed entries of the fleet-audit metric contract."""

    _FABRIC_OK = (
        "class Fabric:\n"
        "    def charge(self, registry):\n"
        "        registry.counter('fed_cross_rack_ops_total', 'O.').inc()\n"
        "        registry.counter('fed_cross_rack_bytes_total', 'B.')"
        ".inc(1)\n"
        "        registry.counter('fed_cross_rack_joules_total', 'J.')"
        ".inc(0.1)\n"
    )
    _DIRECTORY_OK = (
        "class Directory:\n"
        "    def publish(self, registry):\n"
        "        registry.gauge('fed_rack_alive', 'Up.').set(1)\n"
        "        registry.gauge('fed_rack_free_zombie_bytes', 'F.').set(0)\n"
    )

    def _tree(self, tmp_path, fabric_source, directory_source):
        src = tmp_path / "src" / "repro"
        (src / "rdma").mkdir(parents=True)
        (src / "rdma" / "fabric.py").write_text(fabric_source)
        (src / "fed").mkdir(parents=True)
        (src / "fed" / "directory.py").write_text(directory_source)
        return tmp_path / "src"

    def test_all_fed_metrics_registered_is_clean(self, tmp_path):
        src = self._tree(tmp_path, self._FABRIC_OK, self._DIRECTORY_OK)
        assert _lint_tree([str(src)], rules=["ZL007"]) == []

    def test_dropped_cross_rack_energy_counter_flagged(self, tmp_path):
        dropped = self._FABRIC_OK.replace(
            "        registry.counter('fed_cross_rack_joules_total', 'J.')"
            ".inc(0.1)\n", "")
        src = self._tree(tmp_path, dropped, self._DIRECTORY_OK)
        findings = _lint_tree([str(src)], rules=["ZL007"])
        assert _rules(findings) == ["ZL007"]
        assert "fed_cross_rack_joules_total" in findings[0].message

    def test_dropped_rack_liveness_gauge_flagged(self, tmp_path):
        dropped = self._DIRECTORY_OK.replace(
            "        registry.gauge('fed_rack_alive', 'Up.').set(1)\n", "")
        src = self._tree(tmp_path, self._FABRIC_OK, dropped)
        findings = _lint_tree([str(src)], rules=["ZL007"])
        assert _rules(findings) == ["ZL007"]
        assert "fed_rack_alive" in findings[0].message


class TestZL007AuditInputContract:
    """The ``dc_*``, retry and event series ZomAudit's analyzers read."""

    _FILES = {
        ("dc", "energy_sim.py"): (
            "def publish(registry, labels):\n"
            "    registry.counter('dc_energy_joules_total', 'J.').inc(1)\n"
            "    registry.counter('dc_ideal_joules_total', 'I.').inc(1)\n"
            "    registry.counter('dc_mem_used_server_seconds_total', 'M.')"
            ".inc(1)\n"
            "    registry.counter('dc_remote_mem_server_seconds_total', "
            "'R.').inc(1)\n"
            "    registry.counter('dc_zombie_served_server_seconds_total', "
            "'Z.').inc(1)\n"
            "    registry.counter('dc_demand_slot_seconds_total', 'S.')"
            ".inc(1)\n"),
        ("rdma", "rpc.py"): (
            "def note(registry):\n"
            "    registry.counter('rpc_retries_total', 'R.').inc(1)\n"),
        ("core", "events.py"): (
            "def emit(metrics):\n"
            "    metrics.counter('rack_events_total', 'E.').inc()\n"),
    }
    NAMES = ("dc_energy_joules_total", "dc_ideal_joules_total",
             "dc_mem_used_server_seconds_total",
             "dc_remote_mem_server_seconds_total",
             "dc_zombie_served_server_seconds_total",
             "dc_demand_slot_seconds_total", "rpc_retries_total",
             "rack_events_total")

    def _tree(self, tmp_path, drop=None):
        src = tmp_path / "src" / "repro"
        for (package, module), source in self._FILES.items():
            (src / package).mkdir(parents=True, exist_ok=True)
            if drop is not None:
                source = source.replace(f"'{drop}'", "'renamed_total'")
            (src / package / module).write_text(source)
        return tmp_path / "src"

    def test_all_registered_is_clean(self, tmp_path):
        assert _lint_tree([str(self._tree(tmp_path))], rules=["ZL007"]) == []

    @pytest.mark.parametrize("name", NAMES)
    def test_dropped_series_flagged(self, tmp_path, name):
        findings = _lint_tree([str(self._tree(tmp_path, drop=name))],
                              rules=["ZL007"])
        assert _rules(findings) == ["ZL007"]
        assert name in findings[0].message


class TestDriver:
    def test_syntax_error_reported_as_zl000(self):
        findings = _lint("def broken(:\n")
        assert _rules(findings) == ["ZL000"]

    @pytest.mark.parametrize("content, problem", [
        (b"def f(:\n", "syntax error"),
        (b'x = "\xff"\n', "unreadable file"),
    ])
    def test_cli_broken_file_is_one_zl000(self, tmp_path, capsys, content,
                                          problem):
        # Neither a crash nor a silently skipped file: one ZL000, exit 1.
        energy = tmp_path / "repro" / "energy"
        energy.mkdir(parents=True)
        (energy / "__init__.py").write_text("")
        (energy / "meter.py").write_bytes(content)
        assert main([str(tmp_path)]) == 1
        flagged = [line for line in capsys.readouterr().out.splitlines()
                   if ": ZL" in line]
        assert len(flagged) == 1
        assert flagged[0].startswith(f"{energy / 'meter.py'}:1: ZL000 "
                                     f"{problem}")

    def test_each_file_is_parsed_once(self, tmp_path, monkeypatch):
        # A tree that feeds every reader of a module: the per-file rules,
        # ZL007's contract module, the call graph, ZL011's verb table and
        # errors.py, and ZomDim's units.py.
        src = _protocol_tree(tmp_path)
        repro = src / "repro"
        (repro / "errors.py").write_text(
            "class ReproError(Exception):\n    pass\n")
        (repro / "units.py").write_text("METRIC_UNIT_SUFFIXES = {}\n")
        (repro / "energy").mkdir()
        (repro / "energy" / "meter.py").write_text(
            "def publish(registry):\n"
            "    registry.gauge('host_power_watts', 'W.').set(0)\n")
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parsed.append(kwargs.get("filename"))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        sources = load_sources([str(src)])
        check_sources(sources)
        assert sorted(parsed) == sorted(str(p) for p in sources)

    def test_rule_catalogue_is_complete(self):
        assert ALL_RULES == ("ZL001", "ZL002", "ZL004", "ZL005", "ZL007",
                             "ZL009", "ZL010", "ZL011", "ZL012", "ZL013",
                             "ZL014")
        assert all(RULE_DESCRIPTIONS[r] for r in ALL_RULES)

    def test_repository_source_tree_is_clean(self, real_findings):
        # No rule carries debt and there is no exceptions list: the
        # tree's verdict is exactly ``python -m repro.lint src``'s.
        assert real_findings == [], "\n".join(map(str, real_findings))

    def test_cli_exit_zero_on_clean_tree(self, tmp_path):
        # The real tree's verdict is test_repository_source_tree_is_clean's,
        # over the session's one analysis of it.
        assert main([str(_protocol_tree(tmp_path))]) == 0

    def test_cli_exit_one_on_findings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main([str(bad)]) == 1

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == list(ALL_RULES)

    def test_cli_stats_reports_suppression_counts(self, tmp_path, capsys):
        src = tmp_path / "mod.py"
        src.write_text(
            "import time\n"
            "boot = time.time()  # zl: ignore[ZL001] boot stamp only\n"
            "t = time.time()\n"
        )
        assert main([str(src), "--stats"]) == 1
        out = capsys.readouterr().out
        stats_line = next(line for line in out.splitlines()
                          if line.lstrip().startswith("ZL001"))
        # one surviving finding, one suppressed
        assert stats_line.split() == ["ZL001", "1", "1"]

    def test_check_sources_tallies_suppressions(self):
        findings, suppressed = check_sources({Path("mod.py"): (
            "import time\n"
            "boot = time.time()  # zl: ignore[ZL001] boot stamp only\n"
        )})
        assert findings == []
        assert suppressed == {"ZL001": 1}
