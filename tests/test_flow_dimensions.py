"""Fixture tests for ZomDim (ZL012/ZL013/ZL014).

Each rule gets clean and violating in-memory fixture trees, exercising
the inference paths the single-file lint rules cannot see: name-rule
seeds, interprocedural return summaries, conversion-constant division,
time-domain separation and metric unit contracts — plus the suppression
plumbing shared with every other rule.
"""

import ast
from pathlib import Path

from repro.lint import check_sources
from repro.lint.callgraph import build_graph
from repro.lint.dimensions import (check_dimensions, compatible,
                                   load_unit_tables, meet, name_dim)


def _sources(sources):
    return {Path(p): s for p, s in sources.items()}


def _trees(sources):
    return {Path(p): ast.parse(s) for p, s in sources.items()}


def _findings(sources, rules=None):
    trees = _trees(sources)
    found = check_dimensions(build_graph(trees), trees)
    if rules is not None:
        found = [f for f in found if f.rule in rules]
    return found


# -- the lattice --------------------------------------------------------------

class TestLattice:
    def test_equal_dims_are_compatible(self):
        assert compatible("bytes", "bytes")

    def test_sub_dimension_is_compatible_with_parent(self):
        assert compatible("sim-seconds", "seconds")
        assert compatible("seconds", "wall-seconds")
        assert compatible("frames", "pages")

    def test_siblings_are_incompatible(self):
        assert not compatible("sim-seconds", "wall-seconds")
        assert not compatible("bytes", "pages")
        assert not compatible("joules", "watts")

    def test_meet_picks_the_more_specific(self):
        assert meet("seconds", "sim-seconds") == "sim-seconds"
        assert meet("frames", "pages") == "frames"
        assert meet("joules", "bytes") is None

    def test_name_rules(self):
        assert name_dim("size_bytes") == "bytes"
        assert name_dim("power_watts") == "watts"
        assert name_dim("energy_joules_total") == "joules"
        assert name_dim("duration_s") == "seconds"
        assert name_dim("idle_fraction") == "fraction"
        assert name_dim("now") == "sim-seconds"

    def test_rate_names_have_no_plain_dimension(self):
        assert name_dim("bandwidth_bytes_per_s") is None
        assert name_dim("usd_per_kwh") is None


# -- ZL012: dimension soundness ----------------------------------------------

class TestDimensionSoundness:
    def test_mixed_dimension_add_fires_with_chain(self):
        findings = _findings({
            "fx/energy.py": (
                "def mix(size_bytes, duration_s):\n"
                "    return size_bytes + duration_s\n"
            ),
        })
        assert [f.rule for f in findings] == ["ZL012"]
        finding = findings[0]
        assert finding.line == 2
        assert "bytes" in finding.message and "seconds" in finding.message
        assert "parameter 'size_bytes'" in finding.message
        assert "parameter 'duration_s'" in finding.message
        assert finding.fingerprint.startswith("ZL012:fx.energy:mix:")

    def test_interprocedural_return_dim_reaches_caller(self):
        findings = _findings({
            "fx/energy.py": (
                "def idle_watts():\n"
                "    return 65.0\n"
                "def broken(duration_s):\n"
                "    return idle_watts() + duration_s\n"
            ),
        })
        assert [f.rule for f in findings] == ["ZL012"]
        assert "return of idle_watts" in findings[0].message

    def test_return_dim_climbs_a_deep_helper_chain(self):
        # Callers come first, so the bytes dimension climbs one helper per
        # sweep of the solver: it must reach f1 however deep the chain.
        findings = _findings({
            "fx/energy.py": (
                "def f1():\n"
                "    return f2()\n"
                "def f2():\n"
                "    return f3()\n"
                "def f3():\n"
                "    return f4(4096)\n"
                "def f4(size_bytes):\n"
                "    return size_bytes\n"
                "def drive(power_watts):\n"
                "    return f1() + power_watts\n"
            ),
        })
        assert [(f.rule, f.line) for f in findings] == [("ZL012", 10)]
        assert "return of f1" in findings[0].message

    def test_call_argument_dimension_mismatch(self):
        findings = _findings({
            "fx/energy.py": (
                "def set_power(power_watts):\n"
                "    return power_watts\n"
                "def drive(size_bytes):\n"
                "    set_power(size_bytes)\n"
            ),
        })
        assert any(f.rule == "ZL012" and "power_watts" in f.message
                   and "bytes argument" in f.message for f in findings)

    def test_keyword_convention_on_unresolved_callee(self):
        findings = _findings({
            "fx/audit.py": (
                "def publish(sink, duration_s):\n"
                "    sink.record(capacity_bytes=duration_s)\n"
            ),
        })
        assert [f.rule for f in findings] == ["ZL012"]
        assert "capacity_bytes=" in findings[0].message

    def test_declared_return_contract_checked(self):
        findings = _findings({
            "fx/energy.py": (
                "def total_joules(power_watts):\n"
                "    return power_watts\n"
            ),
        })
        assert [f.rule for f in findings] == ["ZL012"]
        assert "declares joules" in findings[0].message

    def test_wrong_divisor_constant_fires(self):
        findings = _findings({
            "fx/energy.py": (
                "def gib(energy_joules):\n"
                "    return energy_joules / GiB\n"
            ),
        })
        assert [f.rule for f in findings] == ["ZL012"]
        assert "divided by bytes constant GiB" in findings[0].message

    def test_physical_arithmetic_is_clean(self):
        assert _findings({
            "fx/energy.py": (
                "GiB = 1024 ** 3\n"
                "PAGE_SIZE = 4096\n"
                "def frac(used_bytes, total_bytes):\n"
                "    return used_bytes / total_bytes\n"
                "def cap(size_bytes):\n"
                "    return size_bytes / GiB\n"
                "def count(size_bytes):\n"
                "    return size_bytes // PAGE_SIZE\n"
                "def energy(power_watts, duration_s):\n"
                "    return power_watts * duration_s\n"
                "def scaled(size_bytes):\n"
                "    return size_bytes * 4 + size_bytes\n"
                "def derated(power_watts, idle_fraction):\n"
                "    return power_watts * idle_fraction\n"
            ),
        }) == []

    def test_conversion_helper_signature_enforced(self):
        findings = _findings({
            "fx/mon.py": (
                "from repro.units import pages_to_bytes\n"
                "def publish(duration_s):\n"
                "    return pages_to_bytes(duration_s)\n"
            ),
        })
        assert [f.rule for f in findings] == ["ZL012"]
        assert "units.pages_to_bytes" in findings[0].message
        assert "expects pages" in findings[0].message

    def test_annotated_instance_attribute_carries_its_dimension(self):
        findings = _findings({
            "fx/pool.py": (
                "class Pool:\n"
                "    def __init__(self, size_bytes):\n"
                "        self.budget: int = size_bytes\n"
                "    def mix(self, wait_s):\n"
                "        return self.budget + wait_s\n"
            ),
        })
        assert [f.fingerprint for f in findings] == [
            "ZL012:fx.pool:Pool.mix:mix:bytes:seconds"]
        assert "attribute 'budget'" in findings[0].message

    def test_unknown_dimensions_stay_silent(self):
        assert _findings({
            "fx/misc.py": (
                "def blend(alpha, beta):\n"
                "    return alpha + beta\n"
            ),
        }) == []


# -- ZL013: time-domain separation --------------------------------------------

class TestTimeDomains:
    def test_sim_and_wall_seconds_never_mix(self):
        findings = _findings({
            "fx/mon.py": (
                "import time\n"
                "class Monitor:\n"
                "    def __init__(self, engine):\n"
                "        self.engine = engine\n"
                "    def lag(self):\n"
                "        return time.time() - self.engine.now\n"
            ),
        })
        assert [f.rule for f in findings] == ["ZL013"]
        assert "wall-clock time.time()" in findings[0].message
        assert "sim-seconds" in findings[0].message

    def test_sim_timestamp_into_wall_api_fires(self):
        findings = _findings({
            "fx/mon.py": (
                "import time\n"
                "class Monitor:\n"
                "    def __init__(self, engine):\n"
                "        self.engine = engine\n"
                "    def pause(self):\n"
                "        time.sleep(self.engine.now)\n"
            ),
        })
        assert [f.rule for f in findings] == ["ZL013"]
        assert "time.sleep" in findings[0].message
        assert "never leave the engine" in findings[0].message

    def test_plain_duration_into_sleep_is_clean(self):
        assert _findings({
            "fx/mon.py": (
                "import time\n"
                "def pause(duration_s):\n"
                "    time.sleep(duration_s)\n"
            ),
        }, rules={"ZL013"}) == []

    def test_sim_durations_flow_into_generic_seconds(self):
        # sim-seconds is a *refinement* of seconds: passing engine time
        # where a generic duration is expected is fine.
        assert _findings({
            "fx/mon.py": (
                "class Monitor:\n"
                "    def __init__(self, engine):\n"
                "        self.engine = engine\n"
                "    def record(self, start_s):\n"
                "        elapsed_s = self.engine.now - start_s\n"
                "        return elapsed_s\n"
            ),
        }) == []


# -- ZL014: metric unit contracts ---------------------------------------------

class TestMetricContracts:
    def test_attr_stored_counter_contract(self):
        findings = _findings({
            "fx/met.py": (
                "class Reporter:\n"
                "    def __init__(self, registry):\n"
                "        self._energy = registry.counter(\n"
                "            'dc_energy_joules_total', 'help')\n"
                "    def push(self, power_watts):\n"
                "        self._energy.inc(power_watts)\n"
            ),
        })
        assert [f.rule for f in findings] == ["ZL014"]
        finding = findings[0]
        assert "dc_energy_joules_total" in finding.message
        assert "declares joules" in finding.message
        assert "power_watts" in finding.message

    def test_local_gauge_contract(self):
        findings = _findings({
            "fx/met.py": (
                "def emit(registry, size_bytes):\n"
                "    g = registry.gauge('host_power_watts', 'help')\n"
                "    g.set(size_bytes)\n"
            ),
        })
        assert [f.rule for f in findings] == ["ZL014"]

    def test_chained_creator_call_contract(self):
        findings = _findings({
            "fx/met.py": (
                "def emit(registry, size_bytes):\n"
                "    registry.gauge('host_power_watts', 'h').set(size_bytes)\n"
            ),
        })
        assert [f.rule for f in findings] == ["ZL014"]

    def test_matching_dimension_is_clean(self):
        assert _findings({
            "fx/met.py": (
                "def emit(registry, energy_joules, power_watts):\n"
                "    registry.counter('dc_energy_joules_total', 'h')"
                ".inc(energy_joules)\n"
                "    registry.gauge('host_power_watts', 'h')"
                ".set(power_watts)\n"
            ),
        }) == []

    def test_sim_seconds_satisfy_seconds_contract(self):
        assert _findings({
            "fx/met.py": (
                "class T:\n"
                "    def __init__(self, engine, registry):\n"
                "        self.engine = engine\n"
                "        self.h = registry.histogram("
                "'req_latency_seconds', 'h')\n"
                "    def sample(self, start_s):\n"
                "        self.h.observe(self.engine.now - start_s)\n"
            ),
        }) == []

    def test_metric_read_dimension_flows_back(self):
        # inputs.value('..._joules_total') carries joules into arithmetic.
        findings = _findings({
            "fx/audit.py": (
                "def zpue(inputs, duration_s):\n"
                "    return inputs.value('dc_energy_joules_total') "
                "+ duration_s\n"
            ),
        })
        assert [f.rule for f in findings] == ["ZL012"]
        assert "metric 'dc_energy_joules_total'" in findings[0].message


# -- tables, suppression -------------------------------------------------------

class TestPlumbing:
    def test_tree_local_units_table_overrides(self):
        trees = _trees({
            "fx/units.py": (
                "METRIC_UNIT_SUFFIXES = {'_zaps': 'joules'}\n"
            ),
            "fx/met.py": (
                "def emit(registry, power_watts):\n"
                "    registry.counter('foo_zaps', 'h').inc(power_watts)\n"
            ),
        })
        findings = check_dimensions(build_graph(trees), trees)
        assert [f.rule for f in findings] == ["ZL014"]
        tables = load_unit_tables(trees)
        assert tables.metric_dim("foo_zaps") == "joules"
        # Defaults survive the overlay.
        assert tables.metric_dim("x_watts") == "watts"

    def test_line_scoped_suppression(self):
        sources = {
            "fx/energy.py": (
                "def mix(size_bytes, duration_s):\n"
                "    return size_bytes + duration_s"
                "  # zl: ignore[ZL012]\n"
            ),
        }
        assert check_sources(_sources(sources),
                             rules=["ZL012", "ZL013", "ZL014"])[0] == []

    def test_fingerprint_is_line_free(self):
        base = {
            "fx/energy.py": (
                "def mix(size_bytes, duration_s):\n"
                "    return size_bytes + duration_s\n"
            ),
        }
        shifted = {
            "fx/energy.py": (
                "X = 1\n\n\n"
                "def mix(size_bytes, duration_s):\n"
                "    return size_bytes + duration_s\n"
            ),
        }
        a = _findings(base)
        b = _findings(shifted)
        assert a[0].fingerprint == b[0].fingerprint
        assert a[0].line != b[0].line
