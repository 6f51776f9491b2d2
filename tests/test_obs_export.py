"""Exporters, their validators, the report renderer and the CLI gate."""

import json

import pytest

from repro.obs import Telemetry
from repro.obs.export import (to_chrome_trace, to_prometheus_text,
                              validate_chrome_trace,
                              validate_prometheus_text)
from repro.obs.report import render_report, report_data
from repro.tables import dumps


def _populated_hub():
    tel = Telemetry(enabled=True)
    tel.registry.counter("rpc_calls_total", "Calls.", verb="GS_wake").inc(3)
    tel.registry.gauge("zombie_hosts", "Hosts in Sz.").set(2)
    hist = tel.registry.histogram("rpc_call_seconds", "Latency.",
                                  verb="GS_wake")
    hist.observe(12e-6)
    hist.observe(48e-6)
    with tel.tracer.span("call.GS_wake", node="user") as outer:
        with tel.tracer.span("serve.GS_wake", node="ctrl") as inner:
            inner.span.end_s = inner.span.start_s + 10e-6
        outer.span.end_s = outer.span.start_s + 40e-6
    tel.tracer.sample("rack_power_watts", 420.0, track="HP", time_s=3600.0)
    tel.registry.histogram("sz_dwell_seconds", "Sz stays.").observe(90.0)
    return tel


class TestPrometheusExport:
    def test_roundtrip_is_validator_clean(self):
        tel = _populated_hub()
        text = to_prometheus_text(tel.registry)
        assert validate_prometheus_text(text) == []

    def test_renders_types_series_and_buckets(self):
        text = to_prometheus_text(_populated_hub().registry)
        assert "# TYPE rpc_calls_total counter" in text
        assert '# HELP zombie_hosts Hosts in Sz.' in text
        assert 'rpc_calls_total{verb="GS_wake"} 3' in text
        assert "zombie_hosts 2" in text
        assert '# TYPE rpc_call_seconds histogram' in text
        assert 'le="+Inf"} 2' in text
        assert 'rpc_call_seconds_count{verb="GS_wake"} 2' in text

    def test_unit_metadata_derived_from_suffix_contract(self):
        # The exporter and ZL014 share repro.units.METRIC_UNIT_SUFFIXES:
        # every suffixed family gets a # UNIT line, unsuffixed ones none.
        text = to_prometheus_text(_populated_hub().registry)
        assert "# UNIT rpc_call_seconds seconds" in text
        assert "# UNIT zombie_hosts" not in text
        assert validate_prometheus_text(text) == []

    def test_validator_rejects_wrong_unit_metadata(self):
        text = to_prometheus_text(_populated_hub().registry)
        bad = text.replace("# UNIT rpc_call_seconds seconds",
                           "# UNIT rpc_call_seconds joules")
        problems = validate_prometheus_text(bad)
        assert any("suffix contract" in p for p in problems)

    def test_validator_catches_regressions(self):
        assert validate_prometheus_text("") == ["no samples at all"]
        problems = validate_prometheus_text("rogue_metric 1\n")
        assert any("no TYPE header" in p for p in problems)
        problems = validate_prometheus_text(
            "# TYPE x counter\nx{unterminated 1\n")
        assert any("malformed sample" in p for p in problems)

    def test_empty_registry_exports_empty(self):
        tel = Telemetry(enabled=True)
        assert to_prometheus_text(tel.registry) == ""


class TestChromeTraceExport:
    def test_roundtrip_is_validator_clean(self):
        tel = _populated_hub()
        text = to_chrome_trace(tel.tracer, tel.registry)
        assert validate_chrome_trace(text) == []

    def test_spans_and_samples_become_events(self):
        tel = _populated_hub()
        doc = json.loads(to_chrome_trace(tel.tracer, tel.registry))
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        counters = [e for e in events if e["ph"] == "C"]
        assert {e["name"] for e in complete} == {"call.GS_wake",
                                                "serve.GS_wake"}
        serve = next(e for e in complete if e["name"] == "serve.GS_wake")
        call = next(e for e in complete if e["name"] == "call.GS_wake")
        assert serve["args"]["parent_id"] == call["args"]["span_id"]
        assert serve["pid"] == call["pid"]  # one pid per trace
        assert serve["dur"] == pytest.approx(10.0)  # µs
        (counter,) = counters
        assert counter["name"] == "rack_power_watts"
        assert counter["args"] == {"HP": 420.0}
        assert counter["ts"] == 3600.0 * 1e6
        # Node names become thread metadata so Perfetto labels lanes.
        thread_names = [e["args"]["name"] for e in events
                        if e["ph"] == "M"]
        assert {"user", "ctrl"} <= set(thread_names)

    def test_validator_catches_regressions(self):
        assert validate_chrome_trace("{nope") == [
            "not valid JSON: Expecting property name enclosed in double "
            "quotes: line 1 column 2 (char 2)",
        ] or validate_chrome_trace("{nope")[0].startswith("not valid JSON")
        assert validate_chrome_trace('{"x": 1}') == ["missing traceEvents key"]
        broken = json.dumps({"traceEvents": [
            {"name": "a", "ph": "X", "pid": 1, "dur": 1.0, "args": {}},
        ]})
        assert any("no span_id" in p for p in validate_chrome_trace(broken))
        dangling = json.dumps({"traceEvents": [
            {"name": "a", "ph": "X", "pid": 1, "ts": 0, "dur": 1.0,
             "args": {"span_id": 5, "parent_id": 99}},
        ]})
        assert any("dangling parent" in p
                   for p in validate_chrome_trace(dangling))


class TestReport:
    def test_report_covers_every_section(self):
        report = render_report(report_data(_populated_hub(), top_n=5))
        assert "Per-verb RPC latency" in report
        assert "GS_wake" in report
        assert "Top 5 slowest spans" in report
        assert "call.GS_wake" in report
        assert "Sz residency" in report
        assert "hosts in Sz now: 2" in report
        assert "Registry census" in report
        assert "timeline samples: 1" in report

    def test_disabled_hub_renders_a_stub(self):
        report = render_report(report_data(Telemetry(enabled=False)))
        assert "DISABLED" in report

    def test_all_timeouts_verb_still_listed(self):
        """A verb whose every call failed keeps its row: '-' quantiles,
        its retries, and its failures summed over every outcome."""
        from repro.errors import RpcError, RpcTimeoutError
        from repro.rdma.fabric import Fabric
        from repro.rdma.rpc import RetryPolicy, RpcClient, RpcServer
        from repro.sim.rng import DeterministicRng

        tel = Telemetry(enabled=True)
        fabric = Fabric(telemetry=tel)
        server = RpcServer(fabric.add_node("server"))
        client = RpcClient(fabric.add_node("client"), server,
                           retry_policy=RetryPolicy(
                               max_attempts=2, rng=DeterministicRng(7)))
        fabric.partition("server")
        for _ in range(2):
            with pytest.raises(RpcTimeoutError):
                client.call("GS_wake")
        fabric.heal("server")
        with pytest.raises(RpcError):  # never registered on the server
            client.call("GS_wake")
        retries = int(tel.registry.value("rpc_retries_total", verb="GS_wake"))
        assert retries > 0
        data = report_data(tel)
        assert data["verbs"] == [{
            "verb": "GS_wake", "calls": 0, "p50_s": None, "p90_s": None,
            "p99_s": None, "retries": retries, "errors": 3,
        }]
        line = next(l for l in render_report(data).splitlines()
                    if "GS_wake" in l)
        assert line.split() == ["GS_wake", "0", "-", "-", "-",
                                str(retries), "3"]

    def test_idle_registered_verb_renders_placeholder(self):
        """A verb that never issued a call has no row: the table
        collapses to the no-calls placeholder, never a bare header."""
        tel = Telemetry(enabled=True)
        tel.registry.histogram("rpc_call_seconds", "Latency.",
                               verb="GS_wake")
        report = render_report(report_data(tel))
        assert "(no RPC calls recorded)" in report
        assert "p50" not in report           # header not rendered rowless

    def test_report_data_machine_readable(self):
        data = report_data(_populated_hub(), top_n=5)
        assert data["enabled"] is True
        assert data["verbs"][0]["verb"] == "GS_wake"
        assert data["verbs"][0]["calls"] == 2
        assert data["verbs"][0]["p50_s"] is not None
        assert data["sz_residency"]["hosts_in_sz"] == 2
        assert data["registry"]["timeline_samples"] == 1
        text = dumps(data)
        assert json.loads(text)["enabled"] is True
        assert text.endswith("\n")
        assert report_data(Telemetry(enabled=False)) == {"enabled": False}

    def test_text_carries_nothing_the_json_lacks(self):
        data = report_data(_populated_hub(), top_n=5)
        text = render_report(data)
        assert render_report(json.loads(dumps(data))) == text
        # The dwell figures the text prints are in the data.
        residency = data["sz_residency"]
        assert residency["p50_dwell_s"] == residency["max_dwell_s"] == 90.0
        assert "p50 90 s, max 90 s" in text
