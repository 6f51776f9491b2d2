"""Exporters, their validators, the report renderer and the CLI gate."""

import hashlib
import json
import tracemalloc

import pytest

from repro.obs import Telemetry
from repro.obs.__main__ import main as obs_main
from repro.obs.export import (to_chrome_trace, to_prometheus_text,
                              validate_chrome_trace,
                              validate_prometheus_text)
from repro.obs.report import render_report, report_data
from repro.obs.selfcheck import run_golden_scenario
from repro.obs.tracing import Tracer
from repro.tables import dumps

#: sha256 of the golden scenario's two exports.  Any change to a span's
#: id, parent, name, tags or width, to a series, a help text or a bucket
#: count, or to the rendering itself moves one of them.
GOLDEN_DIGESTS = {
    "chrome_trace":
        "3c5c25351e145a59e41e2593936d6aedeeaa8c010d008a0a1cdb568dd5885ec0",
    "prometheus_text":
        "e267b2ddc4d37961c53c748da238d0fca61319844fb21f7e4d7a4c437c2b9e90",
}


def _synthetic_tracer(traces: int, nodes: int, depth: int) -> Tracer:
    """``traces`` chains of ``depth`` nested spans, each on its own node
    of ``nodes``, so every trace uses ``depth`` of the ``nodes`` lanes."""
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    for t in range(traces):
        handles = []
        for level in range(depth):
            handles.append(tracer.span(f"layer{level}.op",
                                       node=f"n{(t + level) % nodes}",
                                       verb="GS_wake"))
            now[0] += 1e-6
        for handle in reversed(handles):
            now[0] += 1e-6
            tracer.finish(handle)
    return tracer


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
            inner.end_s = inner.start_s + 10e-6
        outer.end_s = outer.start_s + 40e-6
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

    def test_validator_parses_every_label_name(self):
        header = "# TYPE x_total counter\n"
        assert validate_prometheus_text(
            header + 'x_total{verb="a",node="h1"} 1\n') == []
        for bad in ('x_total{bad-label="1"} 1', 'x_total{9v="1"} 1',
                    'x_total{verb="a",="b"} 1', 'x_total{verb=a} 1'):
            problems = validate_prometheus_text(header + bad + "\n")
            assert any("label" in p for p in problems), bad

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
        def problems(*events):
            return validate_chrome_trace(json.dumps({"traceEvents": events}))

        def span(**fields):
            event = {"name": "a", "ph": "X", "pid": 1, "ts": 0, "dur": 1.0,
                     "args": {"span_id": 5}}
            event.update(fields)
            return event

        assert validate_chrome_trace("{nope") == [
            "not valid JSON: Expecting property name enclosed in double "
            "quotes: line 1 column 2 (char 2)",
        ] or validate_chrome_trace("{nope")[0].startswith("not valid JSON")
        assert validate_chrome_trace('{"x": 1}') == ["missing traceEvents key"]
        assert problems(span()) == []
        # The six structural checks.
        assert problems({"name": "a", "ph": "Q", "pid": 1}) == [
            "event 0: unknown phase 'Q'"]
        assert problems({"name": "a", "pid": 1}) == [
            "event 0: unknown phase None"]
        assert problems({"ph": "M", "pid": 1}) == [
            "event 0: missing name/pid"]
        assert problems(span(dur=-1.0)) == [
            "event 0 (a): missing/negative dur"]
        no_dur = span()
        del no_dur["dur"]
        assert problems(no_dur) == ["event 0 (a): missing/negative dur"]
        assert problems(span(args={})) == ["event 0 (a): no span_id"]
        assert problems({"name": "c", "ph": "C", "pid": 0, "args": {}}) == [
            "event 0 (c): counter w/o args"]
        assert any("dangling parent" in p
                   for p in problems(span(args={"span_id": 5,
                                                "parent_id": 99})))
        assert any("2 roots" in p for p in problems(
            span(), span(args={"span_id": 6})))
        # Malformed documents are problems too, never an exception or
        # a clean bill.
        assert problems(1, span()) == ["event 0: not an object (int)"]
        assert problems(span(dur="x")) == [
            "event 0 (a): non-numeric dur 'x'"]
        assert validate_chrome_trace('{"traceEvents": {}}') == [
            "traceEvents is not a list"]
        assert problems(span(pid=[1])) == [
            "event 0 (a): non-integer pid/span_id/parent_id"]

    def test_metadata_names_exactly_the_used_lanes(self):
        tracer = _synthetic_tracer(traces=40, nodes=10, depth=3)
        events = json.loads(to_chrome_trace(tracer))["traceEvents"]
        used = {(e["pid"], e["tid"]) for e in events if e["ph"] == "X"}
        named = [(e["pid"], e["tid"]) for e in events if e["ph"] == "M"]
        assert named[0] == (0, 0)
        assert len(named) == len(set(named))  # each lane named once
        assert set(named) == used | {(0, 0)}
        # ... and before its first span.
        seen = set()
        for e in events:
            if e["ph"] == "M":
                seen.add((e["pid"], e["tid"]))
            elif e["ph"] == "X":
                assert (e["pid"], e["tid"]) in seen

    def test_events_match_spans_and_samples_field_by_field(self):
        tracer = _synthetic_tracer(traces=20, nodes=4, depth=3)
        with tracer.span("orphan.op") as handle:  # no node tag
            handle.status = "error"
        tracer.sample("rack_power_watts", 420.0, track="HP", time_s=60.0)
        tracer.sample("rack_power_watts", 380.5, track="HP", time_s=120.0)
        events = json.loads(to_chrome_trace(tracer))["traceEvents"]
        lane_names = {(e["pid"], e["tid"]): e["args"]["name"]
                      for e in events if e["ph"] == "M"}
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(tracer.spans)
        for event, span in zip(complete, tracer.spans):
            args = dict(span.tags, span_id=span.span_id)
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            if span.status != "ok":
                args["status"] = span.status
            tid = event.pop("tid")
            assert event == {
                "name": span.name, "cat": span.name.split(".")[0],
                "ph": "X", "ts": span.start_s * 1e6,
                "dur": span.duration_s * 1e6, "pid": span.trace_id,
                "args": args,
            }
            assert lane_names[span.trace_id, tid] == span.tags.get("node",
                                                                   "?")
        assert [e for e in events if e["ph"] == "C"] == [
            {"name": s.name, "cat": "timeline", "ph": "C",
             "ts": s.time_s * 1e6, "pid": 0, "tid": 0,
             "args": {s.track: s.value}} for s in tracer.samples]

    def test_golden_exports_are_byte_identical(self, tmp_path, capsys):
        # One export streamed to a file by the CLI, one joined in memory,
        # each from its own run of the golden scenario.
        path = tmp_path / "trace.json"
        assert obs_main(["--perfetto", str(path)]) == 0
        capsys.readouterr()
        tel = run_golden_scenario().telemetry
        text = to_chrome_trace(tel.tracer, tel.registry)
        assert path.read_text(encoding="utf-8") == text
        lines = text.splitlines()
        assert len(lines) == len(json.loads(text)["traceEvents"]) + 2

    def test_export_and_validation_memory_is_bounded_by_the_text(self):
        tracer = _synthetic_tracer(traces=5_000, nodes=10, depth=4)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            text = to_chrome_trace(tracer)
            export_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert validate_chrome_trace(text) == []
            validate_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert export_peak + validate_peak <= 4 * len(text)


class TestGoldenDigests:
    def test_golden_exports_match_pinned_digests(self):
        tel = run_golden_scenario().telemetry
        exports = {
            "chrome_trace": to_chrome_trace(tel.tracer, tel.registry),
            "prometheus_text": to_prometheus_text(tel.registry),
        }
        digests = {name: hashlib.sha256(text.encode()).hexdigest()
                   for name, text in exports.items()}
        assert digests == GOLDEN_DIGESTS


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
        assert data["registry"]["samples_dropped"] == 0
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
