"""The ``python -m repro.obs`` gate: golden scenario, self-check, CLI."""

import pytest

from repro.obs import Telemetry
from repro.obs.__main__ import main as obs_main
from repro.obs.selfcheck import (connected_subtree, run_federation_scenario,
                                 run_golden_scenario, self_check)
from repro.obs.tracing import span_forest_errors
from repro.tour import FED_TOUR, RACK_TOUR, verbs


@pytest.fixture(scope="module")
def golden_rack():
    return run_golden_scenario()


@pytest.fixture(scope="module")
def federation():
    return run_federation_scenario()


class TestGoldenScenario:
    def test_all_intra_rack_verbs_complete_a_traced_call(self, golden_rack):
        tel = golden_rack.telemetry
        seen = {labels.get("verb") for labels
                in tel.registry.labels_for("rpc_call_seconds")}
        assert verbs(RACK_TOUR) <= seen

    def test_span_forest_is_connected(self, golden_rack):
        tracer = golden_rack.telemetry.tracer
        assert span_forest_errors(tracer.finished()) == []
        assert tracer._stack == []

    def test_non_rpc_layers_reach_the_same_hub(self, golden_rack):
        registry = golden_rack.telemetry.registry

        def total(name):
            return sum(registry.value(name, **labels)
                       for labels in registry.labels_for(name))

        assert total("hv_page_faults_total") > 0
        assert total("vm_migrations_total") >= 1
        assert total("recovery_incidents_total") >= 1
        assert total("dc_energy_joules_total") > 0
        assert golden_rack.telemetry.tracer.samples  # energy timeline

    def test_self_check_is_green(self):
        assert self_check() == []


class TestFederationScenario:
    def test_fed_verbs_complete_a_traced_call(self, federation):
        tel = federation.telemetry
        seen = {labels.get("verb") for labels
                in tel.registry.labels_for("rpc_call_seconds")}
        assert verbs(FED_TOUR) <= seen

    def test_cross_rack_borrow_is_one_connected_tree(self, federation):
        tracer = federation.telemetry.tracer
        borrows = tracer.finished("call.FED_borrow")
        assert borrows
        trace = tracer.trace(borrows[0].trace_id)
        assert span_forest_errors(trace) == []
        subtree = connected_subtree(trace, "call.FED_borrow")
        assert any(s.name == "serve.FED_borrow" for s in subtree)

    def test_rack_labelled_metrics_and_energy(self, federation):
        registry = federation.telemetry.registry
        racks = {labels.get("rack")
                 for labels in registry.labels_for("fed_rack_alive")}
        assert racks == {"rack1", "rack2"}
        assert federation.fabric.cross_rack_joules > 0
        assert registry.labels_for("fed_cross_rack_joules_total")


class TestCli:
    def test_self_check_flag_exits_zero(self, capsys):
        assert obs_main(["--self-check"]) == 0
        assert "self-check: ok (17/17 verbs traced" in capsys.readouterr().out

    def test_report_and_exports(self, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        perf = tmp_path / "trace.json"
        assert obs_main(["--prometheus", str(prom),
                         "--perfetto", str(perf), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "ZomTrace run report" in out
        assert "Top 3 slowest spans" in out

        from repro.obs.export import (validate_chrome_trace,
                                      validate_prometheus_text)
        assert validate_prometheus_text(prom.read_text()) == []
        assert validate_chrome_trace(perf.read_text()) == []


class TestQuickstartIntegration:
    def test_quickstart_accepts_a_telemetry_hub(self):
        import importlib.util
        import pathlib
        path = (pathlib.Path(__file__).resolve().parent.parent
                / "examples" / "quickstart.py")
        spec = importlib.util.spec_from_file_location("quickstart", path)
        quickstart = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(quickstart)
        tel = Telemetry(enabled=True)
        rack = quickstart.main(telemetry=tel)
        assert rack.telemetry is tel
        assert tel.registry.labels_for("rpc_call_seconds")
        assert span_forest_errors(tel.tracer.finished()) == []
