"""ZomAudit: grading, analyzers, golden determinism, CLI, regression gate."""

import json

import pytest

from repro.dc import energy_sim
from repro.dc.energy_sim import SlotPlan, plan_zombiestack
from repro.errors import ConfigurationError
from repro.obs.__main__ import main as obs_main
from repro.obs.audit import (CALIBRATIONS, AuditInputs, Calibration,
                             GOLDEN_SEEDS, letter_for_points,
                             letter_for_score, run_audit, run_golden_audit,
                             self_check, to_json, to_prometheus, to_text)
from repro.obs.audit.golden import BASELINE_PATH, baseline_payload
from repro.obs.audit.inputs import parse_series
from repro.obs.audit.render import render, report_dict
from repro.obs.export import validate_prometheus_text


# -- grading ---------------------------------------------------------------

def test_letter_bands():
    assert letter_for_score(1.0) == "A"
    assert letter_for_score(0.85) == "A"
    assert letter_for_score(0.84) == "B"
    assert letter_for_score(0.70) == "B"
    assert letter_for_score(0.55) == "C"
    assert letter_for_score(0.40) == "D"
    assert letter_for_score(0.39) == "F"
    assert letter_for_points(3.4) == "B"
    assert letter_for_points(0.4) == "F"


def test_calibration_interpolates_and_clamps():
    cal = Calibration(((0.0, 1.0), (1.0, 0.5), (2.0, 0.0)))
    assert cal.score(-5.0) == 1.0       # clamp low
    assert cal.score(0.5) == pytest.approx(0.75)
    assert cal.score(1.5) == pytest.approx(0.25)
    assert cal.score(99.0) == 0.0       # clamp high
    assert cal.grade(0.0) == "A"
    assert cal.grade(2.0) == "F"


def test_calibration_rejects_bad_anchors():
    with pytest.raises(ConfigurationError):
        Calibration(((0.0, 1.0),))                    # too few
    with pytest.raises(ConfigurationError):
        Calibration(((1.0, 1.0), (1.0, 0.5)))         # not increasing
    with pytest.raises(ConfigurationError):
        Calibration(((0.0, 1.5), (1.0, 0.0)))         # score out of range


def test_all_six_dimensions_calibrated():
    assert sorted(CALIBRATIONS) == [
        "cost_projection", "energy_per_gb", "lease_churn",
        "pue_efficiency", "stranded_memory", "zombie_conversion",
    ]


# -- inputs ----------------------------------------------------------------

def test_parse_series_roundtrip():
    assert parse_series('x_total{a="1",b="two"}') == (
        "x_total", {"a": "1", "b": "two"})
    assert parse_series("bare_gauge") == ("bare_gauge", {})


def test_inputs_series_filter_and_sum():
    inputs = AuditInputs(snapshot={
        'ops{op="a",user="u"}': 2.0,
        'ops{op="b",user="u"}': 3.0,
        'other': 7.0,
    })
    assert inputs.value("ops") == 5.0
    assert inputs.value("ops", op="a") == 2.0
    assert inputs.value("missing") == 0.0
    assert inputs.has_series("ops", op="b")
    assert not inputs.has_series("ops", op="z")


def test_empty_inputs_grade_nothing():
    report = run_audit(AuditInputs(snapshot={}))
    assert report.overall_grade == "-"
    assert all(not dim.available for dim in report.dimensions)
    assert report.recommendations == ()


# -- golden determinism (issue acceptance) ---------------------------------

def test_same_seed_three_runs_byte_identical():
    renders = [to_json(run_golden_audit(GOLDEN_SEEDS[0])) for _ in range(3)]
    assert renders[0] == renders[1] == renders[2]


def test_three_seeds_identical_grades():
    reports = {seed: run_golden_audit(seed) for seed in GOLDEN_SEEDS}
    first = reports[GOLDEN_SEEDS[0]]
    for seed in GOLDEN_SEEDS[1:]:
        assert reports[seed].grades == first.grades
        assert reports[seed].overall_grade == first.overall_grade


def test_golden_scores_all_six_dimensions():
    report = run_golden_audit(GOLDEN_SEEDS[0])
    assert len(report.dimensions) == 6
    assert all(dim.available for dim in report.dimensions)
    assert all(dim.grade in "ABCDF" for dim in report.dimensions)
    assert all(0.0 <= dim.score <= 1.0 for dim in report.dimensions)


def test_golden_has_three_quantified_recommendations():
    report = run_golden_audit(GOLDEN_SEEDS[0])
    quantified = [r for r in report.recommendations
                  if r.impact_j_per_hour > 0]
    assert len(quantified) >= 3
    impacts = [r.impact_j_per_hour for r in report.recommendations]
    assert impacts == sorted(impacts, reverse=True)  # ranked
    for rec in report.recommendations:
        assert rec.action and rec.rationale and rec.basis


def test_golden_matches_checked_in_baseline():
    assert BASELINE_PATH.exists(), \
        "run `python -m repro.obs audit --regen` and commit the baseline"
    baseline = json.loads(BASELINE_PATH.read_text())
    report = run_golden_audit(GOLDEN_SEEDS[0])
    assert report.grades == baseline["grades"]
    assert report.overall_grade == baseline["overall_grade"]
    for key, pinned in baseline["values"].items():
        dim = report.dimension(key)
        assert dim is not None and dim.available
        assert dim.value == pytest.approx(pinned, rel=baseline["tolerance"],
                                          abs=1e-6)


def test_self_check_passes():
    assert self_check() == []


def test_baseline_payload_shape():
    payload = baseline_payload(run_golden_audit(GOLDEN_SEEDS[0]))
    assert payload["scenario"] == "golden-fig10"
    assert set(payload["values"]) == set(payload["grades"])
    assert payload["recommendations"] >= 3


# -- the regression gate: a crippled fleet must fail loudly ---------------

def test_disabled_zombie_conversion_fails_the_gate(monkeypatch):
    """Zombies replaced by Oasis-style memory servers: the conversion
    dimension collapses and the baseline comparison must fail."""

    def crippled(slot, n_servers):
        plan = plan_zombiestack(slot, n_servers)
        return SlotPlan(active=plan.active, utilization=plan.utilization,
                        zombies=0.0, memory_servers=plan.zombies,
                        suspended=plan.suspended)

    monkeypatch.setitem(energy_sim.POLICIES, "ZombieStack", crippled)
    report = run_golden_audit(GOLDEN_SEEDS[0])
    conversion = report.dimension("zombie_conversion")
    assert conversion.value == 0.0
    assert conversion.grade == "F"
    baseline = json.loads(BASELINE_PATH.read_text())
    assert report.grades != baseline["grades"]
    # The gate surfaces it: the audited fleet now recommends growing the
    # zombie pool to absorb the unserved cold demand.
    assert any(rec.dimension == "zombie_conversion"
               for rec in report.recommendations)


# -- rendering -------------------------------------------------------------

def test_text_report_contents():
    text = to_text(run_golden_audit(GOLDEN_SEEDS[0]))
    assert "ZomAudit fleet report" in text
    assert "overall grade:" in text
    for title in ("Zombie conversion rate", "Stranded-memory fraction",
                  "zPUE efficiency ratio", "Energy per served GiB-hour",
                  "Lease-churn overhead", "Cost projection"):
        assert title in text
    assert "ranked recommendations" in text
    assert "J/hour" in text


def test_text_renders_from_the_json_alone():
    report = run_golden_audit(GOLDEN_SEEDS[0])
    assert to_text(json.loads(to_json(report))) == to_text(report)


def test_json_report_is_sorted_and_stable():
    report = run_golden_audit(GOLDEN_SEEDS[0])
    text = to_json(report)
    data = json.loads(text)
    assert text.endswith("\n")
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == text
    assert {d["key"] for d in data["dimensions"]} == set(report.grades)
    assert data["audit"]["overall_grade"] == report.overall_grade
    ranks = [r["rank"] for r in data["recommendations"]]
    assert ranks == list(range(1, len(ranks) + 1))


def test_prometheus_report_validates():
    text = to_prometheus(run_golden_audit(GOLDEN_SEEDS[0]))
    assert validate_prometheus_text(text) == []
    assert "audit_dimension_grade_points" in text
    assert "audit_overall_points" in text


def test_render_rejects_unknown_format():
    report = run_golden_audit(GOLDEN_SEEDS[0])
    with pytest.raises(ValueError):
        render(report, "yaml")


def test_report_dict_floats_rounded():
    def floats(value):
        if isinstance(value, float):
            yield value
        elif isinstance(value, dict):
            for child in value.values():
                yield from floats(child)
        elif isinstance(value, list):
            for child in value:
                yield from floats(child)

    data = report_dict(run_golden_audit(GOLDEN_SEEDS[0]))
    for value in floats(data):
        assert value == round(value, 6)


# -- CLI -------------------------------------------------------------------

def test_cli_audit_text(capsys):
    assert obs_main(["audit"]) == 0
    assert "ZomAudit fleet report" in capsys.readouterr().out


def test_cli_audit_json_out(tmp_path, capsys):
    out = tmp_path / "audit.json"
    assert obs_main(["audit", "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["audit"]["policy"] == "ZombieStack"
    assert len(data["dimensions"]) == 6


def test_cli_audit_prom(capsys):
    assert obs_main(["audit", "--format", "prom"]) == 0
    assert validate_prometheus_text(capsys.readouterr().out) == []


def test_cli_audit_seed_changes_values_not_grades(capsys):
    assert obs_main(["audit", "--seed", str(GOLDEN_SEEDS[1]),
                     "--format", "json", ]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["meta"]["seed"] == GOLDEN_SEEDS[1]


def test_cli_audit_self_check(capsys):
    assert obs_main(["audit", "--self-check"]) == 0
    assert "audit self-check: ok" in capsys.readouterr().out


def test_cli_audit_regen_roundtrip(tmp_path, monkeypatch, capsys):
    target = tmp_path / "BENCH_fig10_dc_energy.json"
    monkeypatch.setattr("repro.obs.audit.golden.BASELINE_PATH", target)
    assert obs_main(["audit", "--regen"]) == 0
    assert json.loads(target.read_text()) == \
        json.loads(BASELINE_PATH.read_text())
