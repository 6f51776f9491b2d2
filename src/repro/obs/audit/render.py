"""Render an :class:`~repro.obs.audit.engine.AuditReport`.

:func:`report_dict` is the audit as data; :func:`report_tables` reads
its rows, which both the text scorecard and the generated experiment
report's audit section render through :mod:`repro.tables`.  Three
formats, all deterministic:

- ``to_text`` — the operator-facing scorecard;
- ``to_json`` — byte-stable machine output (sorted keys, floats rounded
  to 6 decimal places, trailing newline) — the golden-baseline format;
- ``to_prometheus`` — the grades and raw values re-exported as gauges
  through a fresh registry, validated by the same
  :func:`~repro.obs.export.validate_prometheus_text` the scrapers use.
"""

from __future__ import annotations

from typing import Dict, List, Union

from repro import tables
from repro.obs.export import to_prometheus_text, validate_prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.audit.engine import AuditReport
from repro.obs.audit.grading import GRADE_POINTS


def _round(value):
    """Round floats (recursively) so JSON output is byte-stable."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v) for v in value]
    return value


def report_dict(report: AuditReport) -> Dict:
    """The canonical machine-readable form of a report."""
    return _round({
        "audit": {
            "policy": report.policy,
            "baseline_policy": report.baseline_policy,
            "profile": report.profile,
            "duration_s": report.duration_s,
            "overall_grade": report.overall_grade,
            "overall_points": report.overall_points,
        },
        "dimensions": [
            {
                "key": dim.key,
                "title": dim.title,
                "available": dim.available,
                "value": dim.value,
                "unit": dim.unit,
                "score": dim.score,
                "grade": dim.grade,
                "summary": dim.summary,
                "detail": dict(sorted(dim.detail.items())),
            }
            for dim in report.dimensions
        ],
        "recommendations": [
            {
                "rank": rank,
                "action": rec.action,
                "impact_j_per_hour": rec.impact_j_per_hour,
                "dimension": rec.dimension,
                "rationale": rec.rationale,
                "basis": dict(sorted(rec.basis.items())),
            }
            for rank, rec in enumerate(report.recommendations, start=1)
        ],
        "meta": {str(k): report.meta[k] for k in sorted(report.meta)},
    })


def to_json(report: AuditReport) -> str:
    return tables.dumps(report_dict(report))


def report_tables(data: Dict) -> List[tables.Table]:
    """The scorecard's rows, read from :func:`report_dict` data.

    One row per dimension (a not-measurable one keeps its row, with no
    score or value) and one per ranked recommendation.
    """
    dimensions = [
        (dim["title"], dim["grade"],
         dim["score"] if dim["available"] else None,
         dim["value"] if dim["available"] else None,
         dim["unit"], dim["summary"])
        for dim in data["dimensions"]
    ]
    recommendations = [
        (rec["rank"], rec["action"], rec["impact_j_per_hour"],
         rec["dimension"], rec["rationale"])
        for rec in data["recommendations"]
    ]
    return [
        tables.Table(
            "ZomAudit dimensions",
            ("dimension", "grade", "score", "value", "unit", "finding"),
            dimensions),
        tables.Table(
            "ZomAudit ranked recommendations",
            ("#", "action", "impact (J/hour)", "dimension", "why"),
            recommendations,
            empty="no recommendations: fleet is running clean"),
    ]


def to_text(report: Union[AuditReport, Dict]) -> str:
    """The operator scorecard, from a report or its :func:`report_dict`
    (``json.loads(to_json(report))`` renders the same text)."""
    data = report if isinstance(report, dict) else report_dict(report)
    audit = data["audit"]
    lines = ["== ZomAudit fleet report ==",
             f"policy: {audit['policy']}  (baseline: "
             f"{audit['baseline_policy']}, profile: {audit['profile']})"]
    if audit["duration_s"] > 0:
        lines.append(f"audited sim-time span: {audit['duration_s']:.0f} s")
    lines.append(f"overall grade: {audit['overall_grade']} "
                 f"(GPA {audit['overall_points']:.2f})")
    return "\n".join(lines) + "\n\n" + "\n".join(
        tables.to_text(table) for table in report_tables(data))


def to_prometheus(report: AuditReport) -> str:
    """Re-export the scorecard as Prometheus gauges (validated)."""
    registry = MetricsRegistry()
    overall = registry.gauge(
        "audit_overall_points",
        "Fleet audit GPA (4.0 = straight A).", policy=report.policy)
    overall.set(report.overall_points)
    for dim in report.dimensions:
        labels = dict(dimension=dim.key, policy=report.policy)
        if not dim.available:
            continue
        registry.gauge("audit_dimension_score",
                       "Calibrated audit score in [0, 1].", **labels
                       ).set(round(dim.score, 6))
        registry.gauge("audit_dimension_value",
                       "Raw audit dimension value.", **labels
                       ).set(round(dim.value, 6))
        registry.gauge("audit_dimension_grade_points",
                       "Letter grade as GPA points.", **labels
                       ).set(GRADE_POINTS[dim.grade])
    registry.gauge("audit_recommendations",
                   "Number of ranked recommendations.", policy=report.policy
                   ).set(float(len(report.recommendations)))
    if report.recommendations:
        registry.gauge(
            "audit_top_impact_j_per_hour",
            "Impact of the highest-ranked recommendation.",
            policy=report.policy
        ).set(round(report.recommendations[0].impact_j_per_hour, 6))
    text = to_prometheus_text(registry)
    problems = validate_prometheus_text(text)
    if problems:  # pragma: no cover - exporter invariant
        raise AssertionError(f"invalid audit exposition: {problems}")
    return text


RENDERERS = {"text": to_text, "json": to_json, "prom": to_prometheus}


def render(report: AuditReport, format: str = "text") -> str:
    try:
        renderer = RENDERERS[format]
    except KeyError:
        raise ValueError(f"unknown audit format {format!r} "
                         f"(choose from {sorted(RENDERERS)})")
    return renderer(report)
