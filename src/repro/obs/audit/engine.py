"""The audit engine: inputs → scored report.

``run_audit`` runs the analyzer pipeline, grades the overall fleet on a
GPA over the available dimensions, and attaches the ranked quantified
recommendations.  The report is a plain frozen dataclass; rendering
(text / JSON / Prometheus) lives in :mod:`repro.obs.audit.render`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.obs.audit.analyzers import Dimension, run_analyzers
from repro.obs.audit.grading import GRADE_POINTS, letter_for_points
from repro.obs.audit.inputs import AuditInputs
from repro.obs.audit.recommend import Recommendation, run_calculators


@dataclass(frozen=True)
class AuditReport:
    """One scored fleet audit."""

    policy: str
    baseline_policy: str
    profile: str
    duration_s: float
    dimensions: Tuple[Dimension, ...]
    recommendations: Tuple[Recommendation, ...]
    overall_points: float        # GPA over available dimensions
    overall_grade: str           # letter for the GPA ("-" if nothing scored)
    meta: Dict[str, object] = field(default_factory=dict)

    def dimension(self, key: str) -> Optional[Dimension]:
        for dim in self.dimensions:
            if dim.key == key:
                return dim
        return None

    @property
    def grades(self) -> Dict[str, str]:
        """``{dimension_key: letter}`` — the regression-test contract."""
        return {dim.key: dim.grade for dim in self.dimensions}


def run_audit(inputs: AuditInputs) -> AuditReport:
    """Score every dimension, grade the fleet, rank the findings."""
    dimensions = tuple(run_analyzers(inputs))
    recommendations = tuple(run_calculators(inputs, dimensions))
    scored = [dim for dim in dimensions if dim.available]
    if scored:
        points = sum(GRADE_POINTS[dim.grade] for dim in scored) / len(scored)
        overall = letter_for_points(points)
    else:
        points, overall = 0.0, "-"
    return AuditReport(
        policy=inputs.policy, baseline_policy=inputs.baseline_policy,
        profile=inputs.profile, duration_s=inputs.duration_s,
        dimensions=dimensions, recommendations=recommendations,
        overall_points=round(points, 3), overall_grade=overall,
        meta=dict(inputs.meta))
