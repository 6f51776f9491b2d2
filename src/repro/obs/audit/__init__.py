"""ZomAudit: scored fleet energy audits over ZomTrace telemetry.

The audit engine consumes a :class:`~repro.obs.MetricsRegistry`
snapshot, :class:`~repro.core.events.EventLog` counts and energy-meter
output from any run and produces one scored report: six dimensions
(zombie conversion, stranded memory, zPUE, energy per served GiB-hour,
lease churn, cost projection), each graded A–F against calibrated
thresholds, plus ranked recommendations quantified in joules/hour.
See docs/AUDIT.md.

    from repro.obs.audit import collect_inputs, run_audit, to_text
    report = run_audit(collect_inputs(tel, rack=rack, monitor=monitor))
    print(to_text(report))
"""

from repro.obs.audit.analyzers import (DEFAULT_ANALYZERS, Analyzer,
                                       Dimension, run_analyzers)
from repro.obs.audit.engine import AuditReport, run_audit
from repro.obs.audit.golden import (GOLDEN_SEEDS, regen_baseline,
                                    run_golden_audit, self_check)
from repro.obs.audit.grading import (CALIBRATIONS, GRADE_POINTS, Calibration,
                                     letter_for_points, letter_for_score)
from repro.obs.audit.inputs import AuditInputs, HostSample, collect_inputs
from repro.obs.audit.recommend import (DEFAULT_CALCULATORS, ImpactCalculator,
                                       Recommendation, run_calculators)
from repro.obs.audit.render import (render, report_dict, report_tables,
                                    to_json, to_prometheus, to_text)

__all__ = [
    "Analyzer", "AuditInputs", "AuditReport", "CALIBRATIONS", "Calibration",
    "DEFAULT_ANALYZERS", "DEFAULT_CALCULATORS", "Dimension", "GOLDEN_SEEDS",
    "GRADE_POINTS", "HostSample", "ImpactCalculator", "Recommendation",
    "collect_inputs", "letter_for_points", "letter_for_score",
    "regen_baseline", "render", "report_dict", "report_tables",
    "run_analyzers", "run_audit",
    "run_calculators", "run_golden_audit", "self_check", "to_json",
    "to_prometheus", "to_text",
]
