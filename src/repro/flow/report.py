"""Finding type and rendering shared by the ZomFlow passes.

A :class:`FlowFinding` is a :class:`repro.lint.engine.Finding` plus a
line-free *fingerprint* — the identity the baseline ratchet keys on, so
unrelated edits moving a finding a few lines never churns the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


FLOW_RULE_DESCRIPTIONS: Dict[str, str] = {
    "ZL009": "transitive sim-purity taint: a wall-clock/global-random/"
             "urandom/unordered-iteration source reaches sim context "
             "through the call graph",
    "ZL010": "yield-point atomicity: a read of shared rack state and its "
             "dependent write straddle an outgoing RPC (or yield/await) "
             "without re-validation or a fencing check in between",
    "ZL011": "error-contract flow: a raise site escapes a protocol verb "
             "handler's boundary without being declared in the errors "
             "of the verb's Method row (or the transport-retryable family)",
    "ZL012": "dimension soundness: values carrying different physical "
             "dimensions (bytes/pages/joules/watts/seconds/...) meet in "
             "+/-/comparison, a call argument, an assignment or a return "
             "whose declared dimension disagrees",
    "ZL013": "time-domain separation: a simulated-clock timestamp "
             "(engine.now) and a wall-clock value mix in arithmetic, or "
             "a sim timestamp feeds a wall-clock API",
    "ZL014": "metric unit contract: the dimension of a value passed to "
             "inc()/set()/observe() contradicts the unit declared by the "
             "metric's name suffix (_joules_total, _watts, _bytes, ...)",
}

ALL_FLOW_RULES = tuple(sorted(FLOW_RULE_DESCRIPTIONS))


@dataclass(frozen=True)
class FlowFinding:
    """One interprocedural rule violation."""

    rule: str
    path: str
    line: int
    message: str
    #: Stable, line-free identity for the baseline ratchet.
    fingerprint: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def render_findings(findings: List[FlowFinding]) -> str:
    return "\n".join(str(f) for f in findings)
