"""Counterexample traces: representation, re-simulation, minimization.

A trace is just the ordered list of action *names* from the initial
state; names encode their parameters (``GS_reclaim(h2)``), so a trace is
replayable both through the model (:func:`run_trace`) and through the
real system on ``sim.engine`` (:mod:`repro.check.replay`).

The explorer's BFS already yields a shortest-path counterexample, but
shortest is not minimal: commuting noise steps can ride along.  So every
reported trace additionally goes through :func:`minimize_trace`, a
greedy delta-debugging pass that drops any step whose removal leaves a
valid trace still violating the same invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.check.model import ProtocolModel, Violation


@dataclass(frozen=True)
class Trace:
    """A violating run: the step names from the initial state, and the
    finding."""

    names: Tuple[str, ...]
    violation: Violation

    def format(self) -> str:
        lines = [f"violation: {self.violation.kind}",
                 f"  {self.violation.message}",
                 f"trace ({len(self.names)} steps):"]
        for n, name in enumerate(self.names, 1):
            lines.append(f"  {n:2d}. {name}")
        return "\n".join(lines)


@dataclass(frozen=True)
class TraceRun:
    """Outcome of re-simulating a candidate trace through the model."""

    valid: bool                      # every step was enabled in sequence
    violations: Tuple[Violation, ...]

    def violates(self, kind: str) -> bool:
        return any(v.kind == kind for v in self.violations)


def run_trace(model: ProtocolModel, names: Sequence[str]) -> TraceRun:
    """Deterministically re-execute ``names`` from the initial state."""
    state = model.initial_state()
    collected: List[Violation] = []
    collected.extend(model.state_violations(state))
    for name in names:
        action = model.action_by_name(state, name)
        if action is None:
            return TraceRun(valid=False, violations=tuple(collected))
        new_state, step_violations = action.apply()
        collected.extend(step_violations)
        if new_state is not None:
            state = new_state
            collected.extend(model.state_violations(state))
    return TraceRun(valid=True, violations=tuple(collected))


def minimize_trace(model: ProtocolModel, names: Sequence[str],
                   kind: Optional[str] = None) -> List[str]:
    """Greedy delta-debugging: drop steps while the violation survives.

    ``kind`` pins the finding the minimized trace must still produce;
    when None it is taken from the full trace's first violation.  The
    input must itself be a valid violating trace.
    """
    current = list(names)
    baseline = run_trace(model, current)
    if not baseline.valid or not baseline.violations:
        raise ValueError("minimize_trace needs a valid violating trace")
    if kind is None:
        kind = baseline.violations[0].kind
    if not baseline.violates(kind):
        raise ValueError(f"trace does not violate {kind!r}")
    shrunk = True
    while shrunk:
        shrunk = False
        # Drop later steps first: the violating step itself is near the
        # end and everything after it is trivially removable.
        for index in range(len(current) - 1, -1, -1):
            candidate = current[:index] + current[index + 1:]
            run = run_trace(model, candidate)
            if run.valid and run.violates(kind):
                current = candidate
                shrunk = True
    return current
