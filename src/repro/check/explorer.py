"""Explicit-state exploration: breadth-first search with state dedup.

The explorer walks the :class:`~repro.check.model.ProtocolModel`
breadth-first from the initial state, deduplicating states by hash (the
immutable state tuple is its own key), and expands every enabled
mutating action of every distinct state.

Violations are checked two ways per transition — step violations
returned by the action itself (an operation succeeded that must not
have) and state-level violations of the successor (e.g. two leaseholders
for one buffer).  The first violation stops the search; BFS order makes
the returned trace shortest, and a greedy
:func:`~repro.check.trace.minimize_trace` pass strips commuting noise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.check.model import ProtocolModel, State, Violation
from repro.check.trace import Trace, minimize_trace


@dataclass
class ExploreResult:
    """Outcome of one exploration run."""

    states: int                      # distinct states visited
    transitions: int                 # actions applied
    violation: Optional[Violation] = None
    trace: Optional[Trace] = None    # minimized counterexample
    raw_trace: Optional[Tuple[str, ...]] = None   # pre-minimization
    complete: bool = True            # frontier drained under max_states
    max_depth: int = 0

    @property
    def ok(self) -> bool:
        return self.violation is None


class Explorer:
    """Breadth-first explorer over a :class:`ProtocolModel`."""

    def __init__(self, model: ProtocolModel,
                 max_states: Optional[int] = None):
        self.model = model
        self.max_states = (max_states if max_states is not None
                           else model.bounds.max_states)

    # -- search -----------------------------------------------------------
    def run(self) -> ExploreResult:
        model = self.model
        initial = model.initial_state()
        result = ExploreResult(states=1, transitions=0)

        init_violations = model.state_violations(initial)
        if init_violations:
            result.violation = init_violations[0]
            result.trace = Trace(names=(), violation=init_violations[0])
            result.raw_trace = ()
            return result

        parent: Dict[State, Tuple[Optional[State], str]] = {initial: (None, "")}
        queue = deque([(initial, 0)])

        def finish(state: State, action_name: str,
                   violation: Violation) -> ExploreResult:
            names: List[str] = [action_name]
            cursor = state
            while parent[cursor][0] is not None:
                cursor, via = parent[cursor]
                names.append(via)
            raw = tuple(reversed(names))
            result.violation = violation
            result.raw_trace = raw
            result.trace = Trace(
                names=tuple(minimize_trace(model, raw, violation.kind)),
                violation=violation,
            )
            return result

        while queue:
            state, depth = queue.popleft()
            for action in model.enabled_actions(state):
                if action.readonly:
                    continue  # cannot change state nor violate anything
                successor, step_violations = action.apply()
                result.transitions += 1
                if step_violations:
                    return finish(state, action.name, step_violations[0])
                if successor is None or successor in parent:
                    continue
                parent[successor] = (state, action.name)
                result.max_depth = depth + 1
                # State-level invariants depend on the state alone, so
                # checking each distinct state once is exhaustive.
                state_violations = model.state_violations(successor)
                if state_violations:
                    return finish(state, action.name, state_violations[0])
                queue.append((successor, depth + 1))
            result.states = len(parent)
            if result.states >= self.max_states:
                result.complete = False
                break
        return result
