"""Explicit-state exploration: BFS + dedup + sleep-set POR.

The explorer walks the :class:`~repro.check.model.ProtocolModel`
breadth-first from the initial state, deduplicating states by hash (the
immutable state tuple is its own key) and pruning commuting interleavings
with sleep sets: after exploring action *a* from state *s*, every
sibling explored later passes ``a`` down to its successor's sleep set if
the two actions are independent (disjoint footprints), so the redundant
``b·a`` ordering of a commuting ``a·b`` pair is never expanded.
Footprints are state-dependent (``GS_reclaim(h1)`` touches whichever
candidate buffer and user the current state yields), so each sleep-set
member carries the footprint it had when it was inserted and the
expanding action always contributes its *current* state's footprint —
never a cached first-seen one, which could misclassify a dependent pair
as independent and silently prune a distinct interleaving.

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
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.check.model import ProtocolModel, State, Violation
from repro.check.trace import Trace, TraceStep, minimize_trace


@dataclass
class ExploreResult:
    """Outcome of one exploration run."""

    states: int                      # distinct states visited
    transitions: int                 # actions applied
    violation: Optional[Violation] = None
    trace: Optional[Trace] = None    # minimized counterexample
    raw_trace: Optional[Tuple[str, ...]] = None   # pre-minimization
    complete: bool = True            # frontier drained under max_states
    sleep_skips: int = 0             # expansions pruned by POR
    max_depth: int = 0

    @property
    def ok(self) -> bool:
        return self.violation is None


class Explorer:
    """Breadth-first explorer over a :class:`ProtocolModel`."""

    def __init__(self, model: ProtocolModel, por: bool = True,
                 max_states: Optional[int] = None, minimize: bool = True):
        self.model = model
        self.por = por
        self.max_states = (max_states if max_states is not None
                           else model.bounds.max_states)
        self.minimize = minimize

    # -- search -----------------------------------------------------------
    def run(self) -> ExploreResult:
        model = self.model
        initial = model.initial_state()
        result = ExploreResult(states=1, transitions=0)

        init_violations = model.state_violations(initial)
        if init_violations:
            result.violation = init_violations[0]
            result.trace = Trace(steps=(), violation=init_violations[0])
            result.raw_trace = ()
            return result

        parent: Dict[State, Tuple[Optional[State], str]] = {initial: (None, "")}
        #: Antichain of sleep sets each state was ever queued with; a new
        #: entry only re-queues the state when no recorded sleep set is a
        #: subset of it (i.e. it genuinely permits a new action).  Sleep
        #: sets are frozensets of (name, footprint-at-insertion) pairs.
        queued_sleeps: Dict[State, List[FrozenSet[Tuple[str, FrozenSet]]]] = {
            initial: [frozenset()]
        }
        depth: Dict[State, int] = {initial: 0}
        queue = deque([(initial, frozenset())])

        def path_to(state: State, last: str) -> Tuple[str, ...]:
            names: List[str] = [last]
            cursor = state
            while True:
                prev, via = parent[cursor]
                if prev is None:
                    break
                names.append(via)
                cursor = prev
            return tuple(reversed(names))

        def finish(state: State, action_name: str,
                   violation: Violation) -> ExploreResult:
            raw = path_to(state, action_name)
            result.violation = violation
            result.raw_trace = raw
            if self.minimize:
                names = minimize_trace(model, raw, violation.kind)
            else:
                names = list(raw)
            result.trace = Trace(
                steps=tuple(TraceStep(n) for n in names),
                violation=violation,
            )
            return result

        while queue:
            state, sleep = queue.popleft()
            actions = model.enabled_actions(state)
            # name -> footprint recorded when the action entered the set.
            current_sleep: Dict[str, FrozenSet] = dict(sleep)
            for action in actions:
                if action.readonly:
                    continue  # cannot change state nor violate anything
                if action.name in current_sleep:
                    result.sleep_skips += 1
                    continue
                successor, step_violations = action.apply()
                result.transitions += 1
                if step_violations:
                    return finish(state, action.name, step_violations[0])
                if successor is None:
                    current_sleep[action.name] = action.footprint
                    continue
                if successor not in parent:
                    parent[successor] = (state, action.name)
                    depth[successor] = depth[state] + 1
                    result.max_depth = max(result.max_depth,
                                           depth[successor])
                    # State-level invariants depend on the state alone, so
                    # checking each distinct state once is exhaustive.
                    state_violations = model.state_violations(successor)
                    if state_violations:
                        return finish(state, action.name,
                                      state_violations[0])
                if self.por and current_sleep:
                    fp = action.footprint  # this state's, never cached
                    child_sleep = frozenset(
                        (name, other_fp)
                        for name, other_fp in current_sleep.items()
                        if not (other_fp & fp)
                    )
                else:
                    child_sleep = frozenset()
                recorded = queued_sleeps.setdefault(successor, [])
                if not any(prev <= child_sleep for prev in recorded):
                    recorded[:] = [prev for prev in recorded
                                   if not (child_sleep <= prev)]
                    recorded.append(child_sleep)
                    queue.append((successor, child_sleep))
                current_sleep[action.name] = action.footprint
            result.states = len(parent)
            if result.states >= self.max_states:
                result.complete = False
                break
        return result
