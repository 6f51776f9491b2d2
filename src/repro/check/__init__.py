"""ZomCheck: an explicit-state model checker for the rack protocol.

The paper's correctness story rests on distributed invariants that no
single test exercises — a buffer lent by a zombie must never be reachable
after reclaim, a healed old primary must be fenced by the epoch bump, a
host in Sz must never dispatch an RPC handler.  ZomCheck extracts the
lease/epoch/power state machines behind a small :class:`ProtocolModel`
abstraction and exhaustively explores interleavings of a bounded
configuration (one primary + one secondary + a few hosts and buffers)
with state-hash deduplication and sleep-set partial-order reduction.

Invariants are declared once in :mod:`repro.check.invariants` and shared
with MemSan; every violation is reported as a minimal counterexample
trace replayable through the real system on :mod:`repro.sim.engine`
(see :mod:`repro.check.replay`).

Run it: ``python -m repro.check --bound small``.
"""

from repro.check.explorer import ExploreResult, Explorer
from repro.check.invariants import FINDING_KINDS, INVARIANTS, Invariant
from repro.check.model import BOUNDS, Action, Bounds, ProtocolModel
from repro.check.trace import Trace, TraceStep, minimize_trace

__all__ = [
    "Action", "Bounds", "BOUNDS", "Explorer", "ExploreResult",
    "FINDING_KINDS", "INVARIANTS", "Invariant", "ProtocolModel",
    "Trace", "TraceStep", "minimize_trace",
]
