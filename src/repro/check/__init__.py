"""ZomCheck: an explicit-state model checker for the rack protocol.

The paper's correctness story rests on distributed invariants that no
single test exercises — a buffer lent by a zombie must never be reachable
after reclaim, a healed old primary must be fenced by the epoch bump, a
host in Sz must never dispatch an RPC handler.  ZomCheck extracts the
lease/epoch/power state machines behind a small :class:`ProtocolModel`
abstraction and exhaustively explores interleavings of a bounded
configuration (one primary + one secondary + a few hosts and buffers)
breadth-first, with state-hash deduplication.  Each action kind and the
verbs one step of it exercises are declared once, in
:data:`repro.check.model.KINDS`.

Invariants are declared once in :mod:`repro.check.invariants` and shared
with MemSan; every violation is reported as a minimal counterexample
trace replayable through the real system on :mod:`repro.sim.engine`
(see :mod:`repro.check.replay`).

Run it: ``python -m repro.check --bound small``; it exits 0 clean, 1 on a
violation, 2 on a verb-coverage gap and 3 when the bound's state cap cut
the exploration short.
"""

from repro.check.explorer import ExploreResult, Explorer
from repro.check.invariants import FINDING_KINDS, INVARIANTS, Invariant
from repro.check.model import BOUNDS, Action, Bounds, ProtocolModel
from repro.check.trace import Trace, minimize_trace

__all__ = [
    "Action", "Bounds", "BOUNDS", "Explorer", "ExploreResult",
    "FINDING_KINDS", "INVARIANTS", "Invariant", "ProtocolModel",
    "Trace", "minimize_trace",
]
