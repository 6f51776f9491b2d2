"""The protocol safety invariants, declared once.

This module is the single source of truth for what "safe" means on the
rack's remote-memory plane.  Both checkers consume it:

- **MemSan** (:mod:`repro.sanitize.memsan`) evaluates the *operational*
  predicates against its shadow state as hooked operations succeed at
  runtime;
- **ZomCheck** (:mod:`repro.check`) evaluates the same predicates against
  abstract model states while exhaustively exploring interleavings.

Because both tools call the same functions, the sanitizer and the model
checker cannot disagree on what constitutes a violation — a divergence
would be a bug in the *model*, whose verb universe is the same ``Method``
table the servers register from (``python -m repro.check`` refuses to
explore a model that does not cover it).

Everything here is pure: no imports from the runtime system, no state
(:func:`replicated_entries` reads a database it is handed, duck-typed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

# -- finding kinds ------------------------------------------------------------
#: Stable identifiers shared by MemSan findings and ZomCheck violations.
USE_AFTER_RECLAIM = "use-after-reclaim"
DOUBLE_FREE = "double-free"
LOST_BUFFER_ACCESS = "lost-buffer-access"
POWER_DOMAIN = "power-domain"
EPOCH_REGRESSION = "epoch-regression"
DOUBLE_LEND = "double-lend"
CPU_DEAD_DISPATCH = "cpu-dead-dispatch"
FENCED_WRITE = "fenced-write"
MIRROR_DIVERGENCE = "mirror-divergence"
DUPLICATE_EXECUTION = "duplicate-execution"

FINDING_KINDS = (USE_AFTER_RECLAIM, DOUBLE_FREE, LOST_BUFFER_ACCESS,
                 POWER_DOMAIN, EPOCH_REGRESSION, DOUBLE_LEND,
                 CPU_DEAD_DISPATCH, FENCED_WRITE, MIRROR_DIVERGENCE,
                 DUPLICATE_EXECUTION)


class ShadowState(enum.Enum):
    """Shadow allocation state of one buffer, as either checker tracks it."""

    OK = "ok"                  # leased (or re-labelled back from LOST)
    RECLAIMED = "reclaimed"    # lease revoked; host MR may still linger
    LOST = "lost"              # controller declared the serving host dead


# -- operational predicates ---------------------------------------------------
# Each answers one question about an operation that just *succeeded*; the
# callers (MemSan hooks, ZomCheck action semantics) record a violation of
# the returned kind when the answer is not None / not permitted.

def verb_violation(state: Optional[ShadowState]) -> Optional[str]:
    """A one-sided verb touched a buffer in ``state``: which violation?

    ``None``/``OK`` shadows are legal (unknown buffers are untracked local
    MRs, fresh grants legitimize any history).  RECLAIMED means the lease
    was revoked and the access went through a stale handle; LOST means the
    controller declared the serving host dead.
    """
    if state is ShadowState.RECLAIMED:
        return USE_AFTER_RECLAIM
    if state is ShadowState.LOST:
        return LOST_BUFFER_ACCESS
    return None


def verb_power_legal(cpu_alive: bool, is_zombie: bool) -> bool:
    """One-sided verbs are only legal against a host in S0 or Sz."""
    return cpu_alive or is_zombie


def epoch_regressed(watermark: Optional[int], epoch: Optional[int]) -> bool:
    """An epoch-stamped call regressed below the server's watermark.

    Epoch monotonicity is the split-brain guard: a server that has seen
    epoch N must never again act on a call stamped < N.
    """
    if watermark is None or not isinstance(epoch, int):
        return False
    return epoch < watermark


def dispatch_permitted(cpu_alive: bool) -> bool:
    """RPC dispatch needs the server CPU: a host in Sz (CPU-dead,
    memory-alive) must never run a handler."""
    return cpu_alive


def lend_conflict(prior_state: Optional[ShadowState],
                  prior_owner: Optional[str]) -> bool:
    """Granting a buffer whose previous lease is still live is a
    double-lend: two users would hold working rkeys to the same memory."""
    return prior_state is ShadowState.OK and prior_owner is not None


def double_free(already_freed: bool) -> bool:
    """Freeing a page key twice means the caller holds a stale handle."""
    return already_freed


# -- state-level predicates ---------------------------------------------------

def replicated_entries(db) -> frozenset:
    """THE definition of "replicated state", as hashable rows.

    One ``buf`` row per :class:`~repro.core.database.BufferDatabase`
    record (the model's ``(bid, host, kind, user, purpose)``, field for
    field) plus the zombie and known-host sets.  Every agreement check —
    trace replayer, stateful rack machine, chaos matrices — compares
    these rows and nothing narrower.
    """
    rows = {("buf", d.buffer_id, d.host, d.kind.value, d.user, d.purpose)
            for d in db.all_buffers()}
    rows |= {("zombie", host) for host in db.zombie_hosts}
    rows |= {("known", host) for host in db.known_hosts}
    return frozenset(rows)


def mirror_divergence(primary_entries: Iterable, standby_entries: Iterable
                      ) -> bool:
    """Primary and standby must agree on the buffer table at quiescence.

    Entries are compared as sets so representation order never matters;
    the real rack passes :func:`replicated_entries` rows, the model its
    own per-buffer tuples.
    """
    return set(primary_entries) != set(standby_entries)


def fenced_write(baseline_entries: Iterable, current_entries: Iterable
                 ) -> bool:
    """A deposed primary must fall silent after the epoch bump.

    Once a secondary promotes, its mirrored state is frozen — the only
    writer that would still target it is the fenced old primary.  Any
    drift from the at-promotion snapshot is a fenced write.
    """
    return set(baseline_entries) != set(current_entries)


def duplicate_leaseholders(holders: Iterable[Tuple[int, str]]) -> list:
    """Buffer ids leased by more than one user at once (double-lend).

    ``holders`` yields ``(buffer_id, user)`` pairs across every live
    lease; returns the offending buffer ids, sorted.
    """
    seen = {}
    dupes = set()
    for buffer_id, user in holders:
        prior = seen.setdefault(buffer_id, user)
        if prior != user:
            dupes.add(buffer_id)
    return sorted(dupes)


# -- the invariant catalogue --------------------------------------------------

@dataclass(frozen=True)
class Invariant:
    """One protocol invariant: a name, the finding kinds that signal its
    violation, and which checker(s) enforce it."""

    name: str
    kinds: Tuple[str, ...]
    description: str
    checked_by: Tuple[str, ...]   # subset of ("memsan", "zomcheck")


INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(
        "no-use-after-reclaim",
        (USE_AFTER_RECLAIM, LOST_BUFFER_ACCESS, DOUBLE_FREE),
        "a buffer lent by a zombie is never reachable after GS_reclaim / "
        "US_reclaim / US_invalidate revoked or invalidated its lease, and "
        "no page key is freed twice",
        ("memsan", "zomcheck"),
    ),
    Invariant(
        "no-double-lend",
        (DOUBLE_LEND,),
        "the controller never grants a buffer whose previous lease is "
        "still live; no two users ever hold the same buffer",
        ("memsan", "zomcheck"),
    ),
    Invariant(
        "epoch-monotonicity",
        (EPOCH_REGRESSION,),
        "no server ever acts on a control call stamped with a fencing "
        "epoch lower than one it has already seen",
        ("memsan", "zomcheck"),
    ),
    Invariant(
        "fenced-primary-silence",
        (FENCED_WRITE,),
        "a healed old primary is fenced by the epoch bump: after a "
        "promotion it can no longer mutate mirrored or rack state",
        ("zomcheck",),
    ),
    Invariant(
        "no-cpu-dead-dispatch",
        (CPU_DEAD_DISPATCH, POWER_DOMAIN),
        "a host in Sz (CPU-dead, memory-alive) never dispatches an RPC "
        "handler; one-sided verbs only succeed against S0/Sz memory paths",
        ("memsan", "zomcheck"),
    ),
    Invariant(
        "mirror-agreement",
        (MIRROR_DIVERGENCE,),
        "primary and standby secondary agree on the buffer table whenever "
        "the mirror channel is quiescent",
        ("zomcheck",),
    ),
    Invariant(
        "exactly-once-delivery",
        (DUPLICATE_EXECUTION,),
        "a re-delivered request (wire duplicate, or a retry after a lost "
        "reply) never re-executes a dedup_required verb's handler, and "
        "re-executing an idempotent verb converges to the same state",
        ("memsan", "zomcheck"),
    ),
)


def invariant_for_kind(kind: str) -> Optional[Invariant]:
    """The invariant a finding kind belongs to (kinds are unique)."""
    for invariant in INVARIANTS:
        if kind in invariant.kinds:
            return invariant
    return None
