"""The bounded protocol model ZomCheck explores.

:class:`ProtocolModel` abstracts the lease/epoch/power state machines of
``core/controller.py``, ``core/secondary.py``, ``core/manager.py``,
``core/recovery.py`` and ``acpi/power.py`` into an explicit-state
transition system small enough to exhaust:

- a **state** is one immutable snapshot of the rack: per-host power
  (S0/Sz), reachability, crash flag, lender MR records, user-side lease
  beliefs and fencing watermark, plus the acting controller's buffer
  table, zombie set, lost set, pending resyncs, promotion/fencing flags
  and the shared shadow map (:class:`~repro.check.invariants.ShadowState`
  per buffer);
- an **action** is one atomic protocol step — a GS_ handler call with the
  agent calls it embeds (real handlers run synchronously over RPC, so
  one handler call *is* atomic with its nested ``US_``/``AS_`` calls), a
  fault from the PR 1 :mod:`~repro.core.recovery` FaultSchedule
  vocabulary (partition / heal / crash / kill-controller), a failover
  promotion, or a stale mirror write from the deposed primary.
  One-sided RDMA verbs are checked per *state* instead of per action
  (see :meth:`ProtocolModel.state_violations`): a verb never changes
  protocol state, so interleaving it as an action would only multiply
  the search space without reaching anything new.

Abstractions (documented in docs/MODELCHECK.md): buffer ids are fixed
per host instead of freshly carved, allocations move one buffer at a
time, rack-wide invalidation on host loss is atomic (every affected
user is notified in the same step — made eventually true in the real
tree by the recovery coordinator's pending-invalidate queue), and the
mirror channel to the standby is synchronous and lossless.

The model's verb universe is :class:`repro.core.protocol.Method` — the
table ``RpcServer.register`` serves from — so there is no verb list here
to drift; :meth:`ProtocolModel.verb_contract_errors` checks that the
action set covers exactly that table.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial, partialmethod
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.check import invariants
from repro.check.invariants import ShadowState
from repro.check.mutants import MUTANTS
from repro.core.protocol import READ_ONLY, Method

S0 = "S0"
SZ = "Sz"


def host_name(idx: int) -> str:
    """The name host index ``idx`` has in traces and messages."""
    return f"h{idx + 1}"


@dataclass(frozen=True)
class Bounds:
    """One bounded configuration: hosts, buffers, racks and fault budget."""

    name: str
    hosts: int = 3
    buffers_per_host: int = 1
    max_faults: int = 2
    max_leases_per_user: int = 2
    #: Explorer stops (cleanly, marked incomplete) past this many states.
    max_states: int = 200_000
    #: Hosts are split into this many contiguous racks; with 2+ racks the
    #: cross-rack ``FED_borrow``/``FED_return`` actions become enabled and
    #: the fencing/epoch invariants are checked across rack boundaries.
    racks: int = 1

    def host_names(self) -> Tuple[str, ...]:
        return tuple(host_name(i) for i in range(self.hosts))

    def own_bids(self, host: int) -> Tuple[int, ...]:
        base = host * self.buffers_per_host
        return tuple(range(base + 1, base + 1 + self.buffers_per_host))

    def owner_of(self, bid: int) -> int:
        return (bid - 1) // self.buffers_per_host

    def rack_of(self, host: int) -> int:
        """Contiguous host→rack mapping (``h1..hk`` fill rack 0 first)."""
        return host * self.racks // self.hosts

    def rack_name(self, host: int) -> str:
        return f"r{self.rack_of(host) + 1}"


#: Named configurations.  ``tiny`` is for unit tests (sub-second);
#: ``small`` is the CI gate — it drains *completely* (~130k distinct
#: states) in well under a minute; ``medium`` widens the fault budget
#: and per-user lease bound and takes several minutes.
BOUNDS: Dict[str, Bounds] = {
    "tiny": Bounds("tiny", hosts=2, buffers_per_host=1, max_faults=1,
                   max_leases_per_user=1, max_states=20_000),
    "small": Bounds("small", hosts=3, buffers_per_host=1, max_faults=1,
                    max_leases_per_user=1, max_states=150_000),
    "medium": Bounds("medium", hosts=3, buffers_per_host=1, max_faults=2,
                     max_leases_per_user=2, max_states=2_000_000),
    # 2-rack federation bound: h1/h2 in rack r1, h3 in rack r2, with the
    # cross-rack FED_borrow/FED_return actions enabled so fencing/epoch
    # invariants are checked across the rack boundary (the CI gate for
    # ZomFed; must drain completely).
    "fed": Bounds("fed", hosts=3, buffers_per_host=1, max_faults=1,
                  max_leases_per_user=1, max_states=600_000, racks=2),
}


#: One immutable model state.  Every field is hashable; the namedtuple
#: itself is the dedup key.  ``db`` maps buffer -> (host, kind, user,
#: purpose) as a frozenset of 5-tuples; ``shadow`` carries the
#: :class:`ShadowState` value string per buffer ever leased.
State = namedtuple("State", [
    "power",          # Tuple[str, ...]            per-host S0 | Sz
    "reach",          # Tuple[bool, ...]           fabric reachability
    "crashed",        # Tuple[bool, ...]           DRAM lost until heal
    "lent",           # Tuple[FrozenSet[int], ...] lender-side MR records
    "leases",         # Tuple[FrozenSet[int], ...] user-side store beliefs
    "marks",          # Tuple[int, ...]            agent fencing watermarks
    "db",             # FrozenSet[(bid, host, kind, user, purpose)]
    "zombies",        # FrozenSet[int]             controller's zombie set
    "lost",           # FrozenSet[int]             declared-lost hosts
    "resync",         # Tuple[(host, FrozenSet[int]), ...] pending AS_resync
    "primary_alive",  # bool   heartbeat path to the primary works
    "epoch",          # int    acting controller's fencing epoch
    "promoted",       # bool   secondary has taken over
    "deposed_fenced", # bool   old primary learned it was deposed
    "tainted",        # bool   standby mutated by a stale (unfenced) write
    "shadow",         # Tuple[(bid, str), ...]     ShadowState value per bid
    "faults",         # int    fault budget consumed
])


@dataclass(frozen=True)
class Violation:
    """One invariant violation: a finding kind shared with MemSan plus a
    human-readable account of the step that tripped it."""

    kind: str
    message: str


#: Every model action kind, declared once: the verbs one step of it
#: exercises.  :meth:`ProtocolModel.action_verbs` is their union, which
#: ``verb_contract_errors`` holds to ``Method``; a kind that is itself a
#: ``Method`` verb of a class other than ``read_only`` also gets a
#: ``dup_`` twin.
KINDS: Dict[str, Tuple[str, ...]] = {
    "GS_goto_zombie": ("GS_goto_zombie", "mirror_op"),
    "GS_wake": ("GS_wake", "mirror_op"),
    "GS_reclaim": ("GS_reclaim", "US_reclaim", "mirror_op"),
    "GS_alloc_ext": ("GS_alloc_ext", "AS_get_free_mem", "US_reclaim",
                     "mirror_op"),
    "GS_alloc_swap": ("GS_alloc_swap", "AS_get_free_mem", "mirror_op"),
    "GS_release": ("GS_release", "mirror_op"),
    "GS_transfer": ("GS_transfer", "mirror_op"),
    "FED_borrow": ("FED_borrow", "mirror_op"),
    "FED_return": ("FED_return", "mirror_op"),
    "GS_report_failure": ("GS_report_failure", "US_invalidate", "mirror_op"),
    "probe_recover": ("heartbeat", "AS_resync"),
    "AS_resync": ("AS_resync",),
    "partition": (),
    "crash": (),
    "heal": (),
    "kill_controller": (),
    "promote": ("heartbeat", "mirror_op"),
    "stale_mirror_op": ("mirror_op",),
    "GS_get_lru_zombie": ("GS_get_lru_zombie",),
    "heartbeat": ("heartbeat",),
    "lose_message": (),
}


class Action:
    """One enabled transition out of ``state``: ``step(state, *args)``.

    ``kind`` is a :data:`KINDS` key, or ``dup_`` plus one; ``args`` are
    host indices, which the ``name`` used in traces spells out
    (``GS_transfer(h1,h2)``).  A ``readonly`` action has no step: it can
    never change state nor violate an invariant.

    A plain ``__slots__`` class, not a dataclass: the explorer creates
    millions of these and attribute-dict overhead dominates otherwise.
    """

    __slots__ = ("kind", "state", "step", "args")

    def __init__(self, kind: str, state: State,
                 step: Optional[Callable[..., Tuple[Optional[State],
                                                    Tuple["Violation", ...]]]],
                 *args: int):
        self.kind = kind
        self.state = state
        self.step = step
        self.args = args

    @property
    def name(self) -> str:
        if not self.args:
            return self.kind
        return f"{self.kind}({','.join(map(host_name, self.args))})"

    @property
    def readonly(self) -> bool:
        return self.step is None

    def apply(self) -> Tuple[Optional[State], Tuple["Violation", ...]]:
        if self.step is None:
            return None, ()
        return self.step(self.state, *self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Action({self.name!r})"


class _W:
    """Mutable working copy of a :class:`State` for building successors."""

    __slots__ = ("bounds", "power", "reach", "crashed", "lent", "leases",
                 "marks", "db", "zombies", "lost", "resync", "primary_alive",
                 "epoch", "promoted", "deposed_fenced", "tainted", "shadow",
                 "faults", "violations")

    def __init__(self, st: State, bounds: Bounds):
        self.bounds = bounds
        self.power = list(st.power)
        self.reach = list(st.reach)
        self.crashed = list(st.crashed)
        # Copy-on-write: entries stay frozensets until mlent/mleases
        # replaces one with a mutable copy (freeze() handles both).
        self.lent = list(st.lent)
        self.leases = list(st.leases)
        self.marks = list(st.marks)
        self.db = {bid: (host, kind, user, purpose)
                   for bid, host, kind, user, purpose in st.db}
        self.zombies = set(st.zombies)
        self.lost = set(st.lost)
        self.resync = {h: set(ids) for h, ids in st.resync}
        self.primary_alive = st.primary_alive
        self.epoch = st.epoch
        self.promoted = st.promoted
        self.deposed_fenced = st.deposed_fenced
        self.tainted = st.tainted
        self.shadow = dict(st.shadow)
        self.faults = st.faults
        self.violations: List[Violation] = []

    def mlent(self, idx: int) -> set:
        entry = self.lent[idx]
        if not isinstance(entry, set):
            entry = set(entry)
            self.lent[idx] = entry
        return entry

    def mleases(self, idx: int) -> set:
        entry = self.leases[idx]
        if not isinstance(entry, set):
            entry = set(entry)
            self.leases[idx] = entry
        return entry

    def freeze(self) -> State:
        return State(
            power=tuple(self.power),
            reach=tuple(self.reach),
            crashed=tuple(self.crashed),
            lent=tuple(s if isinstance(s, frozenset) else frozenset(s)
                       for s in self.lent),
            leases=tuple(s if isinstance(s, frozenset) else frozenset(s)
                         for s in self.leases),
            marks=tuple(self.marks),
            db=frozenset((bid,) + rec for bid, rec in self.db.items()),
            zombies=frozenset(self.zombies),
            lost=frozenset(self.lost),
            resync=tuple(sorted((h, frozenset(ids))
                                for h, ids in self.resync.items() if ids)),
            primary_alive=self.primary_alive,
            epoch=self.epoch,
            promoted=self.promoted,
            deposed_fenced=self.deposed_fenced,
            tainted=self.tainted,
            shadow=tuple(sorted(self.shadow.items())),
            faults=self.faults,
        )


class ProtocolModel:
    """The bounded transition system ZomCheck explores.

    ``mutant`` (one of :data:`repro.check.mutants.MUTANTS`, or None)
    seeds a known protocol bug into the action semantics, mirroring the
    concrete monkeypatch in :mod:`repro.check.mutants` so counterexamples
    replay 1:1.
    """

    def __init__(self, bounds: Bounds, mutant: Optional[str] = None):
        if mutant is not None and mutant not in MUTANTS:
            raise ValueError(f"unknown mutant {mutant!r}; pick from {MUTANTS}")
        self.bounds = bounds
        self.mutant = mutant
        self._initial_epoch = 1
        #: Class per verb whose re-delivery is a step of its own: an
        #: action of such a kind gets a ``dup_`` twin.  Read-only verbs
        #: re-execute for free and get none.
        self._dup_classes = {m.value: m.idempotency for m in Method
                             if m.idempotency != READ_ONLY}

    # -- states -----------------------------------------------------------
    def initial_state(self) -> State:
        n = self.bounds.hosts
        return State(
            power=(S0,) * n,
            reach=(True,) * n,
            crashed=(False,) * n,
            lent=(frozenset(),) * n,
            leases=(frozenset(),) * n,
            marks=(self._initial_epoch,) * n,
            db=frozenset(),
            zombies=frozenset(),
            lost=frozenset(),
            resync=(),
            primary_alive=True,
            epoch=self._initial_epoch,
            promoted=False,
            deposed_fenced=False,
            tainted=False,
            shadow=(),
            faults=0,
        )

    def state_violations(self, st: State) -> List[Violation]:
        """Invariants judged on a whole state rather than a step.

        The one-sided-verb invariants are evaluated here rather than as
        explicit ``rdma_access`` actions: a user in S0 can issue a verb
        against any lease it holds at any moment, the verb never changes
        protocol state, and whether it violates depends only on the
        current state — so checking every holdable lease per state is
        exactly equivalent to interleaving access actions, minus the
        exponential noise.
        """
        out: List[Violation] = []
        holders = [(bid, host_name(u))
                   for u in range(self.bounds.hosts) for bid in st.leases[u]]
        dupes = invariants.duplicate_leaseholders(holders)
        if dupes:
            out.append(Violation(
                invariants.DOUBLE_LEND,
                f"buffers {dupes} are leased by more than one user at once",
            ))
        if st.tainted:
            out.append(Violation(
                invariants.MIRROR_DIVERGENCE,
                "standby state diverged from the promoted primary: a stale "
                "write from the deposed controller was applied",
            ))
        shadow = dict(st.shadow)
        for user in range(self.bounds.hosts):
            if st.power[user] != S0 or not st.reach[user]:
                continue  # this user cannot issue verbs right now
            for bid in st.leases[user]:
                lender = self.bounds.owner_of(bid)
                served = (st.reach[lender] and not st.crashed[lender]
                          and bid in st.lent[lender]
                          and invariants.verb_power_legal(
                              st.power[lender] == S0,
                              st.power[lender] == SZ))
                if not served:
                    continue  # defended failure: the verb raises
                raw = shadow.get(bid)
                kind = invariants.verb_violation(
                    ShadowState(raw) if raw else None)
                if kind:
                    out.append(Violation(
                        kind,
                        f"one-sided verb from {host_name(user)} can "
                        f"touch buffer {bid} on {host_name(lender)} "
                        f"whose shadow state is {raw}",
                    ))
        return out

    # -- actions ----------------------------------------------------------
    def enabled_actions(self, st: State) -> List[Action]:
        acts: List[Action] = []
        b = self.bounds
        hosts = range(b.hosts)
        db = {bid: (host, kind, user, purpose)
              for bid, host, kind, user, purpose in st.db}

        def deliverable(idx: int) -> bool:
            """Can the controller complete an agent call to host idx?"""
            return st.reach[idx] and (st.power[idx] == S0
                                      or self.mutant == "dispatch-in-sz")

        for i in hosts:
            up = st.power[i] == S0 and st.reach[i]
            # GS_goto_zombie: announce Sz entry, lend all free local memory.
            if up and i not in st.lost:
                acts.append(Action("GS_goto_zombie", st, self._goto_zombie, i))
            # GS_wake: resume to S0, buffers re-labelled active.
            if st.power[i] == SZ and st.reach[i] and i not in st.lost:
                acts.append(Action("GS_wake", st, self._wake, i))
            # GS_reclaim: a lender takes one buffer back (unallocated
            # first, then revoking via US_reclaim).
            if up:
                cands = sorted(
                    (db[x][2] is not None, x)
                    for x in st.lent[i] if x in db
                )
                if cands:
                    allocated, bid = cands[0]
                    if not allocated or deliverable(db[bid][2]):
                        acts.append(Action("GS_reclaim", st, self._reclaim, i))
            # GS_alloc_ext / GS_alloc_swap: user asks for one buffer.
            if up and len(st.leases[i]) < b.max_leases_per_user:
                acts.append(Action("GS_alloc_ext", st, self._alloc_ext, i))
                acts.append(Action("GS_alloc_swap", st, self._alloc_swap, i))
            # GS_release / GS_transfer: the user returns one buffer it
            # holds, or migrates its ownership i -> j.
            if up and any(x in db and db[x][2] == i for x in st.leases[i]):
                acts.append(Action("GS_release", st, self._release, i))
                for j in hosts:
                    if (j != i and st.power[j] == S0 and st.reach[j]
                            and len(st.leases[j]) < b.max_leases_per_user):
                        acts.append(Action("GS_transfer", st, self._transfer,
                                           i, j))
            # FED_borrow / FED_return: cross-rack lending (only meaningful
            # with 2+ racks).  Borrow grants a free buffer served by a
            # *foreign-rack* host to this user via an epoch-stamped import
            # delivery; return releases a fed-purpose lease.
            if b.racks >= 2 and up:
                if (len(st.leases[i]) < b.max_leases_per_user
                        and any(rec[2] is None
                                and b.rack_of(rec[0]) != b.rack_of(i)
                                for rec in db.values())):
                    acts.append(Action("FED_borrow", st, self._fed_borrow, i))
                if any(x in db and db[x][2] == i and db[x][3] == "fed"
                       for x in st.leases[i]):
                    acts.append(Action("FED_return", st, self._fed_return, i))
            # GS_report_failure: an unreachable host is declared lost and
            # its buffers invalidated rack-wide (atomic in the model).
            if not st.reach[i] and i not in st.lost:
                if all(deliverable(rec[2]) for rec in db.values()
                       if rec[0] == i and rec[2] is not None):
                    acts.append(Action("GS_report_failure", st,
                                       self._declare_lost, i))
            # probe_recover: a lost host answers probes again.
            if i in st.lost and st.reach[i]:
                acts.append(Action("probe_recover", st, self._recover, i))
            # AS_resync: flush a pending resync that could not run at
            # recovery time (host was still CPU-dead).
            if up and i not in st.lost and dict(st.resync).get(i):
                acts.append(Action("AS_resync", st, self._resync_flush, i))
            # Faults, from the FaultSchedule vocabulary.
            if st.reach[i] and st.faults < b.max_faults:
                acts.append(Action("partition", st, self._partition, i))
                if not st.crashed[i]:
                    acts.append(Action("crash", st, self._crash, i))
            if not st.reach[i]:
                acts.append(Action("heal", st, self._heal, i))

        # Controller-side actions.
        if st.primary_alive and not st.promoted and st.faults < b.max_faults:
            acts.append(Action("kill_controller", st, self._kill_controller))
        if not st.primary_alive and not st.promoted:
            acts.append(Action("promote", st, self._promote))
        if st.promoted and not st.deposed_fenced:
            acts.append(Action("stale_mirror_op", st, self._stale_mirror))
        # Read-only probes: part of the verb contract, never expanded.
        if any(st.power[x] == S0 and st.reach[x] for x in hosts):
            acts.append(Action("GS_get_lru_zombie", st, None))
        acts.append(Action("heartbeat", st, None))
        # lose_message: a request (or its reply *before* any execution)
        # dropped on the wire.  Observationally a stutter — the client
        # times out and retries, and the retry is the base action itself,
        # which the explorer already interleaves.  A reply lost *after*
        # execution is a re-delivery, which is exactly the dup_ variant.
        acts.append(Action("lose_message", st, None))
        self._add_dup_actions(acts)
        acts.sort(key=lambda a: a.name)
        return acts

    def _add_dup_actions(self, acts: List[Action]) -> None:
        """Add a ``dup_`` variant per enabled mutating verb action.

        ``dup_X`` models the same logical request delivered twice: a wire
        duplicate, or a client retry after the first reply was lost.  For
        ``dedup_required`` verbs the server's dedup table replays the
        cached response, so the successor equals single delivery (under
        the ``no-dedup`` mutant the handler re-executes instead, which is
        itself the violation).  For ``idempotent`` verbs the handler
        genuinely re-executes and the model asserts convergence.
        """
        acts.extend(
            Action(f"dup_{act.kind}", act.state,
                   partial(self._dup, act.kind, act.step), *act.args)
            for act in list(acts) if act.kind in self._dup_classes)

    def _dup(self, kind: str, step, st: State, *args: int):
        """Deliver the ``kind`` step ``step(st, *args)`` twice.

        The second delivery bypasses the enabled-action guards, exactly
        like a retransmission reaching a handler whose preconditions have
        moved on; a step answering ``(None, ())`` refused it.
        """
        s1, v1 = step(st, *args)
        if s1 is None:
            return None, v1
        if self._dup_classes[kind] == "dedup_required":
            if self.mutant != "no-dedup":
                # Dedup table replays the cached response: the second
                # delivery is absorbed, successor is single delivery.
                return s1, v1
            s2, v2 = step(s1, *args)
            viol = Violation(
                invariants.DUPLICATE_EXECUTION,
                f"re-delivered {Action(kind, st, step, *args).name} "
                "re-executed its handler: the verb is dedup_required, so "
                "the duplicate must be answered from the dedup table, "
                "never re-run",
            )
            if s2 is None:
                return s1, v1 + (viol,)
            return s2, v1 + v2 + (viol,)
        # Idempotent verbs re-execute; re-execution must converge.
        s2, v2 = step(s1, *args)
        if s2 is None:
            return s1, v1
        if s2 != s1:
            return s2, v1 + v2 + (Violation(
                invariants.DUPLICATE_EXECUTION,
                f"{Action(kind, st, step, *args).name} is declared "
                "idempotent but re-delivery moved the state again: "
                "re-execution did not converge",
            ),)
        return s2, v1 + v2

    def action_by_name(self, st: State, name: str) -> Optional[Action]:
        for action in self.enabled_actions(st):
            if action.name == name:
                return action
        return None

    def verb_contract_errors(self) -> List[str]:
        """Coverage gaps between the ``Method`` table and the action set.

        Each message carries the configured host/rack layout so a
        counterexample replayed from a multi-rack bound is attributable
        to the right rack.
        """
        declared = {m.value for m in Method}
        emitted = self.action_verbs()
        layout = (f"bound {self.bounds.name!r}: {self.bounds.hosts} hosts "
                  f"in {self.bounds.racks} rack(s)")
        errors = [
            f"model action verb {verb!r} is not a protocol Method "
            f"({layout})"
            for verb in sorted(emitted - declared)
        ]
        errors += [
            f"protocol verb {verb!r} is never emitted by any model "
            f"action ({layout})"
            for verb in sorted(declared - emitted)
        ]
        return errors

    def action_verbs(self) -> FrozenSet[str]:
        """Union of verbs over every action kind in :data:`KINDS`."""
        return frozenset().union(*KINDS.values())

    # -- shared step helpers ----------------------------------------------
    def _dispatch(self, w: _W, idx: int) -> bool:
        """Deliver one epoch-stamped agent call to host ``idx``.

        Returns False when the real system would time the call out (CPU
        dead); under the dispatch-in-sz mutant the call goes through and
        the violation is recorded, exactly like the concrete patch.
        """
        cpu_alive = w.power[idx] == S0
        if not invariants.dispatch_permitted(cpu_alive):
            if self.mutant != "dispatch-in-sz":
                return False
            w.violations.append(Violation(
                invariants.CPU_DEAD_DISPATCH,
                f"RPC handler dispatched on {host_name(idx)} while its "
                f"CPU is dead (power state Sz)",
            ))
        if invariants.epoch_regressed(w.marks[idx], w.epoch):
            w.violations.append(Violation(
                invariants.EPOCH_REGRESSION,
                f"{host_name(idx)} acted on epoch {w.epoch} below its "
                f"watermark {w.marks[idx]}",
            ))
        else:
            w.marks[idx] = max(w.marks[idx], w.epoch)
        return True

    def _grant(self, w: _W, bid: int, user: int, purpose: str) -> None:
        host, kind, prior_user, _ = w.db[bid]
        prior_state = w.shadow.get(bid)
        prior_state = ShadowState(prior_state) if prior_state else None
        if invariants.lend_conflict(
                prior_state,
                host_name(prior_user) if prior_user is not None
                else None):
            w.violations.append(Violation(
                invariants.DOUBLE_LEND,
                f"buffer {bid} granted to {host_name(user)} while "
                f"{host_name(prior_user)}'s lease is still live",
            ))
        w.db[bid] = (host, kind, user, purpose)
        w.mleases(user).add(bid)
        w.shadow[bid] = ShadowState.OK.value

    def _revoke_lease(self, w: _W, bid: int, user: int,
                      lost: bool = False) -> None:
        w.mleases(user).discard(bid)
        if w.shadow.get(bid) != ShadowState.LOST.value or lost:
            w.shadow[bid] = (ShadowState.LOST.value if lost
                             else ShadowState.RECLAIMED.value)

    # -- action semantics --------------------------------------------------
    def _done(self, w: _W):
        return w.freeze(), tuple(w.violations)

    def _goto_zombie(self, st: State, i: int):
        w = _W(st, self.bounds)
        w.power[i] = SZ
        w.zombies.add(i)
        for bid in self.bounds.own_bids(i):
            if bid not in w.db and bid not in w.lent[i]:
                w.mlent(i).add(bid)
                w.db[bid] = (i, "zombie", None, None)
        for bid, rec in w.db.items():
            if rec[0] == i and rec[1] != "zombie":
                w.db[bid] = (i, "zombie", rec[2], rec[3])
        return self._done(w)

    def _wake(self, st: State, i: int):
        w = _W(st, self.bounds)
        w.power[i] = S0
        w.zombies.discard(i)
        for bid, rec in w.db.items():
            if rec[0] == i and rec[1] != "active":
                w.db[bid] = (i, "active", rec[2], rec[3])
        return self._done(w)

    def _reclaim(self, st: State, i: int):
        w = _W(st, self.bounds)
        cands = sorted((w.db[x][2] is not None, x)
                       for x in w.lent[i] if x in w.db)
        if not cands:
            return None, ()
        allocated, bid = cands[0]
        if allocated:
            user = w.db[bid][2]
            if not self._dispatch(w, user):
                return None, ()
            self._revoke_lease(w, bid, user)
        w.db.pop(bid)
        w.mlent(i).discard(bid)
        return self._done(w)

    def _alloc(self, st: State, i: int, purpose: str):
        w = _W(st, self.bounds)

        def pick() -> Optional[int]:
            cands = []
            for bid, (host, kind, user, _) in w.db.items():
                if host == i:
                    continue
                if user is not None and self.mutant != "double-lend":
                    continue
                cands.append((kind != "zombie", bid))
            return min(cands)[1] if cands else None

        grew = False
        bid = pick()
        if bid is None or (self.mutant == "double-lend"
                           and w.db[bid][2] is not None):
            # _grow_pool_from_active: every active reachable server lends
            # its spare buffers (AS_get_free_mem); declined lenders skip.
            for j in range(self.bounds.hosts):
                if j == i or j in w.zombies or not w.reach[j]:
                    continue
                spare = [x for x in self.bounds.own_bids(j)
                         if x not in w.db and x not in w.lent[j]]
                if not spare or not self._dispatch(w, j):
                    continue
                for x in spare:
                    w.mlent(j).add(x)
                    w.db[x] = (j, "active", None, None)
                grew = True
            bid = pick()
        if bid is None and purpose == "ext":
            # _revoke_swap_from_users: steal a best-effort swap buffer.
            victims = sorted(
                x for x, rec in w.db.items()
                if rec[2] is not None and rec[2] != i and rec[3] == "swap"
            )
            for x in victims:
                victim = w.db[x][2]
                if not w.reach[victim] or not self._dispatch(w, victim):
                    continue
                self._revoke_lease(w, x, victim)
                host, kind, _, _ = w.db[x]
                w.db[x] = (host, kind, None, None)
                bid = x
                break
        if bid is None:
            # Best-effort empty grant / AllocationError; the pool growth
            # (if any) persists, exactly like the journal-flush-on-raise
            # path in the real allocator.
            return (self._done(w) if grew else (None, ()))
        self._grant(w, bid, i, purpose)
        return self._done(w)

    _alloc_ext = partialmethod(_alloc, purpose="ext")
    _alloc_swap = partialmethod(_alloc, purpose="swap")

    def _release(self, st: State, i: int, purpose: Optional[str] = None):
        """Return one lease ``i`` holds; ``purpose`` narrows the choice
        (``FED_return`` releases only a cross-rack, ``fed`` lease)."""
        w = _W(st, self.bounds)
        mine = sorted(x for x in w.leases[i]
                      if x in w.db and w.db[x][2] == i
                      and purpose in (None, w.db[x][3]))
        if not mine:
            return None, ()
        bid = mine[0]
        host, kind, _, _ = w.db[bid]
        w.db[bid] = (host, kind, None, None)
        self._revoke_lease(w, bid, i)
        return self._done(w)

    _fed_return = partialmethod(_release, purpose="fed")

    def _transfer(self, st: State, i: int, j: int):
        w = _W(st, self.bounds)
        mine = sorted(x for x in w.leases[i]
                      if x in w.db and w.db[x][2] == i)
        if not mine:
            return None, ()
        bid = mine[0]
        host, kind, _, purpose = w.db[bid]
        w.db[bid] = (host, kind, j, purpose)
        w.mleases(i).discard(bid)
        w.mleases(j).add(bid)
        return self._done(w)

    def _fed_borrow(self, st: State, i: int):
        w = _W(st, self.bounds)
        cands = [(kind != "zombie", bid)
                 for bid, (host, kind, user, _) in w.db.items()
                 if self.bounds.rack_of(host) != self.bounds.rack_of(i)
                 and user is None]
        if not cands:
            return None, ()
        bid = min(cands)[1]
        # The lending agent delivers the imported grant to the borrower
        # under the current epoch — the cross-rack fencing check.
        if not self._dispatch(w, i):
            return None, ()
        self._grant(w, bid, i, "fed")
        return self._done(w)

    def _declare_lost(self, st: State, i: int):
        w = _W(st, self.bounds)
        bids = sorted(x for x, rec in w.db.items() if rec[0] == i)
        per_user: Dict[int, List[int]] = {}
        for bid in bids:
            w.shadow[bid] = ShadowState.LOST.value
            user = w.db[bid][2]
            if user is not None:
                per_user.setdefault(user, []).append(bid)
        for user, ids in sorted(per_user.items()):
            if not self._dispatch(w, user):
                return None, ()  # model invalidation is atomic
            for bid in ids:
                self._revoke_lease(w, bid, user, lost=True)
        for bid in bids:
            w.db.pop(bid)
        w.zombies.discard(i)
        w.lost.add(i)
        if bids:
            w.resync[i] = set(bids)
        return self._done(w)

    def _recover(self, st: State, i: int):
        w = _W(st, self.bounds)
        w.lost.discard(i)
        pend = w.resync.get(i)
        if pend and w.power[i] == S0 and self._dispatch(w, i):
            w.lent[i] = frozenset(w.lent[i]) - pend
            w.resync.pop(i)
        return self._done(w)

    def _resync_flush(self, st: State, i: int):
        w = _W(st, self.bounds)
        pend = w.resync.get(i)
        if not pend or not self._dispatch(w, i):
            return None, ()
        w.lent[i] = frozenset(w.lent[i]) - pend
        w.resync.pop(i)
        return self._done(w)

    def _partition(self, st: State, i: int):
        w = _W(st, self.bounds)
        w.reach[i] = False
        w.faults += 1
        return self._done(w)

    def _crash(self, st: State, i: int):
        w = _W(st, self.bounds)
        w.reach[i] = False
        w.crashed[i] = True
        w.faults += 1
        return self._done(w)

    def _heal(self, st: State, i: int):
        w = _W(st, self.bounds)
        w.reach[i] = True
        if w.crashed[i]:
            # Reboot: DRAM gone, lender records reset, back to S0.
            w.crashed[i] = False
            w.power[i] = S0
            w.lent[i] = set()
        return self._done(w)

    def _kill_controller(self, st: State):
        w = _W(st, self.bounds)
        w.primary_alive = False
        w.faults += 1
        return self._done(w)

    def _promote(self, st: State):
        w = _W(st, self.bounds)
        w.promoted = True
        if self.mutant != "skip-epoch-bump":
            w.epoch += 1
        # Eager epoch sync: heartbeat every reachable S0 agent.
        for i in range(self.bounds.hosts):
            if w.reach[i] and w.power[i] == S0:
                self._dispatch(w, i)
        return self._done(w)

    def _stale_mirror(self, st: State):
        w = _W(st, self.bounds)
        if self._initial_epoch < w.epoch:
            # The standby's fencing check rejects the stale write and the
            # deposed primary marks itself fenced: the guard held.
            w.deposed_fenced = True
            return self._done(w)
        w.tainted = True
        w.violations.append(Violation(
            invariants.FENCED_WRITE,
            f"deposed primary's mirror write at epoch {self._initial_epoch} "
            f"was applied by the standby (current epoch {w.epoch}): the "
            "promotion did not fence the old primary",
        ))
        return self._done(w)
