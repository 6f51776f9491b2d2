"""Replay abstract counterexample traces against the real rack.

A ZomCheck trace is a list of action names with parameters baked in
(``GS_alloc_ext(h1)``, ``crash(h2)``, ``promote``).  This module maps
each name onto the concrete operation of a real :class:`~repro.core.rack.Rack`
built on :class:`~repro.sim.engine.Engine`, runs the whole trace with
MemSan installed, and reports every finding kind that fired — so a model
violation can be confirmed (or refuted) against the implementation.

Mutant traces are replayed with the matching *concrete* mutant from
:mod:`repro.check.mutants` patched in before MemSan hooks, so the
sanitizer observes the buggy code paths exactly as the model did.

Fidelity notes (mirroring the model's documented abstractions):

- the rack is sized so each host carves one model buffer
  (``buffers_per_host == 1`` bounds replay exactly; larger bounds are
  approximate in buffer count but not in protocol structure);
- after every step each live user *touches* all its leased buffers with
  a one-sided READ, because the model checks one-sided access legality
  per state rather than per enumerated action;
- exceptions from the :class:`~repro.errors.ReproError` hierarchy are
  *defended* failures (the runtime refused the operation) and never fail
  the replay — a finding is only something that silently succeeded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check import invariants, mutants
from repro.check.model import Bounds
from repro.core.recovery import (CRASH, HEAL, KILL_CONTROLLER, PARTITION,
                                 FaultAction, apply_fault)
from repro.errors import ReproError
from repro.units import MiB

#: One model buffer == one 8 MiB rack buffer; a 16 MiB host reserves
#: 2 MiB (``memory_bytes // 8``) and carves exactly one buffer from the
#: remaining 14 MiB, both on ``GS_goto_zombie`` and ``AS_get_free_mem``.
REPLAY_BUFF_SIZE = 8 * MiB
REPLAY_HOST_MEMORY = 16 * MiB


def _fault_step(kind: str):
    """A step handler that injects ``kind`` through the recovery layer's
    :func:`~repro.core.recovery.apply_fault`, as a fault schedule does."""
    def handler(self, host: Optional[str] = None) -> None:
        apply_fault(self._rack, FaultAction(self._rack.engine.now, kind, host))
    return handler


_STEP_RE = re.compile(r"^(\w+)(?:\((\w+)(?:,(\w+))?\))?$")


@dataclass
class ReplayStep:
    """One executed trace step and how the runtime answered it."""

    name: str
    defended: Optional[str] = None   # exception type when the runtime refused

    @property
    def ok(self) -> bool:
        return self.defended is None


@dataclass
class ReplayResult:
    """Everything one concrete replay observed."""

    steps: List[ReplayStep] = field(default_factory=list)
    #: MemSan findings plus end-state predicate hits, in firing order.
    kinds: Tuple[str, ...] = ()
    messages: Tuple[str, ...] = ()

    def reproduces(self, kind: str) -> bool:
        """Did the concrete system exhibit the model's violation kind?"""
        return kind in self.kinds


class TraceReplayer:
    """Drives one counterexample trace through a freshly built rack."""

    def __init__(self, bounds: Bounds, mutant: Optional[str] = None):
        self.bounds = bounds
        self.mutant_name = mutant

    # -- public entry ------------------------------------------------------
    def replay(self, names: Sequence[str]) -> ReplayResult:
        from repro.core.rack import Rack
        from repro.sanitize.memsan import MemorySanitizer

        result = ReplayResult()
        bug = mutants.mutant(self.mutant_name) if self.mutant_name else None
        sanitizer = MemorySanitizer()
        if bug is not None:
            bug.install()   # before MemSan: hooks must wrap the buggy code
        try:
            sanitizer.install()
            try:
                self._run(Rack(list(self.bounds.host_names()),
                               memory_bytes=REPLAY_HOST_MEMORY,
                               buff_size=REPLAY_BUFF_SIZE),
                          names, result)
            finally:
                findings = sanitizer.drain_findings()
                sanitizer.uninstall()
        finally:
            if bug is not None:
                bug.uninstall()
        kinds = [f.kind for f in findings]
        messages = [f.message for f in findings]
        for kind, message in self._end_state_findings():
            kinds.append(kind)
            messages.append(message)
        result.kinds = tuple(kinds)
        result.messages = tuple(messages)
        return result

    # -- trace execution ---------------------------------------------------
    def _run(self, rack, names: Sequence[str], result: ReplayResult) -> None:
        self._rack = rack
        self._stores: Dict[str, list] = {h: [] for h in rack.servers}
        self._old_primary = rack.controller
        self._promotion_snapshot = None
        for name in names:
            step = ReplayStep(name=name)
            try:
                self._apply(name)
            except ReproError as exc:
                step.defended = type(exc).__name__
            result.steps.append(step)
            self._touch_leases()

    def _apply(self, name: str) -> None:
        match = _STEP_RE.match(name)
        if match is None:
            raise ValueError(f"unparseable trace step {name!r}")
        kind, a, b = match.group(1), match.group(2), match.group(3)
        # ``dup_<verb>`` runs the ``<verb>`` step with a wire duplicate.
        verb = kind[len("dup_"):] if kind.startswith("dup_") else None
        handler = getattr(self, "_do_" + (verb or kind), None)
        if handler is None:
            raise ValueError(f"trace step {name!r} has no concrete mapping")
        args = [x for x in (a, b) if x is not None]
        if verb is None:
            handler(*args)
        else:
            self._dup_step(verb, handler, *args)

    # -- step handlers (one per model action kind) -------------------------
    def _do_GS_goto_zombie(self, host: str) -> None:
        self._rack.make_zombie(host)

    def _do_GS_wake(self, host: str) -> None:
        self._rack.wake(host)

    def _do_GS_reclaim(self, host: str) -> None:
        self._rack.server(host).manager.reclaim(1)

    def _do_GS_alloc_ext(self, user: str) -> None:
        store = self._rack.server(user).manager.request_ext(REPLAY_BUFF_SIZE)
        self._stores[user].append(store)

    def _do_GS_alloc_swap(self, user: str) -> None:
        store, _granted = self._rack.server(user).manager.request_swap(
            REPLAY_BUFF_SIZE)
        self._stores[user].append(store)

    def _do_GS_release(self, user: str) -> None:
        store = self._pop_store(user)
        self._rack.server(user).manager.release_store(store)

    def _do_GS_transfer(self, src: str, dst: str) -> None:
        store = self._pop_store(src)
        self._rack.server(src).manager.transfer_store_out(store)
        self._rack.server(dst).manager.transfer_store_in(store, old_user=src)
        self._stores[dst].append(store)

    def _do_GS_report_failure(self, failed: str) -> None:
        reporter = self._first_live_server(exclude=failed)
        reporter.manager.report_host_failure(failed)

    def _do_probe_recover(self, host: str) -> None:
        self._rack.recovery.probe_tick()

    def _do_AS_resync(self, host: str) -> None:
        self._rack.recovery.probe_tick()

    _do_partition = _fault_step(PARTITION)
    _do_crash = _fault_step(CRASH)
    _do_heal = _fault_step(HEAL)
    # The model spells ``kill_controller``; a FaultAction ``kill-controller``.
    _do_kill_controller = _fault_step(KILL_CONTROLLER)

    def _do_promote(self) -> None:
        # Promotion is heartbeat-driven: advance simulated time past the
        # secondary's miss threshold and let the failover callback run.
        rack = self._rack
        period = rack.secondary._monitor.period
        rack.engine.advance(period * 6)
        if rack.secondary.promoted is None:
            raise ReproError("secondary did not promote within 6 periods")
        self._promotion_snapshot = invariants.replicated_entries(
            rack.secondary.db)

    def _do_stale_mirror_op(self) -> None:
        # The deposed primary tries to keep mirroring; a fenced system
        # rejects the stale epoch, an unfenced one corrupts the standby.
        self._old_primary.db.zombie_add(self.bounds.host_names()[0])
        self._old_primary._pump_mirror()

    # -- duplicate deliveries (dup_ model actions) -------------------------
    def _dup_step(self, verb: str, base, *args) -> None:
        """Run a base step with a scripted wire duplicate of ``verb``.

        The fabric's injector re-delivers the verb's request once with
        the same request id, exactly like the model's ``dup_`` action: a
        clean build absorbs it via the dedup table (dedup_required) or
        converges (idempotent); the ``no-dedup`` mutant re-executes.
        """
        from repro.rdma.fabric import DUPLICATE
        injector = self._rack.fabric.message_faults
        injector.script("*", "*", DUPLICATE, method=verb)
        try:
            base(*args)
        finally:
            # Drop the scripted fault if a defended refusal happened
            # before the verb ever crossed the wire.
            injector.clear("*", "*")

    # -- read-only probes: no concrete side effect worth modelling ---------
    def _do_GS_get_lru_zombie(self) -> None:
        self._rack.controller.gs_get_lru_zombie()

    def _do_heartbeat(self) -> None:
        pass

    def _do_lose_message(self) -> None:
        pass  # a dropped message is a client-side retry, i.e. a stutter

    # -- helpers -----------------------------------------------------------
    def _pop_store(self, user: str) -> object:
        for index, store in enumerate(self._stores[user]):
            if store.lease_ids():
                return self._stores[user].pop(index)
        raise ReproError(f"{user}: no store with live leases to operate on")

    def _first_live_server(self, exclude: str):
        for name in sorted(self._rack.servers):
            if name == exclude:
                continue
            server = self._rack.servers[name]
            if (server.node.cpu_alive
                    and self._rack.fabric.is_reachable(name)):
                return server
        raise ReproError(f"no live reporter besides {exclude!r}")

    def _touch_leases(self) -> None:
        """Every live user READs each leased buffer (one page).

        The model folds one-sided-verb legality into a per-state check;
        the concrete replay must actually exercise the verbs for MemSan
        to observe them.  Defended refusals are expected and ignored.
        """
        from repro.units import PAGE_SIZE
        for name, stores in self._stores.items():
            server = self._rack.servers[name]
            if not server.node.cpu_alive:
                continue   # a suspended initiator cannot post verbs
            for store in stores:
                for state in list(store._leases.values()):
                    try:
                        store.node.rdma_read_timed(
                            state.qp, state.lease.rkey, 0, PAGE_SIZE)
                    except ReproError:
                        continue

    # -- end-state predicates (model state-level invariants) ---------------
    def _end_state_findings(self) -> List[Tuple[str, str]]:
        rack = self._rack
        findings: List[Tuple[str, str]] = []
        holders = [(lease.buffer_id, name)
                   for name, stores in self._stores.items()
                   for store in stores
                   for lease in store.leases()]
        dupes = invariants.duplicate_leaseholders(holders)
        if dupes:
            findings.append((invariants.DOUBLE_LEND, (
                f"buffers {dupes} are leased by more than one user "
                "at end of trace")))
        standby = invariants.replicated_entries(rack.secondary.db)
        if self._promotion_snapshot is not None:
            if invariants.fenced_write(self._promotion_snapshot, standby):
                findings.append((invariants.FENCED_WRITE, (
                    "the standby's mirrored state drifted after promotion "
                    "— a deposed primary kept writing")))
        elif not self._old_primary.fenced:
            primary = invariants.replicated_entries(rack.controller.db)
            if invariants.mirror_divergence(primary, standby):
                findings.append((invariants.MIRROR_DIVERGENCE, (
                    "primary and standby disagree on the buffer table "
                    "at quiescence")))
        return findings


def replay_trace(bounds: Bounds, names: Sequence[str],
                 mutant: Optional[str] = None) -> ReplayResult:
    """Convenience wrapper: one replay, one result."""
    return TraceReplayer(bounds, mutant=mutant).replay(names)
