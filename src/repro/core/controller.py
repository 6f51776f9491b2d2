"""The global memory controller (*global-mem-ctr*).

Manages the rack-wide pool of remote-memory buffers: zombies lend memory on
suspend (``GS_goto_zombie``), reclaim it on wake (``GS_reclaim``), user
servers allocate RAM-Extension memory (``GS_alloc_ext``, guaranteed by
admission control) and best-effort swap memory (``GS_alloc_swap``).

All replicated state lives in :class:`~repro.core.database.BufferDatabase`,
whose journal is the replication log: every handler ends by offering the
un-acknowledged suffix to the secondary (``_pump_mirror``), one
``mirror_op`` RPC per entry through ``mirror``, the controller's client to
the standby's server.
"""

from __future__ import annotations

from itertools import chain, islice, zip_longest
from typing import Dict, List, Optional, Set

from repro.core.database import BufferDatabase
from repro.core.events import EventKind, EventLog
from repro.core.protocol import BufferDescriptor, BufferKind, Method
from repro.errors import (AllocationError, CircuitOpenError, ControllerError,
                          FencingError, RdmaError, RpcError, RpcTimeoutError)
from repro.rdma.fabric import RdmaNode
from repro.rdma.rpc import RpcClient, RpcServer
from repro.units import DEFAULT_BUFF_SIZE, buffers_for

#: The verb string read once: ``Method.X.value`` is an enum descriptor
#: call, and every journal entry is one ``mirror_op``.
_MIRROR_OP = Method.MIRROR_OP.value


class GlobalMemoryController:
    """The rack's memory authority, served over RPC-over-RDMA."""

    def __init__(self, node: RdmaNode, buff_size: int = DEFAULT_BUFF_SIZE,
                 stripe: bool = True, epoch: int = 1):
        self.node = node
        self.buff_size = buff_size
        #: Round-robin allocations across serving hosts (the paper's
        #: failure-impact minimization).  False = fill one host at a time.
        self.stripe = stripe
        #: Every replicated fact (buffers, purposes, host sets) and the
        #: journal of mutations the standby has not acknowledged yet.
        self.db = BufferDatabase()
        #: The RPC client to the standby's ``mirror_op`` (None: no standby).
        self.mirror: Optional[RpcClient] = None
        #: Journal entries acknowledged so far == the sequence number of
        #: the journal's head.  Undelivered ops stay in the journal until
        #: a later pump retries them: no lost call desynchronises the standby.
        self._mirror_acked = 0
        #: Pump stalls: a transport fault left the suffix queued.
        self.mirror_deferred = 0
        self.agent_clients: Dict[str, RpcClient] = {}
        self.rpc = RpcServer(node)
        self.events = EventLog(node.fabric.clock)
        if node.fabric.telemetry.enabled:
            self.events.attach_metrics(node.fabric.telemetry.registry)
        #: Fencing epoch: bumped on every failover; the agents' and the
        #: secondary's RPC servers refuse calls stamped with a lower
        #: (deposed) epoch.
        self.epoch = epoch
        #: The rack whose epochs these are, stamped beside the epoch on
        #: every agent call: an agent's server called by several racks'
        #: primaries keeps one watermark per rack (None for a standalone
        #: rack).
        self.rack = node.fabric.rack_of(node.name)
        #: Set once this controller learns it has been deposed; every
        #: subsequent GS_ handler call is rejected (split-brain guard).
        self.fenced = False
        #: Installed by :class:`repro.core.recovery.RecoveryCoordinator`.
        self.recovery = None
        #: host → sim time it entered Sz; feeds the ``sz_dwell_seconds``
        #: residency histogram.  Entry timestamps live only on the primary
        #: that observed the entry, so dwell times spanning a failover are
        #: not re-observed by the promoted secondary (documented limit).
        self._sz_entered: Dict[str, float] = {}
        self._register_handlers()
        self.heartbeats_sent = 0

    # -- wiring ----------------------------------------------------------
    def _register_handlers(self) -> None:
        register = self.rpc.register
        register(Method.GS_GOTO_ZOMBIE.value,
                 self._guard(self.gs_goto_zombie))
        register(Method.GS_RECLAIM.value, self._guard(self.gs_reclaim))
        register(Method.GS_ALLOC_EXT.value, self._guard(self.gs_alloc_ext))
        register(Method.GS_ALLOC_SWAP.value, self._guard(self.gs_alloc_swap))
        register(Method.GS_GET_LRU_ZOMBIE.value,
                 self._guard(self.gs_get_lru_zombie))
        register(Method.GS_RELEASE.value, self._guard(self.gs_release))
        register(Method.GS_TRANSFER.value, self._guard(self.gs_transfer))
        register(Method.GS_WAKE.value, self._guard(self.gs_wake))
        register(Method.GS_REPORT_FAILURE.value,
                 self._guard(self.gs_report_failure))
        register(Method.FED_BORROW.value, self._guard(self.fed_borrow))
        register(Method.FED_RETURN.value, self._guard(self.fed_return))
        # Heartbeat stays unguarded: monitors may still probe a fenced
        # (deposed) controller without tripping FencingError.
        register(Method.HEARTBEAT.value, self.heartbeat)

    def _guard(self, handler):
        """Refuse to serve authority-bearing calls once deposed.

        The closing pump is the RPC path's handler boundary: a handler
        that raised half way still replicates what it changed.
        """
        def guarded(*args, **kwargs):
            if self.fenced:
                raise FencingError(
                    f"controller at epoch {self.epoch} is fenced "
                    "(a newer primary was promoted)"
                )
            try:
                return handler(*args, **kwargs)
            finally:
                if not self.fenced:
                    self._pump_mirror()
        return guarded

    @property
    def zombie_hosts(self) -> Set[str]:
        return self.db.zombie_hosts

    @property
    def known_hosts(self) -> Set[str]:
        return self.db.known_hosts

    def attach_agent(self, host: str, client: RpcClient) -> None:
        """Register the RPC path to ``host``'s remote-mem-mgr."""
        self.agent_clients[host] = client
        self.db.host_add(host)
        self._pump_mirror()

    def _agent_call(self, host: str, method: Method, *args):
        """Epoch-stamped RPC to one agent (fenced on the receiving side)."""
        # The plain verb string: ``method.value`` is an enum descriptor
        # call, and heartbeats make this the rack's most frequent call.
        verb = method._value_
        client = self.agent_clients.get(host)
        if client is None:
            raise ControllerError(f"no agent channel to {host!r} for {verb}")
        try:
            return client.call(verb, *args, epoch=self.epoch, rack=self.rack)
        except FencingError:
            self._mark_fenced()
            raise

    def _mark_fenced(self) -> None:
        if not self.fenced:
            self.fenced = True
            self.events.emit(EventKind.CONTROLLER_FENCED, self.node.name,
                             epoch=self.epoch)

    @property
    def mirror_lag(self) -> int:
        """Mirrored ops queued but not yet acknowledged by the secondary."""
        return len(self.db.journal)

    def _pump_mirror(self) -> None:
        """Offer the journal to the standby, oldest first; drop what it acks.

        Called at every handler boundary.  A timeout (or open breaker)
        leaves the suffix queued, so the next boundary — or the standby's
        next heartbeat — retries it.  Sequence numbers make the re-send
        idempotent: an op the secondary already applied (its reply was
        the lost message) is skipped there; the epoch stamp fences a
        deposed primary's stream.  No standby: nothing to keep.
        """
        journal = self.db.journal
        if self.mirror is None:
            journal.clear()
            return
        while journal:
            op, args = journal[0]
            try:
                self.mirror.call(_MIRROR_OP, op, args, epoch=self.epoch,
                                 seq=self._mirror_acked)
            except FencingError:
                self._mark_fenced()
                raise
            except (RpcTimeoutError, CircuitOpenError, RdmaError):
                self.mirror_deferred += 1
                return
            journal.popleft()
            self._mirror_acked += 1

    # -- RPC handlers -----------------------------------------------------
    def heartbeat(self) -> str:
        self.heartbeats_sent += 1
        # Piggyback replication catch-up on the standby's liveness probe:
        # if a quiet period follows a deferred mirror op, the probe —
        # proof the standby is reachable again — drains the backlog.
        if not self.fenced and self.mirror_lag:
            self._pump_mirror()
        return "alive"

    def gs_report_failure(self, reporter: str, host: str) -> bool:
        """A user server reports failed one-sided verbs against ``host``.

        Delegated to the recovery coordinator (when one is attached),
        which probes the host and — if it really is down — invalidates
        its buffers rack-wide.  Returns True when recovery was initiated.
        """
        if self.recovery is None:
            return False
        return self.recovery.report_failure(reporter, host)

    def gs_goto_zombie(self, host: str,
                       buffers: List[BufferDescriptor]) -> int:
        """A server announces Sz entry and lends ``buffers``.

        Buffers the host already lent while active are re-labelled zombie.
        Returns the number of buffers now lent by the host.
        """
        for descriptor in buffers:
            if descriptor.host != host:
                raise ControllerError(
                    f"{host} lends buffer {descriptor.buffer_id} it does "
                    f"not serve (host={descriptor.host})"
                )
        self.db.host_add(host)
        self.db.zombie_add(host)
        for descriptor in buffers:
            self.db.add(descriptor.with_kind(BufferKind.ZOMBIE))
        for existing in self.db.by_host(host):
            if existing.kind is not BufferKind.ZOMBIE:
                self.db.set_kind(existing.buffer_id, BufferKind.ZOMBIE)
        self._pump_mirror()
        self.events.emit(EventKind.ZOMBIE_ENTER, host,
                         buffers=len(self.db.by_host(host)))
        tel = self.node.fabric.telemetry
        if tel.enabled:
            self._sz_entered[host] = self.node.fabric.clock()
            tel.registry.gauge("zombie_hosts",
                               "Hosts currently parked in Sz.").set(
                len(self.zombie_hosts))
        return len(self.db.by_host(host))

    def gs_wake(self, host: str) -> None:
        """A zombie resumed to S0; its remaining buffers become active-kind."""
        self.db.zombie_remove(host)
        for descriptor in self.db.by_host(host):
            if descriptor.kind is not BufferKind.ACTIVE:
                self.db.set_kind(descriptor.buffer_id, BufferKind.ACTIVE)
        self._pump_mirror()
        self.events.emit(EventKind.ZOMBIE_EXIT, host)
        tel = self.node.fabric.telemetry
        if tel.enabled:
            entered = self._sz_entered.pop(host, None)
            if entered is not None:
                tel.registry.histogram(
                    "sz_dwell_seconds",
                    "Time hosts spent parked in Sz before waking.",
                ).observe(self.node.fabric.clock() - entered)
            tel.registry.gauge("zombie_hosts",
                               "Hosts currently parked in Sz.").set(
                len(self.zombie_hosts))

    def gs_reclaim(self, host: str, nb_buffers: int) -> List[int]:
        """A (waking) server takes ``nb_buffers`` of its memory back.

        Unallocated buffers go first; then buffers allocated to other
        servers are revoked via ``US_reclaim``.  Returns the buffer ids the
        host may now free.
        """
        own = self.db.by_host(host)
        own.sort(key=lambda b: (b.allocated, b.buffer_id))
        if nb_buffers > len(own):
            raise ControllerError(
                f"{host} reclaims {nb_buffers} buffers but lends only "
                f"{len(own)}"
            )
        chosen = own[:nb_buffers]
        self._revoke([b for b in chosen if b.allocated])
        reclaimed = []
        for descriptor in chosen:
            # The US_reclaim round trips above are yield points: once the
            # serving loop interleaves requests, another handler may have
            # released or transferred a chosen buffer while the revocation
            # was in flight.  Re-validate against the database before
            # removing (ZL010).
            if descriptor.buffer_id not in self.db:
                continue
            self.db.remove(descriptor.buffer_id)
            reclaimed.append(descriptor.buffer_id)
        self._pump_mirror()
        self.events.emit(EventKind.BUFFERS_RECLAIMED, host,
                         count=len(reclaimed))
        return reclaimed

    def gs_alloc_ext(self, user: str, mem_size: int) -> List[BufferDescriptor]:
        """Guaranteed RAM-Extension allocation of ``mem_size`` bytes.

        Called once at VM creation; admission control must have ensured the
        rack can honour it.  Allocation priority: free zombie buffers, free
        active buffers, new buffers carved from active servers
        (``AS_get_free_mem``), and finally buffers revoked from other
        users' best-effort swap (``US_reclaim``).
        """
        granted = self._allocate(user, mem_size, purpose="ext",
                                 best_effort=False)
        self.events.emit(EventKind.ALLOC_EXT, user, buffers=len(granted),
                         bytes=mem_size)
        return granted

    def gs_alloc_swap(self, user: str, mem_size: int) -> List[BufferDescriptor]:
        """Best-effort swap allocation: may return fewer buffers than asked."""
        granted = self._allocate(user, mem_size, purpose="swap",
                                 best_effort=True)
        self.events.emit(EventKind.ALLOC_SWAP, user, buffers=len(granted))
        return granted

    def gs_get_lru_zombie(self) -> Optional[str]:
        """The zombie host with the fewest allocated buffers.

        The orchestrator uses this to wake the zombie whose memory is
        least entangled, minimising reclaim traffic.
        """
        if not self.zombie_hosts:
            return None
        counts = self.db.allocated_count_by_host()
        return min(sorted(self.zombie_hosts),
                   key=lambda host: counts.get(host, 0))

    def gs_release(self, user: str, buffer_ids: List[int]) -> None:
        """A user returns buffers it no longer needs."""
        held = self._held_by(user, buffer_ids)
        for descriptor in held:
            self.db.unassign(descriptor.buffer_id)
        self._pump_mirror()
        self.events.emit(EventKind.BUFFERS_RELEASED, user, count=len(held))

    def gs_transfer(self, old_user: str, new_user: str,
                    buffer_ids: List[int]) -> None:
        """Migration support: re-point buffer ownership to the target host.

        "We just need to update the ownership pointers for the remote
        memory components" (Section 5.3) — the buffers and their content
        never move.
        """
        held = self._held_by(old_user, buffer_ids)
        for descriptor in held:
            self.db.unassign(descriptor.buffer_id)
            self.db.assign(descriptor.buffer_id, new_user,
                           descriptor.purpose or "ext")
        self._pump_mirror()
        self.events.emit(EventKind.BUFFERS_TRANSFERRED, new_user,
                         from_host=old_user, count=len(held))

    def _held_by(self, user: str,
                 buffer_ids: List[int]) -> List[BufferDescriptor]:
        """The request's records, validated whole before the first
        mutation (a verb that rejects must change nothing); an id named
        twice counts once."""
        held = [self.db.get(b) for b in dict.fromkeys(buffer_ids)]
        for descriptor in held:
            if descriptor.user != user:
                raise ControllerError(
                    f"buffer {descriptor.buffer_id} is held by "
                    f"{descriptor.user!r}, not by {user!r}"
                )
        return held

    # -- cross-rack federation (ZomFed) -----------------------------------
    def fed_borrow(self, borrower: str,
                   nb_buffers: int) -> List[BufferDescriptor]:
        """Lend free zombie-pool buffers to a peer rack (``FED_borrow``).

        Only unallocated buffers served by *zombie* hosts are eligible:
        cross-rack lending exports memory that is otherwise idle and
        never competes with this rack's active-tier pool.  Grants up to
        ``nb_buffers`` (the loan is recorded under purpose ``"fed"`` so
        the borrower is revocable like any swap user); an empty pool
        raises :class:`AllocationError`, which is the borrower's signal
        to mark this rack dry in its federation directory.
        """
        eligible = self.db.free_in_tier(zombie=True,
                                        limit=max(nb_buffers, 0))
        if not eligible:
            raise AllocationError(
                f"{self.node.name}: no free zombie buffer to lend to "
                f"{borrower!r}"
            )
        granted = []
        for descriptor in eligible:
            granted.append(self.db.assign(descriptor.buffer_id, borrower,
                                          "fed"))
        self._pump_mirror()
        self.events.emit(EventKind.FED_LENT, borrower, count=len(granted))
        tel = self.node.fabric.telemetry
        if tel.enabled:
            tel.registry.counter(
                "fed_loans_total", "Cross-rack buffer loans, by direction.",
                direction="lent").inc(len(granted))
        return granted

    def fed_return(self, borrower: str, buffer_ids: List[int]) -> int:
        """A peer rack returns borrowed buffers (``FED_return``).

        Buffers the lender already took back (a waking host's reclaim
        revoked the loan) are skipped — the return is then a no-op for
        them, which is what makes retried/duplicated returns converge.
        Returns the number of buffers actually freed.
        """
        held = self._held_by(borrower,
                             [b for b in buffer_ids if b in self.db])
        for descriptor in held:
            self.db.unassign(descriptor.buffer_id)
        freed = len(held)
        self._pump_mirror()
        self.events.emit(EventKind.FED_RETURNED, borrower, count=freed)
        tel = self.node.fabric.telemetry
        if tel.enabled:
            tel.registry.counter(
                "fed_loans_total", "Cross-rack buffer loans, by direction.",
                direction="returned").inc(freed)
        return freed

    def fed_import(self, descriptors: List[BufferDescriptor]) -> None:
        """Adopt buffers borrowed *from* a peer rack into this pool.

        The borrower-side half of a loan: the imported records keep the
        donor's serving-host names (one-sided verbs address those hosts
        directly over the shared fabric) and arrive zombie-kind and
        unallocated, so the local allocation engine hands them out with
        normal zombie-first priority.  Journaled like any mutation, so
        the secondary mirrors the imported pool too.
        """
        imported = 0
        for descriptor in descriptors:
            if descriptor.buffer_id in self.db:
                continue  # duplicate delivery of the same loan
            self.db.add(descriptor.with_kind(BufferKind.ZOMBIE)
                        .with_user(None))
            imported += 1
        self._pump_mirror()
        if imported:
            self.events.emit(EventKind.FED_IMPORTED, self.node.name,
                             count=imported)

    def fed_recall(self, buffer_ids: List[int]) -> List[int]:
        """Drop borrowed buffers the donor rack has recalled.

        Buffers currently allocated to local users are revoked first
        (``US_reclaim``, the same path a waking host's reclaim takes),
        then the records are removed.  The revocation round trips are
        yield points: re-validate against the database before removing
        (ZL010).  Returns the buffer ids actually dropped.
        """
        present = [self.db.get(b) for b in buffer_ids if b in self.db]
        self._revoke([d for d in present if d.allocated])
        dropped = []
        for descriptor in present:
            if descriptor.buffer_id not in self.db:
                continue
            self.db.remove(descriptor.buffer_id)
            dropped.append(descriptor.buffer_id)
        self._pump_mirror()
        if dropped:
            self.events.emit(EventKind.FED_RECALLED, self.node.name,
                             count=len(dropped))
        return dropped

    # -- allocation engine ------------------------------------------------
    def _allocate(self, user: str, mem_size: int, purpose: str,
                  best_effort: bool) -> List[BufferDescriptor]:
        try:
            nb = buffers_for(mem_size, self.buff_size)
        except ValueError as exc:  # a bad size is the caller's error
            raise ControllerError(f"{user}: {exc}") from exc
        chosen = self._pick_free(user, nb)
        if len(chosen) < nb:
            self._grow_pool_from_active(user)
            chosen = self._pick_free(user, nb)
        if len(chosen) < nb and not best_effort:
            chosen += self._revoke_swap_from_users(user, nb - len(chosen))
            # The US_reclaim round trips are yield points: an interleaved
            # handler may have granted or removed a chosen buffer
            # meanwhile.  Keep only those still free (ZL010).
            chosen = [b for b in chosen if b.buffer_id in self.db
                      and not self.db.get(b.buffer_id).allocated]
        if len(chosen) < nb and not best_effort:
            raise AllocationError(
                f"cannot satisfy guaranteed allocation of {nb} buffers for "
                f"{user} ({len(chosen)} available); admission control "
                "should have prevented this request"
            )
        granted = []
        for descriptor in chosen[:nb]:
            granted.append(self.db.assign(descriptor.buffer_id, user,
                                          purpose))
        self._pump_mirror()
        return granted

    def _pick_free(self, user: str, nb: int) -> List[BufferDescriptor]:
        """Free buffers, zombie-first, striped round-robin across hosts.

        Striping "minimizes the performance impact caused by a remote
        server failure".  Buffers served by the requesting host itself are
        excluded (its local memory is not remote memory).  Reads the
        database's free buckets, each already in ascending id order.
        """
        chosen: List[int] = []
        # Exhaust the zombie tier before touching any active buffer, and
        # round-robin across hosts within each tier (unless striping is
        # disabled, in which case hosts are drained one at a time).
        for zombie in (True, False):
            tier = self.db.free_buckets(zombie)
            buckets = [tier[host] for host in sorted(tier) if host != user]
            if self.stripe:
                order = (buffer_id for stripe in zip_longest(*buckets)
                         for buffer_id in stripe if buffer_id is not None)
            else:
                order = chain.from_iterable(buckets)
            chosen.extend(islice(order, max(nb - len(chosen), 0)))
        return [self.db.get(buffer_id) for buffer_id in chosen]

    def _grow_pool_from_active(self, requesting_user: str) -> None:
        """Ask active servers to lend more memory (``AS_get_free_mem``)."""
        for host in sorted(self.agent_clients):
            if host == requesting_user or host in self.zombie_hosts:
                continue
            try:
                new_buffers = self._agent_call(host, Method.AS_GET_FREE_MEM)
            except RpcError as exc:
                # Unreachable/unwilling active server: skip it, audibly.
                self.events.emit(EventKind.LEND_DECLINED, host,
                                 error=type(exc).__name__)
                continue
            for descriptor in new_buffers:
                if descriptor.buffer_id not in self.db:
                    self.db.add(descriptor.with_kind(BufferKind.ACTIVE))

    def _revoke_swap_from_users(self, requesting_user: str,
                                nb: int) -> List[BufferDescriptor]:
        """Take back best-effort swap buffers to honour a guarantee."""
        revocable = [
            b for b in self.db.all_buffers()
            if b.user != requesting_user and b.purpose == "swap"
        ]
        revocable.sort(key=lambda b: b.buffer_id)
        victims = revocable[:nb]
        self._revoke(victims)
        freed = []
        for descriptor in victims:
            # The revocations above are yield points: the victim's user
            # may have released it meanwhile.  Unassign only what that
            # user still holds (ZL010).
            if (descriptor.buffer_id not in self.db
                    or self.db.get(descriptor.buffer_id).user
                    != descriptor.user):
                continue
            freed.append(self.db.unassign(descriptor.buffer_id))
        return freed

    def _revoke(self, buffers: List[BufferDescriptor]) -> None:
        """Send ``US_reclaim`` to every affected user, grouped per user.

        Channels are validated *before* the first revocation goes out, so
        a missing agent can no longer abort the batch half way through.
        If an RPC still fails mid-batch (e.g. a partition that appeared
        between validation and the call), a compensating
        ``REVOKE_FAILED`` event records exactly which users already
        dropped their leases, so the journal consumer can reconcile.
        """
        per_user: Dict[str, List[int]] = {}
        for descriptor in buffers:
            if descriptor.user is not None:
                per_user.setdefault(descriptor.user, []).append(
                    descriptor.buffer_id
                )
        missing = sorted(u for u in per_user if u not in self.agent_clients)
        if missing:
            raise ControllerError(
                f"no agent channel to {missing!r} for US_reclaim "
                "(validated before any revocation was sent)"
            )
        revoked: List[str] = []
        for user, ids in sorted(per_user.items()):
            try:
                self._agent_call(user, Method.US_RECLAIM, ids)
            except RpcError as exc:
                self.events.emit(
                    EventKind.REVOKE_FAILED, user,
                    completed_users=list(revoked),
                    pending_users=[u for u in sorted(per_user)
                                   if u not in revoked and u != user],
                    buffers=ids, error=type(exc).__name__,
                )
                raise ControllerError(
                    f"US_reclaim to {user!r} failed after "
                    f"{len(revoked)} user(s) already revoked: {exc}"
                ) from exc
            revoked.append(user)

    # -- introspection -----------------------------------------------------
    def pool_summary(self) -> Dict[str, int]:
        return {
            "buffers": len(self.db),
            "free_bytes": self.db.free_bytes(),
            "total_bytes": self.db.total_bytes(),
            "zombie_hosts": len(self.zombie_hosts),
        }
