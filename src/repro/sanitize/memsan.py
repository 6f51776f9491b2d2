"""The sanitizer core: shadow state, hooks, findings, leak report.

:class:`MemorySanitizer.install` monkey-patches the hook points
(:class:`~repro.memory.buffers.RemotePageStore` lease/page management,
:meth:`~repro.rdma.fabric.RdmaNode.verb`, the body of every one-sided verb,
:class:`~repro.core.database.BufferDatabase.set_kind`,
:class:`~repro.rdma.rpc.RpcServer.dispatch`,
:class:`~repro.core.server.RackServer` construction); ``uninstall`` restores the
originals.  The shadow is keyed by ``(serving host, rkey)`` — the identity a
one-sided verb actually presents on the wire — so it catches accesses made
through *any* queue pair, including ones the buggy code opened itself.

Detection philosophy: the hooked operation runs first.  If the runtime's
own defences reject it (MR invalidated, power gate closed, fencing error),
the exception propagates and nothing is recorded — the system defended
itself.  A finding is recorded only when the operation **succeeded** while
the shadow says it must not have.  The one exception is ``double-free``:
the store cannot tell a double free from a never-valid key (both raise the
same generic error), so the attempt itself is flagged — a caller freeing a
key twice holds a stale handle no matter what the store replied.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.check import invariants
# The decision logic lives in repro.check.invariants — shared with the
# ZomCheck model checker so the two tools can never disagree on what
# "safe" means.
from repro.check.invariants import (CPU_DEAD_DISPATCH, DOUBLE_FREE,
                                    DOUBLE_LEND, DUPLICATE_EXECUTION,
                                    EPOCH_REGRESSION, LOST_BUFFER_ACCESS,
                                    POWER_DOMAIN, USE_AFTER_RECLAIM,
                                    ShadowState)


@dataclass
class BufferShadow:
    """Independent mirror of one buffer's safety-critical state."""

    host: str
    rkey: int
    state: ShadowState
    buffer_id: Optional[int] = None
    owner: Optional[str] = None      # user node holding the lease


@dataclass(frozen=True)
class MemSanFinding:
    """One shadow-state violation."""

    kind: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass
class LeakedStore:
    """One page store still holding leases at end of session."""

    node: str
    lease_ids: List[int] = field(default_factory=list)

    def __str__(self) -> str:
        ids = ", ".join(str(i) for i in self.lease_ids)
        return (f"store on node {self.node!r} still holds "
                f"{len(self.lease_ids)} lease(s): buffers [{ids}]")


@dataclass
class LeakedFrames:
    """One rack server whose allocator and lender/VM records disagree."""

    host: str
    unaccounted: int

    def __str__(self) -> str:
        return (f"server {self.host!r}: allocator has {self.unaccounted:+d} "
                f"frame(s) handed out beyond what its lent buffers and "
                f"VMs account for")


class MemorySanitizer:
    """Shadow-state sanitizer; one instance drives one install() session."""

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, int], BufferShadow] = {}
        #: Per-store freed page keys (stores are weakly referenced so the
        #: sanitizer never keeps a dead store alive).
        self._freed: "weakref.WeakKeyDictionary[Any, Set[int]]" = (
            weakref.WeakKeyDictionary())
        #: Per-RpcServer fencing-epoch watermark, one per issuing rack.
        #: Weak-keyed by the server *instance* (not node name): a fresh
        #: rack legitimately restarts its epochs at 1, but one server
        #: instance must only ever see a monotone sequence from each rack.
        self._epochs: "weakref.WeakKeyDictionary[Any, Dict[Any, int]]" = (
            weakref.WeakKeyDictionary())
        #: Per-RpcServer set of ``(method, req_id)`` pairs whose handler
        #: genuinely *executed* (not replayed from the dedup table); a
        #: second execution of a dedup_required pair is a finding.
        self._executions: "weakref.WeakKeyDictionary[Any, Set[Tuple]]" = (
            weakref.WeakKeyDictionary())
        #: Every store that ever held a lease while installed (leak report).
        self._stores: "weakref.WeakSet[Any]" = weakref.WeakSet()
        #: Every rack server built while installed (frame leak report).
        self._servers: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self.findings: List[MemSanFinding] = []
        self._installed = False
        self._originals: Dict[Tuple[type, str], Any] = {}

    # -- findings ---------------------------------------------------------
    def _record(self, kind: str, message: str) -> None:
        self.findings.append(MemSanFinding(kind, message))

    def drain_findings(self) -> List[MemSanFinding]:
        """Return accumulated findings and clear the list."""
        found, self.findings = self.findings, []
        return found

    # -- shadow transitions ----------------------------------------------
    def _on_add_lease(self, store: Any, lease: Any) -> None:
        prior = self._buffers.get((lease.host, lease.rkey))
        if prior is not None and invariants.lend_conflict(prior.state,
                                                          prior.owner):
            self._record(DOUBLE_LEND, (
                f"buffer {lease.buffer_id} (host {lease.host!r}, rkey "
                f"{lease.rkey:#x}) granted to {store.node.name!r} while "
                f"{prior.owner!r} still holds a live lease on it"))
        # A fresh grant legitimizes the buffer whatever its history (the
        # controller re-assigns released buffers under the same rkey).
        self._buffers[(lease.host, lease.rkey)] = BufferShadow(
            host=lease.host, rkey=lease.rkey, state=ShadowState.OK,
            buffer_id=lease.buffer_id, owner=store.node.name)
        self._stores.add(store)

    def _mark_reclaimed(self, host: str, rkey: int) -> None:
        shadow = self._buffers.get((host, rkey))
        # LOST outranks RECLAIMED: invalidation of a dead host's leases
        # must not soften the "this buffer is gone" verdict.
        if shadow is not None and shadow.state is ShadowState.OK:
            shadow.state = ShadowState.RECLAIMED
            shadow.owner = None

    def _on_set_kind(self, descriptor: Any, lost: bool) -> None:
        key = (descriptor.host, descriptor.rkey)
        if lost:
            shadow = self._buffers.get(key)
            if shadow is None:
                shadow = BufferShadow(host=descriptor.host,
                                      rkey=descriptor.rkey,
                                      state=ShadowState.LOST,
                                      buffer_id=descriptor.buffer_id)
                self._buffers[key] = shadow
            shadow.state = ShadowState.LOST
        else:
            shadow = self._buffers.get(key)
            if shadow is not None and shadow.state is ShadowState.LOST:
                shadow.state = ShadowState.OK  # host healed / false alarm

    # -- checks -----------------------------------------------------------
    def _check_verb(self, node: Any, qp: Any, rkey: int, verb: str) -> None:
        """Called after a one-sided verb *succeeded*."""
        target = node.fabric.nodes.get(qp.remote)
        platform = getattr(target, "platform", None)
        if platform is not None and not invariants.verb_power_legal(
                platform.state.cpu_alive, platform.is_zombie):
            self._record(POWER_DOMAIN, (
                f"{verb} from {node.name!r} succeeded against "
                f"{qp.remote!r} in {platform.state.value} — one-sided "
                f"verbs are only legal in S0/Sz (stale remote_ok cache?)"))
        shadow = self._buffers.get((qp.remote, rkey))
        if shadow is None:
            return
        kind = invariants.verb_violation(shadow.state)
        if kind == USE_AFTER_RECLAIM:
            self._record(USE_AFTER_RECLAIM, (
                f"{verb} from {node.name!r} touched reclaimed buffer "
                f"{shadow.buffer_id} (host {qp.remote!r}, "
                f"rkey {rkey:#x}) — its lease was revoked"))
        elif kind == LOST_BUFFER_ACCESS:
            self._record(LOST_BUFFER_ACCESS, (
                f"{verb} from {node.name!r} touched LOST buffer "
                f"{shadow.buffer_id} (host {qp.remote!r}, rkey {rkey:#x}) "
                f"— the controller declared its serving host dead"))

    def _check_free(self, store: Any, key: int) -> None:
        """Called *before* a page free; flags the second free of a key."""
        freed = self._freed.get(store)
        if invariants.double_free(freed is not None and key in freed):
            self._record(DOUBLE_FREE, (
                f"page key {key} freed twice on store at node "
                f"{store.node.name!r}"))

    def _note_freed(self, store: Any, key: int) -> None:
        self._freed.setdefault(store, set()).add(key)

    def _check_dispatch(self, server: Any, stamp: Any) -> None:
        """Called after an RPC dispatch *succeeded*."""
        if not invariants.dispatch_permitted(server.node.cpu_alive):
            self._record(CPU_DEAD_DISPATCH, (
                f"server {server.node.name!r} dispatched an RPC handler "
                f"while its CPU is dead — a zombie (Sz) host must never "
                f"run its RPC daemon"))
        if stamp is None:
            return
        rack, epoch = stamp
        watermarks = self._epochs.setdefault(server, {})
        watermark = watermarks.get(rack)
        if invariants.epoch_regressed(watermark, epoch):
            self._record(EPOCH_REGRESSION, (
                f"server {server.node.name!r} dispatched a call stamped "
                f"epoch {epoch} after having seen epoch {watermark} from "
                f"rack {rack!r} — a deposed controller went unfenced"))
            return
        watermarks[rack] = epoch

    def _note_execution(self, server: Any, method: str, req_id: Any) -> None:
        """A handler genuinely ran (not a dedup replay) for ``req_id``.

        A second genuine execution of the same ``(method, req_id)`` on a
        ``dedup_required`` verb is the at-least-once bug ZomNet's dedup
        table exists to prevent: the re-delivered request should have
        been answered from the cache.
        """
        if req_id is None:
            return
        if getattr(server, "idempotency", {}).get(method) != "dedup_required":
            return
        seen = self._executions.get(server)
        if seen is None:
            seen = set()
            self._executions[server] = seen
        key = (method, req_id)
        if key in seen:
            self._record(DUPLICATE_EXECUTION, (
                f"server {server.node.name!r} re-executed dedup_required "
                f"verb {method!r} for request id {req_id!r} — the "
                f"re-delivered request must be answered from the dedup "
                f"table, never re-run"))
        else:
            seen.add(key)

    # -- leak report ------------------------------------------------------
    def leak_report(self) -> List[LeakedStore]:
        """Stores still alive and holding leases (call after gc.collect())."""
        leaks: List[LeakedStore] = []
        for store in list(self._stores):
            lease_ids = sorted(getattr(store, "_leases", {}))
            if lease_ids:
                leaks.append(LeakedStore(node=store.node.name,
                                         lease_ids=lease_ids))
        leaks.sort(key=lambda leak: leak.node)
        return leaks

    def frame_leak_report(self) -> List[LeakedFrames]:
        """Live servers whose handed-out frames are not all accounted for.

        Lender-side conservation: every allocated frame backs a lent
        buffer's run or a VM's resident page (call after gc.collect()).
        """
        leaks: List[LeakedFrames] = []
        for server in list(self._servers):
            unaccounted = server.unaccounted_frames
            if unaccounted:
                leaks.append(LeakedFrames(server.name, unaccounted))
        leaks.sort(key=lambda leak: leak.host)
        return leaks

    # -- install / uninstall ---------------------------------------------
    def install(self) -> "MemorySanitizer":
        """Patch the hook points; a second install() raises, never stacks."""
        if self._installed:
            raise RuntimeError("MemorySanitizer is already installed")
        from repro.core.database import BufferDatabase
        from repro.core.protocol import BufferKind
        from repro.core.server import RackServer
        from repro.memory.buffers import RemotePageStore
        from repro.rdma.fabric import RdmaNode
        from repro.rdma.rpc import RpcServer, is_retryable

        san = self

        def _patch(cls: type, name: str, wrapper: Any) -> None:
            self._originals[(cls, name)] = getattr(cls, name)
            setattr(cls, name, wrapper)

        orig_add_lease = RemotePageStore.add_lease
        orig_remove_lease = RemotePageStore.remove_lease
        orig_drop_host = RemotePageStore.drop_host
        orig_release = RemotePageStore._release
        orig_verb = RdmaNode.verb
        orig_set_kind = BufferDatabase.set_kind
        orig_dispatch = RpcServer.dispatch
        orig_server_init = RackServer.__init__

        def server_init(self, *args, **kwargs):
            orig_server_init(self, *args, **kwargs)
            san._servers.add(self)

        def add_lease(self, lease):
            result = orig_add_lease(self, lease)
            san._on_add_lease(self, lease)
            return result

        def remove_lease(self, buffer_id):
            state = self._leases.get(buffer_id)
            result = orig_remove_lease(self, buffer_id)
            if state is not None:
                san._mark_reclaimed(state.lease.host, state.lease.rkey)
            return result

        def drop_host(self, host):
            doomed = [self._leases[bid].lease for bid in self._order
                      if self._leases[bid].lease.host == host]
            result = orig_drop_host(self, host)
            for lease in doomed:
                san._mark_reclaimed(lease.host, lease.rkey)
            return result

        def release(self, key, handle):
            # The store's one release point: ``free`` and ``exchange``
            # both pass through here.
            san._check_free(self, key)
            result = orig_release(self, key, handle)
            san._note_freed(self, key)
            return result

        def verb(self, qp, rkey, offset, length, write):
            result = orig_verb(self, qp, rkey, offset, length, write)
            san._check_verb(self, qp, rkey, "WRITE" if write else "READ")
            return result

        def set_kind(self, buffer_id, kind):
            descriptor = orig_set_kind(self, buffer_id, kind)
            san._on_set_kind(descriptor, lost=kind is BufferKind.LOST)
            return descriptor

        def dispatch(self, method, args, kwargs, req_id=None, budget=None,
                     stamp=None, ctx=None):
            served_before = self.calls_served
            try:
                result = orig_dispatch(self, method, args, kwargs, req_id,
                                       budget, stamp, ctx)
            # A handler that raised still *executed*; only retryable
            # outcomes are exempt (no response formed — the client's
            # retry is supposed to re-execute those).
            except Exception as exc:  # noqa: BLE001
                if (self.calls_served > served_before
                        and not is_retryable(exc)):
                    san._note_execution(self, method, req_id)
                raise
            if self.calls_served > served_before:
                san._note_execution(self, method, req_id)
            san._check_dispatch(self, stamp)
            return result

        _patch(RemotePageStore, "add_lease", add_lease)
        _patch(RemotePageStore, "remove_lease", remove_lease)
        _patch(RemotePageStore, "drop_host", drop_host)
        _patch(RemotePageStore, "_release", release)
        _patch(RdmaNode, "verb", verb)
        _patch(BufferDatabase, "set_kind", set_kind)
        _patch(RpcServer, "dispatch", dispatch)
        _patch(RackServer, "__init__", server_init)
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Restore every patched hook point."""
        if not self._installed:
            return
        for (cls, name), original in self._originals.items():
            setattr(cls, name, original)
        self._originals.clear()
        self._installed = False

    @property
    def installed(self) -> bool:
        return self._installed

    def __enter__(self) -> "MemorySanitizer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()
