"""Known-bad mutants: seeded protocol bugs the checker must catch.

Every mutant exists twice — as a model flag
(``ProtocolModel(bounds, mutant=name)``) and as a concrete monkeypatch
here — so a counterexample found against the mutated *model* can be
replayed against the real system with the same bug compiled in
(:mod:`repro.check.replay`).  :data:`MUTANTS` is the one list of their
names; the model and the CLI read it from here.

The four seeded bugs:

- ``skip-epoch-bump``   — :meth:`SecondaryController.promote` forgets to
  bump the fencing epoch, so a healed old primary is never fenced and
  its stale mirror writes land (``fenced-write``);
- ``dispatch-in-sz``    — the RPC daemon keeps running on a CPU-dead
  host: the transport's "daemon runs" seam answers yes, so the
  server-side refusal and the client-side suspended-server timeout are
  both dropped (``cpu-dead-dispatch``);
- ``double-lend``       — the buffer database's ``assign`` drops the
  allocated guard and leaves the buffer in its free bucket, so the
  controller grants buffers whose previous lease is still live
  (``double-lend``);
- ``no-dedup``          — the server's exactly-once dedup table goes
  blind (lookups miss, stores vanish), so a re-delivered
  ``dedup_required`` verb re-executes its handler
  (``duplicate-execution``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple, Type


class Mutant:
    """One installable concrete bug; use as a context manager."""

    #: Its key in :data:`MUTANTS`, and the model's ``mutant=`` flag.
    name: str = ""

    def __init__(self) -> None:
        self._originals: List[Tuple[type, str, Any]] = []

    # -- patch bookkeeping ------------------------------------------------
    def _patch(self, cls: type, attr: str, replacement: Any) -> None:
        self._originals.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, replacement)

    def install(self) -> "Mutant":
        if self._originals:
            raise RuntimeError(f"mutant {self.name!r} is already installed")
        self._apply()
        return self

    def uninstall(self) -> None:
        while self._originals:
            cls, attr, original = self._originals.pop()
            setattr(cls, attr, original)

    def _apply(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Mutant":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()


class SkipEpochBumpMutant(Mutant):
    """Promotion without the epoch bump: split-brain fencing is void."""

    name = "skip-epoch-bump"

    def _apply(self) -> None:
        from repro.core.secondary import SecondaryController

        orig_promote = SecondaryController.promote

        def promote(self, buff_size, stripe=True):
            controller = orig_promote(self, buff_size, stripe=stripe)
            # The bug: undo the epoch bump everywhere it was recorded (the
            # mirror channel's watermark and the new primary), as if the
            # increment had never been written.
            self.rpc.epochs[None] -= 1
            controller.epoch -= 1
            return controller

        self._patch(SecondaryController, "promote", promote)


class DispatchInSzMutant(Mutant):
    """The RPC daemon survives the S0 → Sz transition.

    :meth:`RpcServer._daemon_runs` — the one place both halves of the
    transport ask — answers yes on a dead CPU, so dispatch serves a
    zombie host and the client's "server suspended" timeout never fires:
    a call to a zombie host is delivered and handled instead of timing
    out.
    """

    name = "dispatch-in-sz"

    def _apply(self) -> None:
        from repro.rdma.rpc import RpcServer

        def _daemon_runs(self):
            return True  # bug: the daemon outlives its CPU

        self._patch(RpcServer, "_daemon_runs", _daemon_runs)


class DoubleLendMutant(Mutant):
    """The database forgets which buffers are already allocated."""

    name = "double-lend"

    def _apply(self) -> None:
        from repro.core.database import BufferDatabase

        def assign(self, buffer_id, user, purpose=None):
            descriptor = self.get(buffer_id)  # bug: no allocated guard
            updated = descriptor.with_user(user, purpose)
            # bug: the record is stored past ``_put``, so its free bucket
            # still lists it and the next allocation grants it again.
            self._buffers[buffer_id] = updated
            self._by_host[updated.host][buffer_id] = updated
            self.journal.append(("assign", (buffer_id, user, purpose)))
            return updated

        self._patch(BufferDatabase, "assign", assign)


class NoDedupMutant(Mutant):
    """The exactly-once dedup table goes blind.

    Lookups always miss and stores are dropped, so a re-delivered
    ``dedup_required`` request re-executes its handler — the
    at-least-once bug ZomNet exists to rule out.
    """

    name = "no-dedup"

    def _apply(self) -> None:
        from repro.rdma.rpc import RpcServer

        def _dedup_lookup(self, method, req_id):
            return None  # bug: every re-delivery looks brand new

        def _dedup_store(self, method, req_id, status, payload, stamp):
            pass  # bug: nothing is ever remembered

        self._patch(RpcServer, "_dedup_lookup", _dedup_lookup)
        self._patch(RpcServer, "_dedup_store", _dedup_store)


_REGISTRY: Dict[str, Type[Mutant]] = {
    cls.name: cls for cls in (SkipEpochBumpMutant, DispatchInSzMutant,
                              DoubleLendMutant, NoDedupMutant)
}

#: Seedable protocol bugs; ``ProtocolModel(bounds, mutant=...)`` explores
#: the broken state machine and :func:`mutant` applies the matching
#: concrete patch for counterexample replay.
MUTANTS = tuple(_REGISTRY)


def mutant(name: str) -> Mutant:
    """Instantiate the concrete mutant registered under ``name``."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown mutant {name!r}; "
                         f"known: {', '.join(sorted(_REGISTRY))}") from None
