"""The secondary memory controller (*secondary-ctr*).

Provides transparent high availability for the global controller: it
receives every mutation over a mirroring RPC channel (synchronous with the
primary's operations) and monitors the primary with a periodic heartbeat.
After ``miss_threshold`` consecutive missed heartbeats it promotes itself:
a fresh :class:`GlobalMemoryController` is built from the mirrored state.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.core.controller import GlobalMemoryController
from repro.core.database import BufferDatabase
from repro.core.protocol import Method
from repro.errors import FailoverError, RpcError
from repro.rdma.fabric import RdmaNode
from repro.rdma.rpc import RpcClient, RpcServer
from repro.sim.engine import Engine
from repro.sim.process import PeriodicProcess, check_monitor

#: The verb string read once: ``Method.X.value`` is an enum descriptor
#: call, and the heartbeat fires every period for the life of the rack.
_HEARTBEAT = Method.HEARTBEAT.value


class SecondaryController:
    """Hot standby: mirrored state + heartbeat-driven failover."""

    def __init__(self, node: RdmaNode, engine: Engine,
                 heartbeat_period_s: float = 1.0, miss_threshold: int = 3):
        check_monitor(heartbeat_period_s, miss_threshold)
        self.node = node
        self.engine = engine
        #: The mirrored replica of everything the primary's database holds.
        self.db = BufferDatabase()
        #: Highest mirror-stream sequence number applied.  The primary
        #: re-sends any suffix a transport fault left undelivered; ops at
        #: or below this watermark were already applied (their replies
        #: were the lost messages) and are skipped instead of re-executed.
        self.mirror_applied_seq = -1
        self.mirror_skips = 0
        self.rpc = RpcServer(node)
        self.rpc.register(Method.MIRROR_OP.value, self.apply_mirror)
        self.miss_threshold = miss_threshold
        self.consecutive_misses = 0
        self.heartbeats_ok = 0
        self.promoted: Optional[GlobalMemoryController] = None
        self.on_failover: Optional[Callable[["SecondaryController"], None]] = None
        self._heartbeat_client: Optional[RpcClient] = None
        self._monitor = PeriodicProcess(engine, heartbeat_period_s,
                                        self._check_heartbeat,
                                        name="secondary-heartbeat")

    # -- mirroring ---------------------------------------------------------
    def apply_mirror(self, op: str, args: tuple, seq: int) -> None:
        """Apply one mirrored mutation from the primary.

        The server has already fenced the op's epoch stamp: a deposed
        primary that heals and keeps mirroring is refused instead of
        silently corrupting the standby state.  ``seq`` is the op's
        position in the primary's replicated-op log; already-applied
        sequence numbers are skipped so the primary's catch-up re-sends
        stay exactly-once.  The op replays through the primary's own
        mutator, so a replica that diverged refuses it (``BufferError_``)
        instead of absorbing it.
        """
        if seq <= self.mirror_applied_seq:
            self.mirror_skips += 1
            return
        self.db.apply(op, args)
        self.mirror_applied_seq = seq

    @property
    def zombie_hosts(self) -> Set[str]:
        return self.db.zombie_hosts

    @property
    def known_hosts(self) -> Set[str]:
        return self.db.known_hosts

    # -- heartbeat monitoring -----------------------------------------------
    def watch(self, heartbeat_client: RpcClient) -> None:
        """Begin monitoring the primary through ``heartbeat_client``."""
        self._heartbeat_client = heartbeat_client
        self._monitor.start()

    def _check_heartbeat(self) -> None:
        if self._heartbeat_client is None or self.promoted is not None:
            return
        try:
            answer = self._heartbeat_client.call(_HEARTBEAT)
            alive = answer == "alive"
        except RpcError:  # zl: ignore[ZL005] a missed heartbeat IS the signal; failover emits FAILOVER
            alive = False
        if alive:
            self.consecutive_misses = 0
            self.heartbeats_ok += 1
            return
        self.consecutive_misses += 1
        if self.consecutive_misses >= self.miss_threshold:
            self._monitor.stop()
            if self.on_failover is not None:
                self.on_failover(self)

    # -- failover ----------------------------------------------------------
    def promote(self, buff_size: int,
                stripe: bool = True) -> GlobalMemoryController:
        """Become the primary, seeded with the mirrored state.

        Split-brain safety: the fencing epoch is bumped past anything the
        old primary ever stamped and the mirror channel's watermark
        raised to it, so the old primary's mirror ops are refused at once
        and its agent calls once the rack has re-learned the epoch.  The
        mirrored database (built by replaying the primary's journaled
        mutations as they arrived: buffers, purposes, zombie and known
        hosts) seeds the fresh controller in one copy; the caller (the
        rack) wires the returned controller to its agents.
        """
        if self.promoted is not None:
            raise FailoverError("secondary already promoted")
        # The mirror stream stamps no rack (it never leaves its rack), so
        # its watermark is the server's ``None`` entry.
        epoch = self.rpc.epochs[None] = self.rpc.epochs.get(None, 1) + 1
        controller = GlobalMemoryController(self.node, buff_size=buff_size,
                                            stripe=stripe, epoch=epoch)
        controller.db.adopt(self.db)
        self.promoted = controller
        self._monitor.stop()
        return controller
