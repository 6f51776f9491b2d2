"""The rack fabric: nodes, one-sided verbs, and access gating.

The key semantic carried here is the Sz asymmetry:

- a one-sided READ/WRITE needs the *initiator's* CPU (to post the work
  request) and the *target's* NIC-to-DRAM path — not the target's CPU.
  A zombie target therefore serves one-sided verbs.
- anything requiring target CPU (RPC dispatch) is modelled in
  :mod:`~repro.rdma.rpc` and refuses zombie targets.

Each node may be bound to a :class:`~repro.acpi.platform.ServerPlatform`;
the fabric then consults the platform's power state for gating.  Unbound
nodes (unit tests, controllers modelled without a board) are always up.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.acpi.devices import DeviceState
from repro.acpi.platform import ServerPlatform
from repro.acpi.states import SleepState
from repro.errors import ConfigurationError, RdmaError
from repro.obs import Telemetry
from repro.rdma.costs import RdmaCostModel
from repro.rdma.verbs import (AccessFlags, MemoryRegion, ProtectionDomain,
                              QpState, QueuePair)
from repro.units import PAGE_SIZE

#: Message-fault kinds the injector understands.  ``request_loss`` drops
#: the request before the handler sees it; ``reply_loss`` drops the
#: response after the handler ran (the at-least-once hazard);
#: ``duplicate`` delivers the request twice; ``reorder`` retransmits the
#: link's *previous* request ahead of the current one (a stale delayed
#: copy, the classic network reordering surface).
REQUEST_LOSS = "request_loss"
REPLY_LOSS = "reply_loss"
DUPLICATE = "duplicate"
REORDER = "reorder"

MESSAGE_FAULT_KINDS = (REQUEST_LOSS, REPLY_LOSS, DUPLICATE, REORDER)

#: Read on every RPC and probe: a module global is a plain name lookup,
#: where ``SleepState.S0`` is a class-attribute lookup on the enum.
_S0 = SleepState.S0
#: Read on every one-sided verb, for the same reason.
_RTS = QpState.RTS


@dataclass(frozen=True)
class LinkFaults:
    """Per-link fault probabilities plus deterministic added latency.

    Each probability is drawn independently per message, so one delivery
    can suffer several faults at once (a duplicated request whose reply
    is then lost).  ``extra_latency_s`` is added to every round trip on
    the link and is deducted from any propagated deadline budget.
    """

    request_loss: float = 0.0
    reply_loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    extra_latency_s: float = 0.0

    def __post_init__(self) -> None:
        for kind in MESSAGE_FAULT_KINDS:
            p = getattr(self, kind)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(
                    f"{kind} probability out of [0,1]: {p}"
                )
        if self.extra_latency_s < 0.0:
            raise ConfigurationError(
                f"negative extra_latency_s: {self.extra_latency_s}"
            )

    @cached_property
    def probabilistic(self) -> bool:
        return any(getattr(self, kind) > 0.0
                   for kind in MESSAGE_FAULT_KINDS)


@dataclass(frozen=True)
class InterRackLink:
    """Cost model of one rack-to-rack path (ZomFed's federation fabric).

    Cross-rack traffic leaves the rack switch for the aggregation layer,
    so every message pays ``extra_latency_s`` on top of the intra-rack
    cost model and every RPC/byte accrues the energy surcharges below —
    making placement quality measurable in ZomAudit's J/hour terms.
    """

    #: Added per-message round-trip latency (spine/aggregation hops).
    extra_latency_s: float = 40.0e-6
    #: Energy surcharge per RPC round trip crossing the link.
    joules_per_rpc: float = 5.0e-6
    #: Energy surcharge per payload byte crossing the link.
    joules_per_byte: float = 2.0e-9

    def __post_init__(self) -> None:
        if self.extra_latency_s < 0.0:
            raise ConfigurationError(
                f"negative inter-rack extra_latency_s: {self.extra_latency_s}")
        if self.joules_per_rpc < 0.0 or self.joules_per_byte < 0.0:
            raise ConfigurationError("inter-rack energy costs must be >= 0")


@dataclass
class MessageFaultDecision:
    """What the injector decided for one message on one link."""

    drop_request: bool = False
    drop_reply: bool = False
    duplicate: bool = False
    reorder: bool = False
    extra_latency_s: float = 0.0

    def kinds(self) -> List[str]:
        out = []
        if self.drop_request:
            out.append(REQUEST_LOSS)
        if self.drop_reply:
            out.append(REPLY_LOSS)
        if self.duplicate:
            out.append(DUPLICATE)
        if self.reorder:
            out.append(REORDER)
        return out


_NO_FAULTS = MessageFaultDecision()


class MessageFaultInjector:
    """Seeded, deterministic per-message fault injection for the fabric.

    Two modes compose:

    - **probabilistic plans** (:meth:`set_link`): a :class:`LinkFaults`
      spec per link, wildcards allowed, driven by a seeded
      :class:`~repro.sim.rng.DeterministicRng`.  Every message draws a
      *fixed* number of uniforms (one per fault kind) so the stream stays
      aligned no matter which faults fire — same seed, same fault
      placement, replayable.
    - **scripted one-shots** (:meth:`script`): "drop exactly the next
      ``GS_reclaim`` reply from ctr to h1" — consumed in FIFO order, at
      most one per message, what the property tests and chaos replays
      use for surgical placement.

    Link lookup precedence: ``(src, dst)`` → ``("*", dst)`` →
    ``(src, "*")`` → ``("*", "*")``.

    The injector is **off** until a plan or script is installed
    (``active`` is False and the RPC hot path pays a single attribute
    read), and it never touches one-sided verbs: the paper's data plane
    is DMA against pinned memory — the adversarial surface modelled here
    is the message-based control plane.
    """

    def __init__(self, rng=None):
        self.rng = rng
        self.plans: Dict[Tuple[str, str], LinkFaults] = {}
        #: FIFO of (kind, method-or-None) one-shots per link key.
        self.scripted: Dict[Tuple[str, str], List[Tuple[str,
                                                        Optional[str]]]] = {}
        #: Rack-pair plans/scripts keyed on (src_rack, dst_rack), applied
        #: only to messages whose endpoints resolve to *different* racks
        #: and only when no node-level plan/script matches first.
        self.rack_plans: Dict[Tuple[str, str], LinkFaults] = {}
        self.rack_scripts: Dict[Tuple[str, str], List[Tuple[str,
                                                            Optional[str]]]] = {}
        self._rack_resolver = None
        self.active = False
        self.injected: Dict[str, int] = {k: 0 for k in MESSAGE_FAULT_KINDS}

    def bind_rng(self, rng) -> None:
        """Attach the seeded stream probabilistic plans draw from."""
        self.rng = rng

    def bind_rack_resolver(self, resolver) -> None:
        """Attach the node-name → rack-name lookup rack plans resolve by."""
        self._rack_resolver = resolver

    # -- configuration ----------------------------------------------------
    def set_link(self, src: str, dst: str, faults: LinkFaults) -> None:
        """Install a probabilistic plan for one link (``"*"`` wildcards)."""
        if faults.probabilistic and self.rng is None:
            raise ConfigurationError(
                "probabilistic message faults need a seeded rng "
                "(call bind_rng first): unseeded faults are not replayable"
            )
        self.plans[(src, dst)] = faults
        self._refresh_active()

    def script(self, src: str, dst: str, kind: str,
               method: Optional[str] = None) -> None:
        """Queue a one-shot fault for the next matching message."""
        if kind not in MESSAGE_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown message-fault kind {kind!r}; "
                f"expected one of {MESSAGE_FAULT_KINDS}"
            )
        self.scripted.setdefault((src, dst), []).append((kind, method))
        self._refresh_active()

    def set_rack_link(self, src_rack: str, dst_rack: str,
                      faults: LinkFaults) -> None:
        """Install a probabilistic plan for one inter-rack link."""
        if faults.probabilistic and self.rng is None:
            raise ConfigurationError(
                "probabilistic message faults need a seeded rng "
                "(call bind_rng first): unseeded faults are not replayable"
            )
        self.rack_plans[(src_rack, dst_rack)] = faults
        self._refresh_active()

    def script_rack(self, src_rack: str, dst_rack: str, kind: str,
                    method: Optional[str] = None) -> None:
        """Queue a one-shot fault for the next matching cross-rack message."""
        if kind not in MESSAGE_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown message-fault kind {kind!r}; "
                f"expected one of {MESSAGE_FAULT_KINDS}"
            )
        self.rack_scripts.setdefault((src_rack, dst_rack),
                                     []).append((kind, method))
        self._refresh_active()

    def clear(self, src: Optional[str] = None,
              dst: Optional[str] = None) -> None:
        """Drop plans and scripts; with src/dst, only that link key."""
        if src is None and dst is None:
            self.plans.clear()
            self.scripted.clear()
            self.rack_plans.clear()
            self.rack_scripts.clear()
        else:
            self.plans.pop((src, dst), None)
            self.scripted.pop((src, dst), None)
            self.rack_plans.pop((src, dst), None)
            self.rack_scripts.pop((src, dst), None)
        self._refresh_active()

    def _refresh_active(self) -> None:
        self.active = bool(self.plans or self.scripted or self.rack_plans
                           or self.rack_scripts)

    # -- the per-message decision -----------------------------------------
    def _lookup_keys(self, src: str, dst: str):
        return ((src, dst), ("*", dst), (src, "*"), ("*", "*"))

    def _pop_script(self, scripts, keys, method):
        """Consume the first matching one-shot across ``keys`` (FIFO).

        A queue emptied here leaves ``scripts``, so ``scripts`` is empty
        exactly when nothing is queued.
        """
        for key in keys:
            queue = scripts.get(key)
            if not queue:
                continue
            for index, (kind, wanted) in enumerate(queue):
                if wanted is not None and wanted != method:
                    continue
                queue.pop(index)
                if not queue:
                    del scripts[key]
                decision = MessageFaultDecision()
                field = {REQUEST_LOSS: "drop_request",
                         REPLY_LOSS: "drop_reply",
                         DUPLICATE: "duplicate",
                         REORDER: "reorder"}[kind]
                setattr(decision, field, True)
                return decision
        return None

    def decide(self, src: str, dst: str,
               method: str) -> MessageFaultDecision:
        """One message is about to cross ``src → dst``: what happens?

        Only a consumed one-shot changes what is installed, so only then
        is ``active`` recomputed; with no one-shot queued, the script
        queues are not scanned at all.
        """
        if not self.active:
            return _NO_FAULTS
        node_keys = self._lookup_keys(src, dst)
        rack_keys = None
        if (self._rack_resolver is not None
                and (self.rack_plans or self.rack_scripts)):
            src_rack = self._rack_resolver(src)
            dst_rack = self._rack_resolver(dst)
            if (src_rack is not None and dst_rack is not None
                    and src_rack != dst_rack):
                rack_keys = self._lookup_keys(src_rack, dst_rack)
        decision = None
        if self.scripted:
            decision = self._pop_script(self.scripted, node_keys, method)
        if decision is None and rack_keys is not None and self.rack_scripts:
            decision = self._pop_script(self.rack_scripts, rack_keys, method)
        if decision is not None:
            self._refresh_active()
        plan = None
        for key in node_keys:
            plan = self.plans.get(key)
            if plan is not None:
                break
        if plan is None and rack_keys is not None:
            for key in rack_keys:
                plan = self.rack_plans.get(key)
                if plan is not None:
                    break
        if plan is not None:
            if decision is None:
                decision = MessageFaultDecision()
            if plan.probabilistic:
                # Fixed draw count per message, in kind order: the stream
                # never skews.
                random = self.rng.random
                decision.drop_request |= random() < plan.request_loss
                decision.drop_reply |= random() < plan.reply_loss
                decision.duplicate |= random() < plan.duplicate
                decision.reorder |= random() < plan.reorder
            decision.extra_latency_s += plan.extra_latency_s
        if decision is None:
            return _NO_FAULTS
        for kind in decision.kinds():
            self.injected[kind] += 1
        return decision


@dataclass
class FabricStats:
    """Aggregate fabric counters."""

    reads: int = 0
    writes: int = 0
    rpcs: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_seconds: float = 0.0


class RdmaNode:
    """One server's presence on the fabric: its PD, MRs and QPs."""

    def __init__(self, name: str, fabric: "Fabric",
                 platform: Optional[ServerPlatform] = None):
        self.name = name
        self.fabric = fabric
        self.platform = platform
        self.pd = ProtectionDomain(name)

    # -- power gating -----------------------------------------------------
    @property
    def cpu_alive(self) -> bool:
        """Whether this node's CPU runs (S0, or no board modelled).

        Reads the OSPM's state directly: every RPC checks both ends and
        every probe its target, and ``platform.state.cpu_alive`` is two
        more property frames per check.
        """
        platform = self.platform
        return platform is None or platform.ospm.current_state is _S0

    @property
    def memory_reachable(self) -> bool:
        """Whether remote peers can DMA into this node's DRAM right now.

        Reads the platform's cached flag (refreshed on every power
        transition) so the per-verb check is O(1).
        """
        if self.platform is None:
            return True
        return self.platform.remote_ok

    # -- MR / QP management -------------------------------------------------
    def register_mr(self, length: int,
                    access: AccessFlags = AccessFlags.all_access()) -> MemoryRegion:
        return self.pd.register(length, access)

    def deregister_mr(self, rkey: int) -> None:
        self.pd.deregister(rkey)

    def connect_qp(self, remote: str) -> QueuePair:
        if remote not in self.fabric.nodes:
            raise RdmaError(f"{self.name}: unknown remote node {remote!r}")
        qp = self.pd.create_qp(remote)
        qp.connect()
        return qp

    # -- one-sided verbs -----------------------------------------------------
    def rdma_read(self, qp: QueuePair, rkey: int, offset: int,
                  length: int) -> bytes:
        """One-sided READ from the remote MR.  No remote CPU involved."""
        payload, _ = self.rdma_read_timed(qp, rkey, offset, length)
        return payload

    def rdma_read_timed(self, qp: QueuePair, rkey: int, offset: int,
                        length: int):
        """READ returning ``(payload, elapsed_seconds)``."""
        mr, elapsed = self.verb(qp, rkey, offset, length, write=False)
        return mr.read(offset, length), elapsed

    def rdma_write(self, qp: QueuePair, rkey: int, offset: int,
                   payload: bytes) -> None:
        """One-sided WRITE into the remote MR.  No remote CPU involved."""
        self.rdma_write_timed(qp, rkey, offset, payload)

    def rdma_write_timed(self, qp: QueuePair, rkey: int, offset: int,
                         payload: bytes) -> float:
        """WRITE returning the elapsed seconds."""
        mr, elapsed = self.verb(qp, rkey, offset, len(payload), write=True)
        mr.write(offset, payload)
        return elapsed

    def verb(self, qp: QueuePair, rkey: int, offset: int, length: int,
             write: bool) -> Tuple[MemoryRegion, float]:
        """Post one one-sided READ or WRITE of ``length`` bytes.

        The only place a verb is gated, costed and counted: the queue
        pair must be in RTS and ours, both ends on the switch, the
        initiator's CPU up, the target's NIC-to-DRAM path open and the
        rkey's MR valid for the access.  Returns ``(mr, elapsed_seconds)``
        and moves no bytes; the byte verbs above copy through the MR, and
        a zero page (:class:`~repro.memory.buffers.RemotePageStore`) pays
        the same verb without copying anything.
        """
        if qp.state is not _RTS:
            qp.require_rts()
        fabric = self.fabric
        remote = qp.remote
        if fabric.partitioned:
            fabric.require_reachable(self.name)
            fabric.require_reachable(remote)
        if qp.local != self.name:
            raise RdmaError(
                f"{self.name}: QP{qp.qp_num} belongs to {qp.local!r}"
            )
        # RdmaNode.cpu_alive and RdmaNode.memory_reachable, and below
        # ProtectionDomain.lookup's refusal rule, read without their
        # frames; test_rdma.py checks the gate against the properties.
        platform = self.platform
        if platform is not None and platform.ospm.current_state is not _S0:
            raise RdmaError(
                f"{self.name}: cannot post work requests while suspended "
                "(initiator CPU required)"
            )
        target = fabric.nodes.get(remote) or fabric.node(remote)
        platform = target.platform
        if platform is not None and not platform.remote_ok:
            raise RdmaError(
                f"{target.name}: memory not remotely accessible "
                f"(state {platform.state}); one-sided verbs need the Sz or "
                "S0 NIC-to-DRAM path"
            )
        mr = target.pd.regions.get(rkey)
        if mr is None or mr.invalidated:
            mr = target.pd.lookup(rkey)  # refuses, with lookup's message
        mr.check(offset, length, write)
        costs = fabric.costs
        elapsed = (costs.page_transfer_s if length == PAGE_SIZE
                   else costs.transfer_time(length))
        if fabric.racks:
            elapsed += fabric.charge_cross_rack(self.name, remote,
                                                nbytes=length)
        stats = fabric.stats
        if write:
            stats.writes += 1
            stats.bytes_written += length
        else:
            stats.reads += 1
            stats.bytes_read += length
        stats.busy_seconds += elapsed
        return mr, elapsed


class Fabric:
    """The rack switch: a name → node directory plus shared cost model.

    Also the fault-injection point: :meth:`partition` makes a node
    unreachable (link/switch-port failure) without touching its power
    state, and :meth:`wake_on_lan` delivers the magic packet a suspended
    server's NIC listens for.
    """

    def __init__(self, costs: Optional[RdmaCostModel] = None,
                 telemetry: Optional[Telemetry] = None):
        self.costs = costs or RdmaCostModel()
        self.nodes: Dict[str, RdmaNode] = {}
        self.stats = FabricStats()
        self.partitioned: set = set()
        #: The rack's ZomTrace hub.  Every fabric carries one so
        #: instrumented code can always reach ``node.fabric.telemetry``;
        #: the default hub is disabled (no-op instruments, no spans).
        self.telemetry = telemetry or Telemetry(enabled=False)
        #: Message-level adversary (off until a plan/script is installed).
        self.message_faults = MessageFaultInjector()
        #: Circuit breakers per *server* node name, so :meth:`heal` can
        #: half-open them instead of leaving a healed host dark for the
        #: rest of the cooldown.  Weak so forgotten channels die quietly.
        self._breakers: Dict[str, "weakref.WeakSet"] = {}
        #: Propagated deadline budgets, innermost last.  ``dispatch``
        #: pushes the delivered budget around the handler so nested
        #: downstream clients (controller → serving host) inherit the
        #: shrunk remainder; single-threaded simulation makes a plain
        #: stack exact.
        self.deadlines: List[Optional[float]] = []
        #: Node → rack membership (ZomFed).  Nodes never placed in a
        #: rack pay no cross-rack surcharge, so single-rack setups are
        #: bit-identical to the pre-federation fabric (and the RPC path
        #: skips the surcharge lookup while this is empty).
        self.racks: Dict[str, str] = {}
        #: The one inter-rack cost model every cross-rack message pays.
        #: None = cross-rack costing off.
        self._inter_rack_link: Optional[InterRackLink] = None
        #: Plain federation counters (mirrored as ``fed_*`` metrics).
        self.cross_rack_ops = 0
        self.cross_rack_bytes = 0
        self.cross_rack_joules = 0.0
        self.message_faults.bind_rack_resolver(self.rack_of)

    # -- deadline propagation ---------------------------------------------
    def current_deadline(self) -> Optional[float]:
        """The innermost propagated budget (None = unconstrained)."""
        if not self.deadlines:
            return None
        return self.deadlines[-1]

    # -- breaker registry --------------------------------------------------
    def register_breaker(self, server_name: str, breaker) -> None:
        """Track a channel's breaker under its server's node name."""
        self._breakers.setdefault(server_name, weakref.WeakSet()).add(breaker)

    def add_node(self, name: str,
                 platform: Optional[ServerPlatform] = None) -> RdmaNode:
        if name in self.nodes:
            raise RdmaError(f"duplicate fabric node {name!r}")
        node = RdmaNode(name, self, platform)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> RdmaNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise RdmaError(f"unknown fabric node {name!r}") from None

    # -- rack topology (ZomFed) --------------------------------------------
    def set_rack(self, name: str, rack: str) -> None:
        """Place a node in a rack (enables inter-rack costing for it)."""
        self.node(name)  # validate
        self.racks[name] = rack

    def rack_of(self, name: str) -> Optional[str]:
        """The rack a node lives in (None = not federation-placed)."""
        return self.racks.get(name)

    def set_inter_rack_link(self, link: InterRackLink) -> None:
        """Register the cost model every cross-rack message pays."""
        self._inter_rack_link = link

    def cross_rack_link(self, src: str, dst: str) -> Optional[InterRackLink]:
        """The link a ``src → dst`` message pays, or None when intra-rack."""
        src_rack = self.racks.get(src)
        dst_rack = self.racks.get(dst)
        if src_rack is None or dst_rack is None or src_rack == dst_rack:
            return None
        return self._inter_rack_link

    def charge_cross_rack(self, src: str, dst: str, *, rpcs: int = 0,
                          nbytes: int = 0) -> float:
        """Accrue the federation surcharge for one ``src → dst`` crossing.

        Returns the extra latency the caller adds to its elapsed time;
        the energy lands on ``fed_*`` counters labelled by rack pair so
        ZomAudit can price placement quality in J/hour terms.
        """
        link = self.cross_rack_link(src, dst)
        if link is None:
            return 0.0
        joules = rpcs * link.joules_per_rpc + nbytes * link.joules_per_byte
        self.cross_rack_ops += rpcs
        self.cross_rack_bytes += nbytes
        self.cross_rack_joules += joules
        registry = self.telemetry.registry
        labels = {"src_rack": self.racks[src],
                  "dst_rack": self.racks[dst]}
        if rpcs:
            registry.counter(
                "fed_cross_rack_ops_total",
                "messages that crossed an inter-rack link",
                **labels).inc(rpcs)
        if nbytes:
            registry.counter(
                "fed_cross_rack_bytes_total",
                "payload bytes that crossed an inter-rack link",
                **labels).inc(nbytes)
        registry.counter(
            "fed_cross_rack_joules_total",
            "energy surcharge accrued on inter-rack links",
            **labels).inc(joules)
        return link.extra_latency_s

    # -- fault injection ---------------------------------------------------
    def partition(self, name: str) -> None:
        """Cut a node off the switch (fails its verbs and RPCs)."""
        self.node(name)  # validate
        self.partitioned.add(name)

    def heal(self, name: str) -> None:
        """Reconnect a partitioned node.

        Breakers that tripped against the node while it was dark are
        nudged to HALF_OPEN: the next call is a live probe instead of a
        fast failure, so a healed host is not stuck unreachable behind an
        open breaker for the remainder of the cooldown.
        """
        self.partitioned.discard(name)
        for breaker in self._breakers.get(name, ()):
            breaker.notify_healed()

    def require_reachable(self, name: str) -> None:
        if name in self.partitioned:
            raise RdmaError(f"{name}: fabric link down (partitioned)")

    def is_reachable(self, name: str) -> bool:
        """Non-raising reachability check (recovery probes)."""
        return name in self.nodes and name not in self.partitioned

    # -- Wake-on-LAN --------------------------------------------------------
    def wake_on_lan(self, name: str) -> float:
        """Send the WoL magic packet to ``name``; returns resume latency.

        Works against any state whose NIC keeps aux power (S3, S4, Sz);
        S5 platforms (NIC in D3cold) ignore the packet.
        """
        self.require_reachable(name)
        target = self.node(name)
        if target.platform is None:
            return 0.0  # not power-modelled: treat as always awake
        platform = target.platform
        if platform.state.cpu_alive:
            return 0.0
        nic = platform.infiniband
        if nic is None or nic.state is DeviceState.D3_COLD:
            raise RdmaError(
                f"{name}: NIC has no standby power in "
                f"{platform.state.value}; WoL packet lost"
            )
        return platform.wake()
