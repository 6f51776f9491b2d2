"""Serving-host crash recovery and the scripted fault-schedule harness.

The paper's robustness story has three legs: striping "minimizes the
performance impact caused by a remote server failure" (§4.3), every remote
write is mirrored to local storage (footnote 3), and the controller pair is
HA (§4.2).  This module adds the missing coordination: *detecting* a dead
or partitioned serving host, invalidating its buffers rack-wide
(``US_invalidate``), and measuring the blast radius so striping's benefit
is quantifiable.

Detection uses two signals:

- **probes** — a :class:`~repro.sim.process.PeriodicProcess` heartbeats
  every known host through the controller's agent channels.  Zombie hosts
  (CPU off by design) are probed on the NIC-to-DRAM path instead, the same
  path their one-sided verbs use;
- **user reports** — a user whose one-sided verb failed escalates through
  ``GS_report_failure``; the coordinator re-probes and, if the host really
  is down, recovers immediately instead of waiting out the miss threshold.

Recovery marks the host's buffers ``LOST`` (journaled and mirrored),
notifies every affected user with ``US_invalidate`` — users re-home the
lost pages from their local-storage mirror — purges the records, and logs
a :class:`HostRecoveryStats` incident for benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.controller import GlobalMemoryController
from repro.core.events import EventKind
from repro.core.protocol import BufferKind, Method
from repro.errors import (ConfigurationError, ControllerError, FencingError,
                          RpcError)
from repro.sim.process import PeriodicProcess, check_monitor
from repro.sim.rng import DeterministicRng

ControllerFn = Callable[[], GlobalMemoryController]

#: Read once: every awake host costs one heartbeat per probe round.
_HEARTBEAT = Method.HEARTBEAT


class OwedWork(Dict[Tuple[str, str], List[int]]):
    """Ids owed to a target until it takes them: ``(target, subject) → ids``.

    Recovery's resyncs and invalidations and the federation's recalls are
    each one of these.  Owing is a union, so a second debt never erases
    the first; :meth:`settle` drops exactly the delivered ids from what is
    owed *now*, so ids owed while a delivery was in flight survive it.
    A key is present only while something is owed to it.
    """

    __slots__ = ()

    def owe(self, target: str, subject: str, ids: Iterable[int]) -> None:
        owed = self.get((target, subject), [])
        owed += [x for x in ids if x not in owed]
        if owed:
            self[(target, subject)] = owed

    def due(self) -> List[Tuple[Tuple[str, str], List[int]]]:
        """Everything owed, by key: a snapshot a delivery may outlive."""
        return [(key, list(ids)) for key, ids in sorted(self.items())]

    def settle(self, target: str, subject: str, ids: List[int]) -> None:
        remaining = [x for x in self.pop((target, subject), ())
                     if x not in ids]
        if remaining:
            self[(target, subject)] = remaining

    def pay(self, deliver: Callable[[str, str, List[int]], bool],
            target: Optional[str] = None) -> int:
        """Offer every debt (only ``target``'s, if given) to ``deliver``,
        in key order, and settle each it took (it returns ``True``).
        Returns the number of ids settled."""
        paid = 0
        for (to, subject), ids in self.due():
            if (target is None or to == target) and deliver(to, subject, ids):
                self.settle(to, subject, ids)
                paid += len(ids)
        return paid


@dataclass
class HostRecoveryStats:
    """One serving-host-loss incident, as measured by the controller."""

    host: str
    detected_at: float
    #: Every buffer record the host was serving (free ones included).
    buffers_lost: int = 0
    #: The allocated subset — what users actually felt.
    allocated_buffers_lost: int = 0
    users_affected: int = 0
    #: Worst single user's lost-buffer count: the per-failure blast
    #: radius striping is supposed to bound.
    max_user_buffers_lost: int = 0
    user_buffers_lost: Dict[str, int] = field(default_factory=dict)
    #: Pages that found no surviving remote slot and are served from the
    #: local mirror until repair.
    pages_fallback: int = 0
    #: Users we could not notify (unreachable themselves); they resync
    #: when they heal.
    notify_failures: int = 0
    recovered_at: Optional[float] = None


class RecoveryCoordinator:
    """Rack-wide failure detector + buffer invalidator for the primary.

    Built with a *callable* returning the current primary so the same
    coordinator keeps working across a secondary promotion; it runs on
    the engine of that primary's fabric.
    """

    def __init__(self, controller_fn: ControllerFn):
        self._controller_fn = controller_fn
        self.engine = controller_fn().node.fabric.engine
        #: Consecutive missed probes before a host is lost (set by start).
        self.miss_threshold = 3
        self.lost_hosts: Set[str] = set()
        self.incidents: List[HostRecoveryStats] = []
        self._open_incident: Dict[str, HostRecoveryStats] = {}
        self._misses: Dict[str, int] = {}
        #: Buffer ids invalidated per lost host, owed an ``AS_resync``:
        #: (host, host) → ids.
        self._owed_resyncs = OwedWork()
        #: Invalidations a user could not receive (it was unreachable
        #: itself during the recovery), owed a retry: (user, serving host)
        #: → buffer ids.  Without the retry the user keeps stale leases
        #: to purged buffers and uses them again once it heals.
        self._owed_invalidations = OwedWork()
        self.probes_sent = 0
        self.reports_received = 0
        self._monitor: Optional[PeriodicProcess] = None

    @property
    def controller(self) -> GlobalMemoryController:
        return self._controller_fn()

    # -- lifecycle ---------------------------------------------------------
    def start(self, probe_period_s: float, miss_threshold: int) -> None:
        """Probe every host each ``probe_period_s``; a host is lost after
        ``miss_threshold`` consecutive misses.  Starting again re-times
        the rounds from now."""
        check_monitor(probe_period_s, miss_threshold)
        self.stop()
        self.miss_threshold = miss_threshold
        self._monitor = PeriodicProcess(self.engine, probe_period_s,
                                        self.probe_tick,
                                        name="host-recovery-probe")
        self._monitor.start()

    def stop(self) -> None:
        if self._monitor is not None:
            self._monitor.stop()

    # -- detection ---------------------------------------------------------
    def probe_tick(self) -> None:
        """One monitoring round: every known serving host, probed once.

        What a probe costs depends on the host (see :meth:`_alive`): a
        partitioned or missing host is dead and a host asleep on purpose
        is alive without a message, a zombie is judged by its
        NIC-to-DRAM path, and only an awake host costs a heartbeat RPC.
        """
        controller = self.controller
        if controller.fenced:
            return
        # Resolved once per round, not once per host: the tables and
        # sets are live, so a loss declared mid-round still shows.
        view = self._probe_view(controller)
        alive_in = self._alive
        probed = 0
        try:
            for host in sorted(controller.known_hosts):
                probed += 1
                alive = alive_in(host, view)
                # The miss bookkeeping comes first and the resync of a
                # healed host (a round trip) last, so no write follows
                # it (ZL010).
                if host not in self.lost_hosts:
                    if alive:
                        self._misses[host] = 0
                        continue
                    self._misses[host] = self._misses.get(host, 0) + 1
                    if self._misses[host] >= self.miss_threshold:
                        self.declare_host_lost(host)
                elif alive:
                    self.declare_host_recovered(host)
        finally:
            # Counted per host visited, as probing each host would.
            self._count_probes(controller, probed)
        if self._owed_resyncs:
            self._owed_resyncs.pay(self._resync)
        if self._owed_invalidations:
            self._owed_invalidations.pay(self._invalidate)

    @staticmethod
    def _probe_view(controller: GlobalMemoryController) -> tuple:
        """What a probe reads: the primary, its fabric's node table and
        partition set, and the zombie set."""
        fabric = controller.node.fabric
        return (controller, fabric.nodes, fabric.partitioned,
                controller.zombie_hosts)

    def _count_probes(self, controller: GlobalMemoryController,
                      probes: int) -> None:
        self.probes_sent += probes
        telemetry = controller.node.fabric.telemetry
        if telemetry.enabled:
            telemetry.registry.counter(
                "recovery_probes_total",
                "Liveness probes sent by the recovery monitor.").inc(probes)

    def _probe(self, host: str) -> bool:
        """One counted liveness probe of ``host`` outside a round."""
        controller = self.controller
        self._count_probes(controller, 1)
        return self._alive(host, self._probe_view(controller))

    @staticmethod
    def _alive(host: str, view: tuple) -> bool:
        """The liveness rule, fitted to the host's role.

        Zombies answer on the NIC-to-DRAM path only; active hosts answer
        RPC.  An *intentionally* suspended host (S3/S4/S5, nothing lent
        from there) is not a failure.
        """
        controller, nodes, partitioned, zombies = view
        node = nodes.get(host)
        if node is None or host in partitioned:
            return False
        if host in zombies:
            # CPU off by design: the NIC-to-DRAM path its one-sided
            # verbs use is what has to be up.
            return node.memory_reachable
        if not node.cpu_alive:
            return True  # asleep on purpose, not crashed
        try:
            controller._agent_call(host, _HEARTBEAT)
            return True
        except RpcError:
            return False
        except FencingError:
            raise  # we were deposed: abort the round loudly, as _resync does
        except ControllerError:
            return True  # no channel to judge by; don't false-positive

    def report_failure(self, reporter: str, host: str) -> bool:
        """``GS_report_failure`` path: verify the report, then recover.

        A verb failure plus a failed probe is treated as conclusive —
        the miss threshold exists to debounce the *periodic* monitor, not
        to delay recovery when a user is already taking faults.
        """
        self.reports_received += 1
        if host not in self.controller.known_hosts:
            return False
        if host in self.lost_hosts:
            return True
        if self._probe(host):
            return False
        self.declare_host_lost(host, reported_by=reporter)
        return True

    # -- recovery ----------------------------------------------------------
    def declare_host_lost(self, host: str,
                          reported_by: Optional[str] = None
                          ) -> Optional[HostRecoveryStats]:
        """Invalidate every buffer served by ``host`` rack-wide."""
        controller = self.controller
        if host in self.lost_hosts:
            return None
        tel = controller.node.fabric.telemetry
        with tel.tracer.span("recover.host_lost", host=host,
                             node=controller.node.name,
                             reported_by=reported_by or "monitor") as span:
            descriptors = sorted(controller.db.by_host(host),
                                 key=lambda b: b.buffer_id)
            stats = HostRecoveryStats(host=host, detected_at=self.engine.now,
                                      buffers_lost=len(descriptors))
            per_user: Dict[str, List[int]] = {}
            for descriptor in descriptors:
                controller.db.set_kind(descriptor.buffer_id, BufferKind.LOST)
                if descriptor.user is not None:
                    per_user.setdefault(descriptor.user, []).append(
                        descriptor.buffer_id
                    )
            stats.users_affected = len(per_user)
            stats.user_buffers_lost = {u: len(ids)
                                       for u, ids in per_user.items()}
            stats.allocated_buffers_lost = sum(
                stats.user_buffers_lost.values())
            stats.max_user_buffers_lost = max(
                stats.user_buffers_lost.values(), default=0)
            unreached: List[Tuple[str, List[int]]] = []
            for user, ids in sorted(per_user.items()):
                try:
                    fallbacks = controller._agent_call(
                        user, Method.US_INVALIDATE, host, ids
                    )
                    stats.pages_fallback += fallbacks
                    controller.events.emit(EventKind.BUFFERS_INVALIDATED,
                                           user, serving_host=host,
                                           buffers=len(ids),
                                           fallback_pages=fallbacks)
                except FencingError:
                    raise  # we were deposed mid-recovery: abort loudly
                except (RpcError, ControllerError):  # zl: ignore[ZL005] counted in notify_failures; HOST_LOST reports it
                    stats.notify_failures += 1
                    unreached.append((user, ids))
            for descriptor in descriptors:
                # The US_invalidate round trips above are yield points:
                # an interleaved handler (a release, another recovery) may
                # already have removed one of these records.  Re-validate
                # before purging (ZL010).
                if descriptor.buffer_id not in controller.db:
                    continue
                controller.db.remove(descriptor.buffer_id)
            if host in controller.zombie_hosts:
                controller.db.zombie_remove(host)
            controller._pump_mirror()
            # Every round trip above is a yield point: a recovery of the
            # same host that ran meanwhile has already opened the incident
            # and queued its own owed invalidations.  Re-read before the
            # first recovery-state write, so there is one incident (ZL010).
            if host in self.lost_hosts:
                return None
            for user, ids in unreached:
                self._owed_invalidations.owe(user, host, ids)
            self.lost_hosts.add(host)
            self._misses[host] = 0
            self._owed_resyncs.owe(host, host,
                                   [d.buffer_id for d in descriptors])
            self.incidents.append(stats)
            self._open_incident[host] = stats
            controller.events.emit(
                EventKind.HOST_LOST, host, buffers=stats.buffers_lost,
                users=stats.users_affected,
                fallback_pages=stats.pages_fallback,
                max_user_buffers=stats.max_user_buffers_lost,
                reported_by=reported_by or "monitor",
            )
            span.set_tag("buffers_lost", stats.buffers_lost)
            span.set_tag("users_affected", stats.users_affected)
        if tel.enabled:
            registry = tel.registry
            registry.counter("recovery_incidents_total",
                             "Serving-host-loss incidents declared.").inc()
            registry.counter(
                "recovery_buffers_invalidated_total",
                "Buffer records purged by host-loss recovery.",
            ).inc(stats.buffers_lost)
            registry.counter(
                "recovery_fallback_pages_total",
                "Pages forced onto the local mirror by host loss.",
            ).inc(stats.pages_fallback)
            registry.gauge("lost_hosts",
                           "Hosts currently declared lost.").set(
                len(self.lost_hosts))
        return stats

    def declare_host_recovered(self, host: str) -> None:
        """A lost host answers probes again: close the incident, resync."""
        if host not in self.lost_hosts:
            return
        self.lost_hosts.discard(host)
        self._misses[host] = 0
        stats = self._open_incident.pop(host, None)
        if stats is not None:
            stats.recovered_at = self.engine.now
        self.controller.events.emit(EventKind.HOST_RECOVERED, host)
        tel = self.controller.node.fabric.telemetry
        if tel.enabled:
            tel.registry.gauge("lost_hosts",
                               "Hosts currently declared lost.").set(
                len(self.lost_hosts))
            if stats is not None:
                tel.registry.histogram(
                    "recovery_outage_seconds",
                    "Declared-lost to recovered, per incident.",
                ).observe(stats.recovered_at - stats.detected_at)
        self._owed_resyncs.pay(self._resync, host)

    def _resync(self, host: str, _: str, stale: List[int]) -> bool:
        """Tell a healed lender to drop its stale lent-buffer records."""
        controller = self.controller
        node = controller.node.fabric.nodes.get(host)
        if host in self.lost_hosts or node is None or not node.cpu_alive:
            return False  # lost, or still a zombie (CPU off): after it wakes
        try:
            controller._agent_call(host, Method.AS_RESYNC, stale)
        except FencingError:
            raise  # we were deposed: abort loudly, as _invalidate does
        except (RpcError, ControllerError):
            return False  # still owed; retried on the next probe tick
        return True

    def _invalidate(self, user: str, host: str, ids: List[int]) -> bool:
        """Deliver a ``US_invalidate`` the user missed while unreachable
        (found by ZomCheck's lost-buffer-access exploration: this retry
        makes the model's atomic invalidation eventually true)."""
        controller = self.controller
        fabric = controller.node.fabric
        node = fabric.nodes.get(user)
        if (node is None or not node.cpu_alive
                or not fabric.is_reachable(user)):
            return False
        try:
            fallbacks = controller._agent_call(user, Method.US_INVALIDATE,
                                               host, ids)
        except FencingError:
            raise  # we were deposed: abort loudly, as in declare_host_lost
        except (RpcError, ControllerError):
            return False  # still owed; retried on the next probe tick
        controller.events.emit(
            EventKind.BUFFERS_INVALIDATED, user, serving_host=host,
            buffers=len(ids), fallback_pages=fallbacks, deferred=True,
        )
        return True

    # -- introspection -----------------------------------------------------
    def stats_for(self, host: str) -> List[HostRecoveryStats]:
        return [s for s in self.incidents if s.host == host]

    def summary(self) -> Dict[str, object]:
        return {
            "incidents": len(self.incidents),
            "open": len(self.lost_hosts),
            "pages_fallback": sum(s.pages_fallback for s in self.incidents),
            "max_user_buffers_lost": max(
                (s.max_user_buffers_lost for s in self.incidents), default=0
            ),
            "probes_sent": self.probes_sent,
            "reports_received": self.reports_received,
        }


# -- scripted fault schedules -------------------------------------------------

#: Action kinds a schedule may carry.
PARTITION = "partition"
HEAL = "heal"
CRASH = "crash"
KILL_CONTROLLER = "kill-controller"
#: Message-level faults (ZomNet): arm the fabric's per-message fault
#: injector on a link (``host`` is the destination, ``src`` the source,
#: ``"*"`` wildcards both) with a :class:`~repro.rdma.fabric.LinkFaults`
#: plan, or disarm it again.
MESSAGE_FAULTS = "message-faults"
CLEAR_MESSAGE_FAULTS = "clear-message-faults"

_KINDS = (PARTITION, HEAL, CRASH, KILL_CONTROLLER,
          MESSAGE_FAULTS, CLEAR_MESSAGE_FAULTS)


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: "partition host X at t=5s"."""

    at_s: float
    kind: str
    host: Optional[str] = None
    #: Source node for message-level faults (``"*"`` = any sender).
    src: str = "*"
    #: The :class:`~repro.rdma.fabric.LinkFaults` plan a
    #: ``message-faults`` action installs.
    faults: Optional[object] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown fault kind {self.kind!r}")
        if self.kind == MESSAGE_FAULTS:
            if not self.host:
                raise ConfigurationError(
                    "message-faults action needs a destination host "
                    "('*' for all)"
                )
            if self.faults is None:
                raise ConfigurationError(
                    "message-faults action needs a LinkFaults plan"
                )
        elif self.kind == CLEAR_MESSAGE_FAULTS:
            pass  # host optional: None clears every link
        elif self.kind != KILL_CONTROLLER and not self.host:
            raise ConfigurationError(f"{self.kind} action needs a host")
        if self.at_s < 0:
            raise ConfigurationError(f"fault scheduled in the past: {self.at_s}")


def apply_fault(rack, action: FaultAction) -> None:
    """Inject ``action`` into ``rack`` now (schedules and replays share it)."""
    if action.kind == PARTITION:
        rack.fabric.partition(action.host)
    elif action.kind == CRASH:
        rack.crash_server(action.host)
    elif action.kind == HEAL:
        rack.heal_server(action.host)
    elif action.kind == KILL_CONTROLLER:
        rack.kill_controller()
    elif action.kind == MESSAGE_FAULTS:
        rack.fabric.message_faults.set_link(action.src, action.host,
                                            action.faults)
    elif action.kind == CLEAR_MESSAGE_FAULTS:
        if action.host is None:
            rack.fabric.message_faults.clear()
        else:
            rack.fabric.message_faults.clear(action.src, action.host)


class FaultSchedule:
    """A deterministic, engine-driven sequence of rack faults.

    ``install(rack)`` schedules every action on the rack's sim engine;
    the ``applied`` log records what actually fired (with timestamps) so
    chaos tests can correlate faults with recovery events.
    """

    def __init__(self, actions: List[FaultAction]):
        self.actions = sorted(actions, key=lambda a: a.at_s)
        self.applied: List[FaultAction] = []

    def __len__(self) -> int:
        return len(self.actions)

    def install(self, rack) -> None:
        for action in self.actions:
            rack.engine.schedule_at(action.at_s,
                                    lambda a=action: self._apply(rack, a))

    def _apply(self, rack, action: FaultAction) -> None:
        apply_fault(rack, action)
        self.applied.append(action)

    @classmethod
    def randomized(cls, hosts: List[str], rng: DeterministicRng,
                   duration_s: float, faults: int = 4) -> "FaultSchedule":
        """A random but replayable schedule: every fault is healed.

        Each fault is a crash or a partition with even odds.  Faults start
        inside the first 60 % of the run and heal 3-8 s later (clamped to
        90 % of the run), so the tail of the schedule always exercises
        reconvergence.
        """
        if not hosts:
            raise ConfigurationError("randomized schedule needs hosts")
        actions: List[FaultAction] = []
        for _ in range(faults):
            host = rng.choice(sorted(hosts))
            start = rng.uniform(0.05, 0.60) * duration_s
            outage = rng.uniform(3.0, 8.0)
            kind = CRASH if rng.random() < 0.5 else PARTITION
            heal_at = min(start + outage, 0.90 * duration_s)
            actions.append(FaultAction(start, kind, host))
            actions.append(FaultAction(heal_at, HEAL, host))
        return cls(actions)
