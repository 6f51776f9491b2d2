"""Rack assembly: controllers, servers, and all the RPC wiring.

Reproduces the Fig. 7 deployment: one global memory controller, one
mirrored secondary with heartbeat failover, and N general-purpose servers,
all on one RDMA fabric.  Also provides the convenience operations the upper
(cloud) layer uses: create a RAM-Ext VM, push a server to Sz, wake it back.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.controller import GlobalMemoryController
from repro.core.events import EventKind
from repro.core.protocol import Method
from repro.core.recovery import RecoveryCoordinator
from repro.core.secondary import SecondaryController
from repro.core.server import RackServer
from repro.errors import ConfigurationError, PlacementError, RpcError
from repro.hypervisor.vm import Vm, VmSpec
from repro.obs import Telemetry
from repro.rdma.costs import RdmaCostModel
from repro.rdma.fabric import Fabric, RdmaNode
from repro.rdma.rpc import RetryPolicy, RpcClient, RpcServer
from repro.sim.engine import Engine
from repro.sim.rng import DeterministicRng
from repro.units import DEFAULT_BUFF_SIZE, GiB

#: Nova's relaxed filter: a host qualifies if it can place at least this
#: fraction of a VM's memory locally (Section 5.1's empirical 50 %).
DEFAULT_LOCAL_FRACTION = 0.5


class PrimaryChannel:
    """One caller's RPC channel into a rack's *current* primary.

    Managers, gateway tenants, lending agents and the federation
    directory each hold one.  A failover replaces the rack's primary, so
    the client is re-opened (and the superseded one closed) as soon as it
    no longer targets ``rack.controller``; nothing re-wires the channel.
    """

    def __init__(self, rack: "Rack", origin: RdmaNode, policy: RetryPolicy):
        self.rack = rack
        self.origin = origin
        self.policy = policy
        self.client: Optional[RpcClient] = None

    def call(self, method: str, *args, **kwargs):
        server = self.rack.controller.rpc
        client = self.client
        if client is None or client.server is not server:
            if client is not None:
                client.close()
            client = self.client = RpcClient(self.origin, server,
                                             retry_policy=self.policy)
        return client.call(method, *args, **kwargs)


class Rack:
    """A fully wired rack."""

    def __init__(self, server_names: List[str],
                 memory_bytes: int = 16 * GiB,
                 buff_size: int = DEFAULT_BUFF_SIZE,
                 engine: Optional[Engine] = None,
                 costs: Optional[RdmaCostModel] = None,
                 heartbeat_period_s: float = 1.0,
                 stripe: bool = True,
                 rng_seed: int = 0,
                 telemetry: Optional[Telemetry] = None,
                 fabric: Optional[Fabric] = None,
                 name: Optional[str] = None):
        if not server_names:
            raise ConfigurationError("a rack needs at least one server")
        if len(set(server_names)) != len(server_names):
            raise ConfigurationError("duplicate server names")
        #: Federation identity: set when this rack joins a multi-rack
        #: fabric.  Controller/secondary node names are then prefixed
        #: ``"<name>/"`` so N racks coexist in one node directory, and
        #: every node is registered under this rack for inter-rack
        #: link costing.  A standalone rack (name=None) is unchanged.
        self.name = name
        self.engine = engine or Engine()
        self.fabric = fabric or Fabric(costs=costs, telemetry=telemetry)
        # All spans/metrics run on simulated time, whichever hub we carry.
        self.telemetry = self.fabric.telemetry
        self.telemetry.bind_clock(lambda: self.engine.now)
        self.buff_size = buff_size
        self.stripe = stripe
        self.rng = DeterministicRng(rng_seed)
        # Arm the adversarial fabric with its own RNG stream so enabling
        # probabilistic message faults never perturbs the draws of the
        # retry policy or workloads (same fork discipline as below).  On
        # a shared federation fabric the first rack's stream wins — one
        # injector, one stream, still replayable.
        if self.fabric.message_faults.rng is None:
            self.fabric.message_faults.bind_rng(self.rng.fork(2))
        #: One policy for request/response control traffic, retried under
        #: backoff, and one single-attempt policy for monitoring paths
        #: (heartbeats have their own period as the retry loop).
        self.retry_policy = RetryPolicy(rng=self.rng.fork(1),
                                        clock=lambda: self.engine.now,
                                        cooldown_s=5.0)
        self.monitor_policy = RetryPolicy.no_retry(
            clock=lambda: self.engine.now, cooldown_s=5.0
        )

        # Dedicated controller machines (always-on S0 nodes).
        prefix = f"{name}/" if name else ""
        ctr_node = self.fabric.add_node(f"{prefix}global-mem-ctr")
        sec_node = self.fabric.add_node(f"{prefix}secondary-ctr")
        if name is not None:
            self.fabric.set_rack(ctr_node.name, name)
            self.fabric.set_rack(sec_node.name, name)
        self.controller = GlobalMemoryController(ctr_node, buff_size=buff_size,
                                                 stripe=stripe)
        self.controller.events._clock = lambda: self.engine.now
        if self.telemetry.enabled:
            self.controller.events.attach_metrics(self.telemetry.registry)
        self.secondary = SecondaryController(
            sec_node, self.engine, heartbeat_period_s=heartbeat_period_s
        )
        mirror_client = RpcClient(ctr_node, self.secondary.rpc,
                                  retry_policy=self.retry_policy)
        primary = self.controller
        self.controller.mirror = self.secondary.attach_rpc_mirror(
            mirror_client, epoch_fn=lambda: primary.epoch
        )
        self.secondary.watch(RpcClient(sec_node, self.controller.rpc,
                                       retry_policy=self.monitor_policy))
        self.secondary.on_failover = self._failover

        # Serving-host failure detection + rack-wide invalidation.  The
        # coordinator reads ``self.controller`` lazily so it follows a
        # secondary promotion; monitoring starts on demand.
        self.recovery = RecoveryCoordinator(lambda: self.controller,
                                            self.engine)
        self.controller.recovery = self.recovery
        self._crashed: set = set()

        #: Every endpoint the primary revokes through: this rack's
        #: servers, tenants homed here from other racks, and the lending
        #: agents of loans this rack donated.  A promoted primary is
        #: wired to all of them (:meth:`_failover`).
        self.agents: Dict[str, RpcServer] = {}

        # General-purpose servers.
        self.servers: Dict[str, RackServer] = {}
        for name in server_names:
            server = RackServer(name, self.fabric,
                                memory_bytes=memory_bytes,
                                buff_size=buff_size)
            server.manager.controller = PrimaryChannel(self, server.node,
                                                       self.retry_policy)
            self.attach_agent(name, server.manager.rpc)
            if self.name is not None:
                self.fabric.set_rack(name, self.name)
            self.servers[name] = server

    def attach_agent(self, name: str, rpc: RpcServer) -> None:
        """Register ``rpc`` as agent ``name`` and wire the primary to it."""
        self.agents[name] = rpc
        self.controller.attach_agent(
            name, RpcClient(self.controller.node, rpc,
                            retry_policy=self.retry_policy))

    # -- lookups ----------------------------------------------------------
    def server(self, name: str) -> RackServer:
        try:
            return self.servers[name]
        except KeyError:
            raise ConfigurationError(f"unknown server {name!r}") from None

    def zombie_servers(self) -> List[RackServer]:
        return [s for s in self.servers.values() if s.is_zombie]

    def active_servers(self) -> List[RackServer]:
        """Servers running in S0 (zombies and S3/S4/S5 sleepers excluded)."""
        from repro.acpi.states import SleepState
        return [s for s in self.servers.values()
                if s.state is SleepState.S0]

    # -- power operations --------------------------------------------------
    def make_zombie(self, name: str) -> None:
        self.server(name).go_zombie()

    def wake(self, name: str, reclaim_bytes: int = 0) -> float:
        latency = self.server(name).wake(reclaim_bytes=reclaim_bytes)
        if reclaim_bytes > 0:
            # Re-home any pages the reclaim pushed onto local backups.
            for server in self.servers.values():
                server.manager.repair_stores()
        return latency

    # -- VM operations ------------------------------------------------------
    def create_vm(self, host: str, spec: VmSpec,
                  local_fraction: float = DEFAULT_LOCAL_FRACTION,
                  policy: str = "Mixed", **policy_kwargs) -> Vm:
        """Start a RAM-Ext VM on ``host``.

        ``local_fraction`` of the VM's reserved memory is backed by local
        frames; the remainder comes from the rack pool via ``GS_alloc_ext``
        (one call, VM-creation time, guaranteed).
        """
        if not 0.0 < local_fraction <= 1.0:
            raise ConfigurationError(
                f"local_fraction out of (0,1]: {local_fraction}"
            )
        server = self.server(host)
        local_bytes = int(spec.memory_bytes * local_fraction)
        if local_bytes > server.free_bytes:
            raise PlacementError(
                f"{host}: needs {local_bytes} local bytes, has "
                f"{server.free_bytes}"
            )
        remote_bytes = spec.memory_bytes - local_bytes
        store = None
        if remote_bytes > 0:
            store = server.manager.request_ext(remote_bytes)
        vm = server.hypervisor.create_vm(
            spec, local_bytes, store=store, policy=policy, **policy_kwargs
        )
        self.events.emit(EventKind.VM_CREATED, host, vm=spec.name,
                         local_fraction=round(local_fraction, 3))
        return vm

    def migrate_vm(self, vm_name: str, src: str, dst: str):
        """Live-migrate a VM with the ZombieStack protocol (Section 5.3).

        The VM is stopped, its hot (local-resident) pages are copied to the
        destination, and its remote memory never moves — the controller
        just re-points the buffer ownership (``GS_transfer``) and the
        destination reconnects the queue pairs.  Returns the
        :class:`~repro.hypervisor.migration.MigrationResult`.
        """
        from repro.hypervisor.migration import migrate_zombiestack
        from repro.hypervisor.vm import VmState
        source, target = self.server(src), self.server(dst)
        vm = source.hypervisor.vms.get(vm_name)
        if vm is None:
            raise ConfigurationError(f"{src}: unknown VM {vm_name!r}")
        tel = self.telemetry
        tracer = tel.tracer
        with tracer.span("migrate.vm", vm=vm_name, src=src, dst=dst) as root:
            with tracer.span("migrate.stop_and_copy", vm=vm_name):
                vm.transition(VmState.MIGRATING)
                local_pages = vm.table.resident_pages
                remote_pages = vm.table.remote_pages
                vm = source.hypervisor.release_vm(vm_name)
                store = vm.store
                leases = len(store.lease_ids()) if store is not None else 0
                result = migrate_zombiestack(local_pages, remote_pages,
                                             remote_leases=leases)
            with tracer.span("migrate.transfer_ownership", vm=vm_name,
                             leases=leases):
                if store is not None:
                    source.manager.transfer_store_out(store)
                    target.manager.transfer_store_in(store, old_user=src)
            with tracer.span("migrate.resume", vm=vm_name):
                target.hypervisor.adopt_vm(vm)
                vm.transition(VmState.RUNNING)
            if tel.enabled:
                root.set_tag("pages_moved", result.pages_transferred)
                root.set_tag("downtime_s", round(result.downtime_s, 6))
                # The cost model, not the sim clock, knows how long the
                # migration took; give the span that width.
                root.end_s = root.start_s + result.total_time_s
                registry = tel.registry
                registry.counter("vm_migrations_total",
                                 "Live migrations completed.",
                                 protocol=result.protocol).inc()
                registry.histogram("migration_seconds",
                                   "Total migration duration.",
                                   protocol=result.protocol
                                   ).observe(result.total_time_s)
                registry.histogram("migration_downtime_seconds",
                                   "Stop-and-copy downtime per migration.",
                                   protocol=result.protocol
                                   ).observe(result.downtime_s)
        self.events.emit(EventKind.VM_MIGRATED, dst, vm=vm_name,
                         from_host=src,
                         pages_moved=result.pages_transferred)
        return result

    def destroy_vm(self, host: str, vm_name: str) -> None:
        server = self.server(host)
        store = server.hypervisor.store_for(vm_name)
        server.hypervisor.destroy_vm(vm_name)
        if store is not None:
            server.manager.release_store(store)
        self.events.emit(EventKind.VM_DESTROYED, host, vm=vm_name)

    # -- high availability ------------------------------------------------
    def _failover(self, secondary: SecondaryController) -> None:
        """Promote the secondary and wire it to every registered agent.

        The promotion bumps the fencing epoch; pushing it to the agents
        (whose watermarks then refuse anything older from this rack) is
        what fences a healed old primary.  Callers into the primary
        follow on their own: a :class:`PrimaryChannel` re-opens on its
        next call.
        """
        tel = self.telemetry
        with tel.tracer.span("failover.promote",
                             node="secondary-ctr") as span:
            new_controller = secondary.promote(self.buff_size,
                                               stripe=self.stripe)
            new_controller.events = self.controller.events
            new_controller.recovery = self.recovery
            self.controller = new_controller
            for name, rpc in sorted(self.agents.items()):
                self.attach_agent(name, rpc)
                # Make sure every reachable agent learns the new epoch
                # *now*, so a healed old primary is fenced even if the
                # new one stays quiet.
                node = rpc.node
                if (not node.cpu_alive
                        or not self.fabric.is_reachable(node.name)):
                    continue  # zombies/partitioned hosts learn on contact
                try:
                    new_controller._agent_call(name, Method.HEARTBEAT)
                except RpcError as exc:
                    # The host learns the epoch on first contact instead;
                    # the audit trail records who missed the eager push.
                    self.events.emit(EventKind.EPOCH_SYNC_SKIPPED, name,
                                     epoch=new_controller.epoch,
                                     error=type(exc).__name__)
            self.events.emit(EventKind.FAILOVER, "secondary-ctr",
                             epoch=new_controller.epoch)
            span.set_tag("epoch", new_controller.epoch)
        if tel.enabled:
            tel.registry.counter("failovers_total",
                                 "Secondary promotions performed.").inc()

    def kill_controller(self) -> None:
        """Simulate a primary-controller crash (for failover tests).

        The controller node keeps no platform, so we model the crash by
        unregistering its heartbeat handler.
        """
        self.controller.rpc.unregister(Method.HEARTBEAT.value)

    # -- fault harness hooks ------------------------------------------------
    def start_host_monitoring(self, probe_period_s: float = 1.0,
                              miss_threshold: int = 3) -> None:
        """Begin probing serving hosts for crash/partition recovery.

        A period that is not positive and finite, or a threshold below
        1, is a :class:`ConfigurationError` before anything changes.
        """
        self.recovery.start(probe_period_s, miss_threshold)

    def crash_server(self, name: str) -> None:
        """Hard-kill a server: link down now, DRAM content gone.

        Pair with :meth:`heal_server`, which models the reboot.
        """
        self.server(name)  # validate
        self.fabric.partition(name)
        self._crashed.add(name)

    def heal_server(self, name: str) -> None:
        """Reconnect a partitioned server; a crashed one reboots to S0.

        After a crash the lender-side state did not survive: the manager
        forgets its lent buffers and takes the frames back, and the
        recovery coordinator's ``AS_resync`` (triggered by the next
        successful probe) is then a no-op.
        """
        server = self.server(name)
        self.fabric.heal(name)
        if name in self._crashed:
            self._crashed.discard(name)
            if not server.platform.state.cpu_alive:
                server.platform.wake()  # reboot straight to S0
            server.manager.reset_after_crash()

    # -- rack-wide accounting ------------------------------------------------
    @property
    def events(self):
        """The rack's audit log (owned by the current controller)."""
        return self.controller.events

    def pool_summary(self) -> Dict[str, int]:
        return self.controller.pool_summary()

    def total_power_watts(self) -> float:
        return sum(s.platform.power_draw() for s in self.servers.values())
