"""Fault injection: partitions, Wake-on-LAN, crash resilience.

The paper notes that prior remote-memory systems suffered "reduced
reliability in the face of remote server crashes"; ZombieStack's answer is
the local-storage mirror plus striping.  These tests kill servers and links
and check the data survives.
"""

import pytest

from repro.acpi.states import SleepState
from repro.core.rack import Rack
from repro.errors import FencingError, RdmaError, RpcTimeoutError
from repro.hypervisor.vm import VmSpec
from repro.memory.buffers import LOCAL_FALLBACK_S
from repro.rdma.fabric import Fabric
from repro.rdma.rpc import RpcClient, RpcServer
from repro.units import GiB, MiB
from repro.acpi.platform import build_platform


class TestPartitions:
    def _pair(self):
        fabric = Fabric()
        a = fabric.add_node("a")
        b = fabric.add_node("b")
        mr = b.register_mr(4096)
        qp = a.connect_qp("b")
        return fabric, a, b, mr, qp

    def test_partitioned_target_fails_verbs(self):
        fabric, a, _, mr, qp = self._pair()
        fabric.partition("b")
        with pytest.raises(RdmaError):
            a.rdma_read(qp, mr.rkey, 0, 1)

    def test_partitioned_initiator_fails_verbs(self):
        fabric, a, _, mr, qp = self._pair()
        fabric.partition("a")
        with pytest.raises(RdmaError):
            a.rdma_write(qp, mr.rkey, 0, b"x")

    def test_heal_restores_service(self):
        fabric, a, _, mr, qp = self._pair()
        fabric.partition("b")
        fabric.heal("b")
        a.rdma_write(qp, mr.rkey, 0, b"ok")

    def test_partitioned_rpc_server_times_out(self):
        fabric, a, b, _, _ = self._pair()
        server = RpcServer(b)
        server.register("ping", lambda: "pong")
        client = RpcClient(a, server, timeout_s=0.01)
        fabric.partition("b")
        with pytest.raises(RpcTimeoutError):
            client.call("ping")

    def test_partition_unknown_node_rejected(self):
        with pytest.raises(RdmaError):
            Fabric().partition("ghost")


class TestWakeOnLan:
    def _fabric_with(self, state):
        fabric = Fabric()
        fabric.add_node("admin")
        platform = build_platform("srv", memory_bytes=1 * GiB)
        fabric.add_node("srv", platform=platform)
        if state is not SleepState.S0:
            if state is SleepState.SZ:
                platform.go_zombie()
            else:
                platform.suspend(state)
        return fabric, platform

    @pytest.mark.parametrize("state", [SleepState.S3, SleepState.S4,
                                       SleepState.SZ])
    def test_wol_wakes_states_with_nic_standby(self, state):
        fabric, platform = self._fabric_with(state)
        latency = fabric.wake_on_lan("srv")
        assert platform.state is SleepState.S0
        assert latency == state.wake_latency_s

    def test_wol_lost_in_s5(self):
        fabric, platform = self._fabric_with(SleepState.S5)
        with pytest.raises(RdmaError):
            fabric.wake_on_lan("srv")
        assert platform.state is SleepState.S5

    def test_wol_noop_when_awake(self):
        fabric, platform = self._fabric_with(SleepState.S0)
        assert fabric.wake_on_lan("srv") == 0.0

    def test_wol_blocked_by_partition(self):
        fabric, platform = self._fabric_with(SleepState.S3)
        fabric.partition("srv")
        with pytest.raises(RdmaError):
            fabric.wake_on_lan("srv")


class TestCrashResilience:
    def _rack(self):
        rack = Rack(["user", "z1", "z2"], memory_bytes=128 * MiB,
                    buff_size=8 * MiB)
        rack.make_zombie("z1")
        rack.make_zombie("z2")
        vm = rack.create_vm("user", VmSpec("vm", 48 * MiB),
                            local_fraction=0.5)
        hv = rack.server("user").hypervisor
        for ppn in range(vm.spec.total_pages):
            hv.access(vm, ppn, write=True)
        return rack, vm, hv

    def test_zombie_crash_served_from_local_mirror(self):
        """A dead zombie's pages come back from the local backup."""
        rack, vm, hv = self._rack()
        rack.fabric.partition("z1")
        store = hv.store_for("vm")
        # Every demoted page must still be loadable: either the surviving
        # zombie has it, or the local mirror serves it after the failure.
        demoted = [p for p in range(vm.spec.total_pages)
                   if not vm.table.entry(p).present]
        served = 0
        for ppn in demoted:
            key = vm.table.entry(ppn).remote_slot
            location = store._locations[key]
            if location != ("local", 0):
                lease = store._leases[location[0]].lease
                if lease.host == "z1":
                    # dead host: verbs fail; re-home from the mirror
                    with pytest.raises(RdmaError):
                        store.load(key)
                    store.remove_lease(location[0])
            data, elapsed = store.load(key)
            served += 1
        assert served == len(demoted)

    def test_striping_bounds_crash_impact(self):
        """At most ~half the remote pages sit on any single zombie."""
        rack, vm, hv = self._rack()
        store = hv.store_for("vm")
        per_host = {}
        for location in store._locations.values():
            if location == ("local", 0):
                continue
            host = store._leases[location[0]].lease.host
            per_host[host] = per_host.get(host, 0) + 1
        total = sum(per_host.values())
        assert len(per_host) == 2
        assert max(per_host.values()) <= 0.7 * total


class TestHostLossDetection:
    """The recovery coordinator's periodic monitor (no user reports)."""

    def _monitored_rack(self):
        rack = Rack(["user", "z1", "z2"], memory_bytes=128 * MiB,
                    buff_size=8 * MiB)
        rack.make_zombie("z1")
        rack.make_zombie("z2")
        vm = rack.create_vm("user", VmSpec("vm", 48 * MiB),
                            local_fraction=0.5)
        hv = rack.server("user").hypervisor
        for ppn in range(vm.spec.total_pages):
            hv.access(vm, ppn, write=True)
        rack.start_host_monitoring(probe_period_s=0.5, miss_threshold=3)
        return rack, vm, hv

    @pytest.mark.parametrize("traced", [False, True])
    def test_probe_tick_agrees_with_probing_each_host(self, traced):
        """A round hoists what a probe reads; the verdicts must not move."""
        from repro.obs import Telemetry
        tel = Telemetry(enabled=True) if traced else None
        rack = Rack(["active", "asleep", "cut", "zombie"],
                    memory_bytes=128 * MiB, buff_size=8 * MiB, telemetry=tel)
        rack.make_zombie("zombie")
        rack.server("asleep").platform.suspend(SleepState.S3)
        rack.fabric.partition("cut")
        coordinator = rack.recovery
        hosts = sorted(rack.controller.known_hosts)
        assert hosts == ["active", "asleep", "cut", "zombie"]

        coordinator.probe_tick()
        assert coordinator.probes_sent == 4
        assert coordinator._misses == {"active": 0, "asleep": 0, "cut": 1,
                                       "zombie": 0}
        verdicts = {host: coordinator._probe(host) for host in hosts}
        assert verdicts == {host: misses == 0
                            for host, misses in coordinator._misses.items()}
        assert coordinator.probes_sent == 8
        # Only the active host costs a heartbeat RPC, on either path.
        assert rack.server("active").manager.rpc.calls_served == 2
        if traced:
            assert tel.registry.value("recovery_probes_total") == 8

    def test_partitioned_zombie_declared_lost(self):
        from repro.core.events import EventKind
        rack, vm, hv = self._monitored_rack()
        rack.fabric.partition("z1")
        rack.engine.run(until=5.0)
        assert "z1" in rack.recovery.lost_hosts
        incident = rack.recovery.stats_for("z1")[0]
        # 3 misses at 0.5 s probe period: detected around t=1.5 s.
        assert incident.detected_at <= 2.5
        assert incident.buffers_lost > 0
        assert incident.users_affected == 1
        assert rack.events.of_kind(EventKind.HOST_LOST)
        # The controller no longer tracks z1's buffers, the user's store
        # no longer leases from it, and z1 is not a zombie host anymore.
        assert not rack.controller.db.by_host("z1")
        store = hv.store_for("vm")
        assert all(ls.lease.host != "z1" for ls in store._leases.values())
        assert "z1" not in rack.controller.zombie_hosts

    def test_blip_shorter_than_threshold_tolerated(self):
        rack, vm, hv = self._monitored_rack()
        rack.fabric.partition("z1")
        rack.engine.schedule_at(1.0, lambda: rack.fabric.heal("z1"))
        rack.engine.run(until=5.0)
        assert not rack.recovery.lost_hosts
        assert not rack.recovery.incidents

    def test_healed_host_recovered_and_resynced_after_wake(self):
        from repro.core.events import EventKind
        rack, vm, hv = self._monitored_rack()
        rack.fabric.partition("z1")
        rack.engine.run(until=5.0)
        assert "z1" in rack.recovery.lost_hosts
        rack.fabric.heal("z1")
        rack.engine.run(until=12.0)  # breaker cooldown + probes
        assert "z1" not in rack.recovery.lost_hosts
        assert rack.recovery.stats_for("z1")[0].recovered_at is not None
        assert rack.events.of_kind(EventKind.HOST_RECOVERED)
        # Still a zombie (CPU off): the lender-side resync must wait.
        assert "z1" in rack.recovery._pending_resync
        lender = rack.server("z1").manager
        assert lender.lent_bytes > 0  # stale records held across the nap
        rack.wake("z1")
        rack.engine.run(until=14.0)
        assert "z1" not in rack.recovery._pending_resync
        assert lender.lent_bytes == 0  # AS_resync dropped the stale leases

    def test_intentional_suspend_is_not_a_failure(self):
        # Power management parks an idle *active* host in S3; the monitor
        # must not declare it dead (its NIC answers, nothing is lent).
        rack = Rack(["idle", "z"], memory_bytes=64 * MiB, buff_size=8 * MiB)
        rack.make_zombie("z")
        rack.start_host_monitoring(probe_period_s=0.5, miss_threshold=3)
        rack.server("idle").suspend(SleepState.S3)
        rack.engine.run(until=5.0)
        assert not rack.recovery.lost_hosts
        assert not rack.recovery.incidents

    def test_crashed_zombie_reboots_clean(self):
        rack, vm, hv = self._monitored_rack()
        rack.crash_server("z1")
        rack.engine.run(until=5.0)
        assert "z1" in rack.recovery.lost_hosts
        rack.heal_server("z1")
        rack.engine.run(until=12.0)
        assert "z1" not in rack.recovery.lost_hosts
        # The reboot wiped lender state; resync had nothing left to drop.
        assert rack.server("z1").manager.lent_bytes == 0
        assert rack.engine.now >= 12.0
        assert not rack.recovery._pending_resync

    def test_unreachable_user_invalidated_once_it_heals(self):
        # Found by ZomCheck: when a serving host dies while the *user* is
        # also partitioned, the invalidation RPC fails, yet the buffers
        # are purged from the controller database — leaving the user with
        # a lease for memory the controller may re-lend.  The fix queues
        # the invalidation and retries it from probe_tick().
        rack = Rack(["h1", "h2", "h3"], memory_bytes=16 * MiB,
                    buff_size=8 * MiB)
        store = rack.server("h1").manager.request_ext(8 * MiB)
        held = store.lease_ids()
        assert held  # served by h2 or h3
        rack.fabric.partition("h1")
        rack.crash_server("h2")
        stats = rack.recovery.declare_host_lost("h2")
        assert stats.notify_failures == 1
        # The stale lease survives the failed RPC...
        assert store.lease_ids() == held
        rack.fabric.heal("h1")
        # ...and the next probe tick delivers the deferred invalidation.
        rack.recovery.probe_tick()
        assert store.lease_ids() == []
        assert not rack.recovery._pending_invalidate

    @staticmethod
    def _serving_host_of(rack, user):
        return next(h for h in rack.controller.known_hosts
                    if any(d.user == user
                           for d in rack.controller.db.by_host(h)))

    def test_second_incident_merges_owed_invalidations(self):
        # Regression: a second batch of owed ids for the same
        # (user, serving host) pair once *overwrote* ids still owed from
        # an earlier, unflushed incident — silently dropping them, the
        # exact stale-lease bug the queue exists to fix.  It must merge.
        rack = Rack(["h1", "h2", "h3"], memory_bytes=16 * MiB,
                    buff_size=8 * MiB)
        store = rack.server("h1").manager.request_ext(8 * MiB)
        assert store.lease_ids()
        serving = self._serving_host_of(rack, "h1")
        # An earlier incident left id 999 owed for the same pair.
        rack.recovery._pending_invalidate = {"h1": {serving: [999]}}
        rack.fabric.partition("h1")
        rack.crash_server(serving)
        stats = rack.recovery.declare_host_lost(serving)
        assert stats.notify_failures == 1
        owed = rack.recovery._pending_invalidate["h1"][serving]
        assert 999 in owed
        assert set(store.lease_ids()) <= set(owed)

    def test_flush_pending_invalidates_aborts_on_fencing(self):
        # Regression: FencingError subclasses ControllerError, so the
        # retry loop once swallowed it as a routine notify failure — a
        # deposed primary would keep retrying every probe tick forever
        # instead of aborting loudly, as declare_host_lost does.
        rack = Rack(["h1", "h2", "h3"], memory_bytes=16 * MiB,
                    buff_size=8 * MiB)
        rack.server("h1").manager.request_ext(8 * MiB)
        serving = self._serving_host_of(rack, "h1")
        rack.fabric.partition("h1")
        rack.crash_server(serving)
        rack.recovery.declare_host_lost(serving)
        assert rack.recovery._pending_invalidate
        rack.fabric.heal("h1")

        def fenced_call(*args, **kwargs):
            raise FencingError("stale epoch: controller was deposed")

        rack.controller._agent_call = fenced_call
        with pytest.raises(FencingError):
            rack.recovery._flush_pending_invalidates()
        # The owed ids survive for whoever holds the valid epoch.
        assert rack.recovery._pending_invalidate
