"""Chaos harness: scripted + randomized fault schedules against a live rack.

The invariants under test are the paper's robustness claims: every remote
write has a local-storage mirror (footnote 3), so serving-host crashes must
never lose data; striping (§4.3) bounds the per-failure blast radius; and
the rack reconverges — lost hosts are detected, their buffers invalidated
rack-wide, and healed hosts resynced — without operator help.
"""

import pytest

from repro.core.rack import Rack
from repro.core.recovery import (CLEAR_MESSAGE_FAULTS, CRASH, HEAL,
                                 MESSAGE_FAULTS, PARTITION, FaultAction,
                                 FaultSchedule)
from repro.errors import ConfigurationError, RdmaError, RpcError
from repro.rdma.fabric import DUPLICATE, LinkFaults
from repro.hypervisor.vm import VmSpec
from repro.sim.rng import DeterministicRng
from repro.units import MiB
from tests.agreement import assert_standby_agrees

ZOMBIES = ["z1", "z2", "z3"]


def _chaos_rack(stripe=True, rng_seed=0):
    rack = Rack(["user"] + ZOMBIES, memory_bytes=128 * MiB,
                buff_size=4 * MiB, stripe=stripe, rng_seed=rng_seed)
    for name in ZOMBIES:
        rack.make_zombie(name)
    hv = rack.server("user").hypervisor
    vm = rack.create_vm("user", VmSpec("cvm", 32 * MiB), local_fraction=0.25)
    return rack, hv, vm


def _pattern(ppn):
    return (b"chaos-%06d-" % ppn) * 8


def _fill(hv, vm):
    for ppn in range(vm.spec.total_pages):
        hv.write_page(vm, ppn, _pattern(ppn))


def _verify_all_pages(hv, vm):
    """Content check: a corrupted remote fill raises HypervisorError."""
    for ppn in range(vm.spec.total_pages):
        assert hv.read_page(vm, ppn)[:12] == _pattern(ppn)[:12], ppn


class TestFaultSchedule:
    def test_actions_validated(self):
        with pytest.raises(ConfigurationError):
            FaultAction(1.0, "meteor", "z1")
        with pytest.raises(ConfigurationError):
            FaultAction(1.0, CRASH)  # needs a host
        with pytest.raises(ConfigurationError):
            FaultAction(-1.0, CRASH, "z1")

    def test_scripted_schedule_fires_in_order(self):
        rack, hv, vm = _chaos_rack()
        schedule = FaultSchedule([
            FaultAction(5.0, PARTITION, "z1"),
            FaultAction(12.0, CRASH, "z2"),
            FaultAction(20.0, HEAL, "z1"),
            FaultAction(22.0, HEAL, "z2"),
        ])
        schedule.install(rack)
        rack.engine.run(until=30.0)
        assert [a.kind for a in schedule.applied] == [PARTITION, CRASH,
                                                      HEAL, HEAL]
        assert rack.fabric.is_reachable("z1")
        assert rack.fabric.is_reachable("z2")

    def test_message_fault_actions_validated(self):
        with pytest.raises(ConfigurationError):
            FaultAction(1.0, MESSAGE_FAULTS, "z1")  # needs a plan
        with pytest.raises(ConfigurationError):
            FaultAction(1.0, MESSAGE_FAULTS,
                        faults=LinkFaults(duplicate=1.0))  # needs a dest
        FaultAction(1.0, CLEAR_MESSAGE_FAULTS)  # host optional: clears all

    def test_scheduled_message_faults_arm_and_disarm_the_injector(self):
        # Arm duplication on every link for a 10 s window; the scenario's
        # writes inside the window cross the adversarial fabric, state
        # stays sane (dedup absorbs re-deliveries), and after the clear
        # action the injector is disarmed again.
        rack, hv, vm = _chaos_rack()
        _fill(hv, vm)
        FaultSchedule([
            FaultAction(5.0, MESSAGE_FAULTS, "*",
                        faults=LinkFaults(duplicate=1.0)),
            FaultAction(15.0, CLEAR_MESSAGE_FAULTS),
        ]).install(rack)
        rack.engine.schedule_at(10.0, lambda: rack.wake("z1"))
        rack.engine.run(until=20.0)
        injector = rack.fabric.message_faults
        assert injector.injected[DUPLICATE] > 0
        assert not injector.active
        assert not rack.server("z1").is_zombie
        _verify_all_pages(hv, vm)

    def test_randomized_schedule_is_replayable_and_healed(self):
        mk = lambda: FaultSchedule.randomized(
            ZOMBIES, DeterministicRng(3), duration_s=30.0, faults=4
        )
        a, b = mk(), mk()
        assert [(x.at_s, x.kind, x.host) for x in a.actions] == \
               [(x.at_s, x.kind, x.host) for x in b.actions]
        outages = [x for x in a.actions if x.kind in (CRASH, PARTITION)]
        heals = [x for x in a.actions if x.kind == HEAL]
        assert len(outages) == len(heals) == 4
        assert max(x.at_s for x in a.actions) <= 0.90 * 30.0


class TestScriptedRecovery:
    def test_partition_detect_invalidate_reconverge(self):
        """'Partition z1 at t=5, heal at t=20' — the issue's smoke case."""
        rack, hv, vm = _chaos_rack()
        _fill(hv, vm)
        rack.start_host_monitoring(probe_period_s=0.5, miss_threshold=2)
        FaultSchedule([
            FaultAction(5.0, PARTITION, "z1"),
            FaultAction(20.0, HEAL, "z1"),
        ]).install(rack)
        rack.engine.run(until=35.0)
        incidents = rack.recovery.stats_for("z1")
        assert len(incidents) == 1
        assert incidents[0].detected_at < 8.0  # a few probe periods
        assert incidents[0].recovered_at is not None
        assert not rack.recovery.lost_hosts
        _verify_all_pages(hv, vm)

    def test_user_report_recovers_before_monitor(self):
        """A verb failure escalates via GS_report_failure immediately."""
        rack, hv, vm = _chaos_rack()
        _fill(hv, vm)
        # Slow monitor: detection would take 50 s without the report.
        rack.start_host_monitoring(probe_period_s=10.0, miss_threshold=5)
        rack.crash_server("z1")
        store = hv.store_for("cvm")
        manager = rack.server("user").manager
        assert manager.report_host_failure("z1") is True
        assert "z1" in rack.recovery.lost_hosts
        assert rack.recovery.reports_received == 1
        assert all(ls.lease.host != "z1" for ls in store._leases.values())
        _verify_all_pages(hv, vm)


class TestRandomizedChaos:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_no_data_loss_and_reconvergence(self, seed):
        duration = 30.0
        rack, hv, vm = _chaos_rack(rng_seed=seed)
        _fill(hv, vm)
        rack.start_host_monitoring(probe_period_s=0.5, miss_threshold=2)
        schedule = FaultSchedule.randomized(
            ZOMBIES, DeterministicRng(seed * 101 + 7), duration_s=duration,
            faults=3
        )
        schedule.install(rack)

        manager = rack.server("user").manager
        store = hv.store_for("cvm")
        touch_rng = DeterministicRng(seed)
        touched = {"accesses": 0, "faults": 0, "reports": 0}

        def batch():
            # A workload slice under fire: reads verify content, writes
            # dirty pages so later evictions re-mirror fresh bytes.
            for _ in range(40):
                ppn = touch_rng.randint(0, vm.spec.total_pages - 1)
                try:
                    if touch_rng.random() < 0.25:
                        hv.write_page(vm, ppn, _pattern(ppn))
                    else:
                        assert hv.read_page(vm, ppn)[:12] == \
                            _pattern(ppn)[:12]
                    touched["accesses"] += 1
                except RdmaError:
                    # The paper's escalation path: a failed one-sided verb
                    # is reported so recovery does not wait for the probe.
                    touched["faults"] += 1
                    for host in sorted({ls.lease.host
                                        for ls in store._leases.values()}):
                        if rack.fabric.is_reachable(host):
                            continue
                        try:
                            if manager.report_host_failure(host):
                                touched["reports"] += 1
                        except RpcError:
                            pass

        for tick in range(1, int(duration)):
            rack.engine.schedule_at(float(tick), batch)
        # Tail: heals land by 0.9*duration; leave room for breaker
        # cooldowns (5 s) and the probes that declare hosts recovered.
        rack.engine.run(until=duration + 15.0)

        assert schedule.applied and len(schedule.applied) == len(schedule)
        assert rack.recovery.incidents, "chaos run never tripped recovery"
        assert touched["accesses"] > 0
        # Reconvergence: nothing still considered lost, every incident
        # closed, and healed awake hosts resynced.
        assert not rack.recovery.lost_hosts
        assert all(s.recovered_at is not None
                   for s in rack.recovery.incidents)
        # Zero lost pages: every page still round-trips its pattern.
        _verify_all_pages(hv, vm)
        # Wake any remaining zombies; pending lender resyncs must drain.
        for name in ZOMBIES:
            if rack.server(name).is_zombie:
                rack.wake(name)
        rack.engine.run(until=duration + 20.0)
        assert not rack.recovery._pending_resync
        assert_standby_agrees(rack)


class TestBlastRadius:
    def _lose_busiest_host(self, stripe):
        rack, hv, vm = _chaos_rack(stripe=stripe)
        _fill(hv, vm)
        per_host = rack.controller.db.allocated_count_by_host()
        busiest = max(sorted(per_host), key=per_host.get)
        stats = rack.recovery.declare_host_lost(busiest)
        _verify_all_pages(hv, vm)  # mirror saves the data either way
        return stats

    def test_striping_bounds_blast_radius(self):
        """§4.3: striping 'minimizes the performance impact caused by a
        remote server failure' — measurable in max_user_buffers_lost."""
        striped = self._lose_busiest_host(stripe=True)
        packed = self._lose_busiest_host(stripe=False)
        assert striped.allocated_buffers_lost > 0
        assert packed.max_user_buffers_lost > striped.max_user_buffers_lost
        # Striping spreads 6 remote buffers over 3 zombies; packing
        # concentrates them on one host, so losing it hurts ~3x more.
        assert packed.max_user_buffers_lost >= \
            2 * striped.max_user_buffers_lost
