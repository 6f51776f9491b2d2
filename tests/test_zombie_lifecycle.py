"""Zombie lifecycle management: S3 demotion and the hourly swap top-up."""

import pytest

from repro.acpi.states import SleepState
from repro.cloud.zombiestack import ZombieStackOrchestrator
from repro.core.rack import Rack
from repro.hypervisor.vm import VmSpec
from repro.units import MiB


def _rack(n=4):
    return Rack([f"s{i}" for i in range(n)], memory_bytes=128 * MiB,
                buff_size=8 * MiB)


class TestZombieDemotion:
    def test_surplus_zombies_demoted_to_s3(self):
        rack = _rack(4)
        orch = ZombieStackOrchestrator(rack)
        for name in ("s1", "s2", "s3"):
            rack.make_zombie(name)
        demoted = orch.demote_surplus_zombies()
        # Keep ≥ one server's slack in Sz; the rest drop to S3.
        assert demoted
        for name in demoted:
            assert rack.server(name).state is SleepState.S3
        remaining = rack.pool_summary()["free_bytes"]
        assert remaining >= 112 * MiB  # one server's lendable memory

    def test_zombies_with_allocated_buffers_stay(self):
        rack = _rack(4)
        orch = ZombieStackOrchestrator(rack)
        for name in ("s2", "s3"):
            rack.make_zombie(name)
        vm = rack.create_vm("s0", VmSpec("vm", 96 * MiB),
                            local_fraction=0.5)
        counts = rack.controller.db.allocated_count_by_host()
        users = {h for h, c in counts.items() if c > 0}
        demoted = orch.demote_surplus_zombies()
        for name in demoted:
            assert name not in users

    def test_no_demotion_when_pool_is_tight(self):
        rack = _rack(2)
        orch = ZombieStackOrchestrator(rack)
        rack.make_zombie("s1")  # the only zombie = the only slack
        assert orch.demote_surplus_zombies() == []
        assert rack.server("s1").is_zombie

    def test_consolidate_includes_demotion(self):
        rack = _rack(5)
        orch = ZombieStackOrchestrator(rack)
        report = orch.consolidate()  # parks empties in Sz, then trims
        assert report.new_zombies
        states = {s.name: s.state for s in rack.servers.values()}
        assert SleepState.S3 in states.values() or len(
            rack.zombie_servers()) <= 2
