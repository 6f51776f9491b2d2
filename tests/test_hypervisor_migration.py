"""Migration protocols: native pre-copy vs. ZombieStack."""

import pytest

from repro.errors import ConfigurationError, MigrationError
from repro.hypervisor.migration import (migrate_native, migrate_zombiestack,
                                        migrate_vm_zombiestack)
from repro.hypervisor.vm import Vm, VmSpec, VmState
from repro.memory.frames import Frame
from repro.memory.replacement import FifoPolicy
from repro.units import PAGE_SIZE


class TestNativeMigration:
    def test_transfers_whole_vm_plus_dirty_rounds(self):
        result = migrate_native(total_pages=1000, wss_pages=200)
        assert result.pages_transferred > 1000
        assert result.protocol == "native"

    def test_time_mostly_flat_in_wss(self):
        small = migrate_native(100_000, 20_000)
        large = migrate_native(100_000, 80_000)
        assert large.total_time_s < small.total_time_s * 1.5

    def test_downtime_smaller_than_total(self):
        result = migrate_native(10_000, 5_000)
        assert 0 < result.downtime_s < result.total_time_s

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            migrate_native(0, 0)
        with pytest.raises(ConfigurationError):
            migrate_native(100, 200)
        with pytest.raises(ConfigurationError):
            migrate_native(100, 50, bandwidth=0)


class TestZombieStackMigration:
    def test_transfers_only_local_pages(self):
        result = migrate_zombiestack(local_resident_pages=500,
                                     remote_pages=1500)
        assert result.pages_transferred == 500
        assert result.remote_pages_kept == 1500

    def test_grows_with_local_part(self):
        small = migrate_zombiestack(1000, 0)
        large = migrate_zombiestack(50_000, 0)
        assert large.total_time_s > small.total_time_s

    def test_beats_native_for_same_vm(self):
        total, wss = 2_000_000, 800_000
        native = migrate_native(total, wss)
        zombie = migrate_zombiestack(wss // 2, wss - wss // 2)
        assert zombie.total_time_s < native.total_time_s

    def test_bytes_transferred(self):
        result = migrate_zombiestack(10, 0)
        assert result.pages_transferred == 10

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            migrate_zombiestack(-1, 0)


class TestVmLevelWrapper:
    def _vm(self):
        vm = Vm(VmSpec("v", 16 * PAGE_SIZE), 16 * PAGE_SIZE, FifoPolicy())
        vm.transition(VmState.RUNNING)
        for ppn in range(4):
            vm.table.map_local(ppn, Frame(ppn))
        vm.table.demote(0, remote_slot=1)
        return vm

    def test_uses_real_paging_state(self):
        vm = self._vm()
        result = migrate_vm_zombiestack(vm)
        assert result.pages_transferred == 3
        assert result.remote_pages_kept == 1
        assert vm.state is VmState.RUNNING  # resumed after migration

    def test_stopped_vm_rejected(self):
        vm = self._vm()
        vm.transition(VmState.STOPPED)
        with pytest.raises(MigrationError):
            migrate_vm_zombiestack(vm)
