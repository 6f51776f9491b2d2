"""Firmware sequencing and the OSPM (Fig. 6) execution path."""

import pytest

from repro.acpi.devices import DeviceState, InfinibandCard, MemoryBankDevice
from repro.acpi.platform import build_platform
from repro.acpi.power import (CPU_DOMAIN, MEMORY_DOMAIN, NIC_DOMAIN,
                              STORAGE_DOMAIN)
from repro.acpi.states import SleepState
from repro.energy.model import server_power_watts
from repro.energy.profiles import HP_PROFILE
from repro.errors import PowerStateError
from repro.units import GiB


@pytest.fixture
def server():
    return build_platform("srv", memory_bytes=1 * GiB)


class TestBoot:
    def test_split_board_advertises_sz(self, server):
        assert server.firmware.supports_sz

    def test_legacy_board_does_not(self):
        legacy = build_platform("legacy", split_power_domains=False)
        assert not legacy.firmware.supports_sz


class TestSzEntry:
    def test_cpu_domain_cut_memory_and_nic_alive(self, server):
        server.go_zombie()
        report = server.plane.report()
        assert not report[CPU_DOMAIN]
        assert report[MEMORY_DOMAIN]
        assert report[NIC_DOMAIN]
        assert not report[STORAGE_DOMAIN]

    def test_memory_stays_active_idle_not_self_refresh(self, server):
        server.go_zombie()
        for bank in server.memory_banks:
            assert bank.serves_accesses

    def test_nic_stays_in_d0(self, server):
        server.go_zombie()
        assert server.infiniband.state is DeviceState.D0

    def test_other_devices_suspended(self, server):
        server.go_zombie()
        for device in server.devices:
            if isinstance(device, (MemoryBankDevice, InfinibandCard)):
                continue
            if device.domain == NIC_DOMAIN:
                continue  # PCIe path stays up
            assert device.state is not DeviceState.D0

    def test_sz_on_legacy_board_refused(self):
        legacy = build_platform("legacy", split_power_domains=False)
        with pytest.raises(PowerStateError):
            legacy.go_zombie()


class TestS3Entry:
    def test_memory_retained_in_self_refresh(self, server):
        server.suspend(SleepState.S3)
        for bank in server.memory_banks:
            assert bank.state.operational
            assert not bank.serves_accesses

    def test_nic_drops_to_wol(self, server):
        """D3hot keeps the NIC's aux power, which is what lets a WoL packet
        through (``test_fault_injection``'s WoL tests drive the fabric)."""
        server.suspend(SleepState.S3)
        assert server.infiniband.state is DeviceState.D3_HOT

    def test_s3_works_on_legacy_board(self):
        legacy = build_platform("legacy", split_power_domains=False)
        legacy.suspend(SleepState.S3)
        assert legacy.state is SleepState.S3
        assert all(b.state.operational for b in legacy.memory_banks)


class TestDeepStates:
    def test_s5_kills_memory_power(self, server):
        server.suspend(SleepState.S5)
        assert all(b.state is DeviceState.D3_COLD
                   for b in server.memory_banks)

    def test_s4_keeps_wol_aux_power(self, server):
        server.suspend(SleepState.S4)
        assert server.infiniband.state is DeviceState.D3_HOT

    def test_s5_drops_wol_entirely(self, server):
        server.suspend(SleepState.S5)
        assert server.infiniband.state is DeviceState.D3_COLD


class TestOspmCallPath:
    FIG6_CHAIN = [
        "pm_suspend", "enter_state", "suspend_prepare",
        "suspend_devices_and_enter", "suspend_enter", "acpi_suspend_enter",
        "x86_acpi_suspend_lowlevel", "do_suspend_lowlevel",
        "x86_acpi_enter_sleep_state", "acpi_hw_legacy_sleep",
        "acpi_os_prepare_sleep", "tboot_sleep",
    ]

    def test_zom_keyword_walks_the_fig6_chain(self, server):
        server.ospm.write_sysfs_power_state("zom")
        trace = server.ospm.call_trace
        assert trace[0] == "sysfs:zom"
        positions = [trace.index(fn) for fn in self.FIG6_CHAIN]
        assert positions == sorted(positions), "chain order broken"

    def test_sz_keeps_nic_devices_out_of_pm_suspend(self, server):
        server.ospm.write_sysfs_power_state("zom")
        trace = server.ospm.call_trace
        assert any(entry.startswith("pm_keep:mlx") for entry in trace)
        assert not any(entry == "pm_suspend_device:mlx0" for entry in trace)

    def test_s3_suspends_every_device(self, server):
        server.ospm.write_sysfs_power_state("mem")
        trace = server.ospm.call_trace
        assert not any(entry.startswith("pm_keep:") for entry in trace)

    def test_unknown_keyword_rejected(self, server):
        with pytest.raises(PowerStateError):
            server.ospm.write_sysfs_power_state("hibernate-to-cloud")

    def test_double_suspend_rejected(self, server):
        server.go_zombie()
        with pytest.raises(PowerStateError):
            server.suspend(SleepState.S3)

    def test_pre_sleep_hook_runs_before_registers(self, server):
        order = []
        server.ospm.pre_sleep_hook = lambda target: order.append("hook")
        original = server.registers.write_sleep
        server.registers.write_sleep = lambda st: (order.append("regs"),
                                                   original(st))[1]
        server.go_zombie()
        assert order == ["hook", "regs"]


class TestWake:
    def test_wake_restores_s0(self, server):
        server.go_zombie()
        latency = server.wake()
        assert server.state is SleepState.S0
        assert latency == SleepState.SZ.wake_latency_s
        assert all(d.state is DeviceState.D0 for d in server.devices)

    def test_wake_from_s0_is_free(self, server):
        assert server.wake() == 0.0

    def test_wake_restores_active_idle_memory(self, server):
        server.suspend(SleepState.S3)
        server.wake()
        assert all(b.serves_accesses for b in server.memory_banks)


class TestPowerDraw:
    def test_ordering_s0_sz_s3_s5(self, server):
        """The board's S-state prices it through Table 3 (the rack sums
        exactly these watts: ``test_dc_energy``'s live-rack test)."""
        def draw():
            return server_power_watts(HP_PROFILE, server.state)
        draw_s0 = draw()
        server.go_zombie()
        draw_sz = draw()
        server.wake()
        server.suspend(SleepState.S3)
        draw_s3 = draw()
        server.wake()
        server.suspend(SleepState.S5)
        draw_s5 = draw()
        assert draw_s0 > draw_sz > draw_s3 > draw_s5

    def test_remote_ok_flag_tracks_transitions(self, server):
        assert server.remote_ok
        server.suspend(SleepState.S3)
        assert not server.remote_ok
        server.wake()
        server.go_zombie()
        assert server.remote_ok
