"""The rack energy monitor: metered server states over engine time."""

import pytest

from repro.acpi.states import SleepState
from repro.core.rack import Rack
from repro.energy.model import estimate_sz_fraction, server_power_watts
from repro.energy.profiles import HP_PROFILE
from repro.energy.rack_monitor import RackEnergyMonitor
from repro.errors import ConfigurationError
from repro.hypervisor.vm import VmSpec
from repro.units import MiB


@pytest.fixture
def rack():
    return Rack(["a", "b"], memory_bytes=128 * MiB, buff_size=8 * MiB)


class TestMonitoring:
    def test_idle_rack_draws_idle_power(self, rack):
        monitor = RackEnergyMonitor(rack, HP_PROFILE, sample_period_s=1.0)
        rack.engine.run(until=100.0)
        expected = server_power_watts(HP_PROFILE, SleepState.S0, 0.0) * 100
        assert monitor.server_joules("a") == pytest.approx(expected, rel=0.02)

    def test_zombie_draws_equation_one_power(self, rack):
        monitor = RackEnergyMonitor(rack, HP_PROFILE, sample_period_s=1.0)
        rack.make_zombie("b")
        rack.engine.run(until=100.0)
        expected = (estimate_sz_fraction(HP_PROFILE)
                    * HP_PROFILE.max_power_watts * 100)
        # One sample period of S0 power before the first post-transition
        # sample is expected quantization error.
        assert monitor.server_joules("b") == pytest.approx(expected, rel=0.05)

    def test_transition_mid_run_is_integrated(self, rack):
        monitor = RackEnergyMonitor(rack, HP_PROFILE, sample_period_s=1.0)
        rack.engine.schedule(50.0, lambda: rack.make_zombie("b"))
        rack.engine.run(until=100.0)
        idle = server_power_watts(HP_PROFILE, SleepState.S0, 0.0)
        sz = server_power_watts(HP_PROFILE, SleepState.SZ)
        expected = idle * 50 + sz * 50
        assert monitor.server_joules("b") == pytest.approx(expected, rel=0.03)

    def test_total_and_report(self, rack):
        monitor = RackEnergyMonitor(rack, HP_PROFILE)
        rack.engine.run(until=10.0)
        report = monitor.report()
        assert set(report) == {"a", "b"}
        assert monitor.total_joules() == pytest.approx(sum(report.values()))
        assert monitor.total_kwh() > 0

    def test_stop_halts_sampling(self, rack):
        monitor = RackEnergyMonitor(rack, HP_PROFILE, sample_period_s=1.0)
        monitor.stop()
        rack.engine.run(until=10.0)
        assert monitor._sampler.ticks == 0

    def test_unknown_server_rejected(self, rack):
        monitor = RackEnergyMonitor(rack, HP_PROFILE)
        with pytest.raises(ConfigurationError):
            monitor.server_joules("ghost")

    def test_invalid_period_rejected(self, rack):
        with pytest.raises(ConfigurationError):
            RackEnergyMonitor(rack, HP_PROFILE, sample_period_s=0.0)

    def test_utilization_hook(self, rack):
        """32 booked vCPUs fill a host: it draws full S0 power."""
        rack.create_vm("a", VmSpec("busy", 16 * MiB, vcpus=32))
        monitor = RackEnergyMonitor(rack, HP_PROFILE)
        rack.engine.run(until=10.0)
        full = server_power_watts(HP_PROFILE, SleepState.S0, 1.0) * 10
        assert monitor.server_joules("a") == pytest.approx(full, rel=0.02)
