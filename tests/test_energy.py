"""Energy profiles, equation (1), Fig. 1/Fig. 4 models, the meter."""

import math

import pytest

from repro.acpi.states import SleepState
from repro.energy.meter import EnergyMeter
from repro.energy.model import (S5_FRACTION, energy_proportionality_curve,
                                estimate_sz_fraction, rack_scenarios,
                                server_power_fraction, server_power_watts)
from repro.energy.profiles import (DELL_PROFILE, HP_PROFILE, MachineProfile,
                                   PowerConfig)
from repro.errors import ConfigurationError, SimulationError


class TestProfiles:
    def test_hp_table3_row(self):
        f = HP_PROFILE.fraction
        assert f(PowerConfig.S0_WO_IB) == pytest.approx(0.4616)
        assert f(PowerConfig.S3_W_IB) == pytest.approx(0.1103)
        assert f(PowerConfig.S4_WO_IB) == pytest.approx(0.0019)

    def test_dell_table3_row(self):
        f = DELL_PROFILE.fraction
        assert f(PowerConfig.S0_W_IB_ON) == pytest.approx(0.4477)
        assert f(PowerConfig.S3_WO_IB) == pytest.approx(0.0197)

    def test_watts_scales_fractions(self):
        watts = HP_PROFILE.watts(PowerConfig.S0_WO_IB)
        assert watts == pytest.approx(0.4616 * HP_PROFILE.max_power_watts)

    def test_missing_config_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineProfile("bad", 100.0, {PowerConfig.S0_WO_IB: 0.5})

    def test_out_of_range_fraction_rejected(self):
        fractions = {c: 0.5 for c in PowerConfig}
        fractions[PowerConfig.S3_W_IB] = 1.5
        with pytest.raises(ConfigurationError):
            MachineProfile("bad", 100.0, fractions)


class TestEquationOne:
    def test_hp_sz_matches_table3(self):
        assert estimate_sz_fraction(HP_PROFILE) == pytest.approx(0.1267)

    def test_dell_sz_matches_table3(self):
        assert estimate_sz_fraction(DELL_PROFILE) == pytest.approx(0.1115)

    def test_sz_between_s3_and_s0(self):
        for profile in (HP_PROFILE, DELL_PROFILE):
            sz = estimate_sz_fraction(profile)
            assert profile.fraction(PowerConfig.S3_W_IB) < sz
            assert sz < profile.fraction(PowerConfig.S0_W_IB_OFF)


class TestServerPower:
    def test_s0_scales_with_utilization(self):
        low = server_power_fraction(HP_PROFILE, SleepState.S0, 0.1)
        high = server_power_fraction(HP_PROFILE, SleepState.S0, 0.9)
        assert low < high
        assert server_power_fraction(HP_PROFILE, SleepState.S0, 1.0) == 1.0

    def test_s0_idle_point(self):
        idle = server_power_fraction(HP_PROFILE, SleepState.S0, 0.0)
        assert idle == pytest.approx(0.5384)

    def test_sleep_states_ignore_utilization_argument(self):
        assert (server_power_fraction(HP_PROFILE, SleepState.S3)
                == HP_PROFILE.fraction(PowerConfig.S3_W_IB))
        assert server_power_fraction(HP_PROFILE, SleepState.S5) == S5_FRACTION

    def test_sz_uses_equation_one(self):
        assert (server_power_fraction(HP_PROFILE, SleepState.SZ)
                == estimate_sz_fraction(HP_PROFILE))

    def test_invalid_utilization(self):
        with pytest.raises(ConfigurationError):
            server_power_fraction(HP_PROFILE, SleepState.S0, 1.5)

    def test_watts_wrapper(self):
        watts = server_power_watts(HP_PROFILE, SleepState.S0, 0.5)
        assert watts == pytest.approx(
            server_power_fraction(HP_PROFILE, SleepState.S0, 0.5)
            * HP_PROFILE.max_power_watts
        )


class TestFig1Curve:
    def test_endpoints(self):
        series = energy_proportionality_curve(points=11)
        assert series[0] == (0.0, 50.0, 0.0)
        assert series[-1] == (100.0, 100.0, 100.0)

    def test_actual_always_at_or_above_ideal(self):
        for _, actual, ideal in energy_proportionality_curve():
            assert actual >= ideal

    def test_profile_sets_idle_point(self):
        series = energy_proportionality_curve(profile=DELL_PROFILE, points=3)
        assert series[0][1] == pytest.approx(DELL_PROFILE.idle_fraction * 100)

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigurationError):
            energy_proportionality_curve(points=1)


class TestFig4Scenarios:
    def test_paper_totals(self):
        totals = {s.name: s.total_energy for s in rack_scenarios()}
        assert totals["server-centric"] == pytest.approx(2.1)
        assert totals["resource disaggregation (ideal)"] == pytest.approx(1.15)
        assert totals["micro-servers"] == pytest.approx(1.8, abs=0.05)
        assert totals["zombie (this paper)"] == pytest.approx(1.2)

    def test_zombie_close_to_ideal(self):
        scenarios = {s.name: s.total_energy for s in rack_scenarios()}
        ideal = scenarios["resource disaggregation (ideal)"]
        zombie = scenarios["zombie (this paper)"]
        server_centric = scenarios["server-centric"]
        assert abs(zombie - ideal) < 0.25 * (server_centric - ideal)

    def test_ordering(self):
        totals = [s.total_energy for s in rack_scenarios()]
        server_centric, ideal, micro, zombie = totals
        assert ideal < zombie < micro < server_centric

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            rack_scenarios(idle_fraction=0.0)
        with pytest.raises(ConfigurationError):
            rack_scenarios(sz_fraction=1.5)


class TestEnergyMeter:
    def test_piecewise_integration(self):
        meter = EnergyMeter()
        meter.set_power(0.0, 100.0)
        meter.set_power(10.0, 50.0)
        meter.advance(20.0)
        assert meter.joules == pytest.approx(100 * 10 + 50 * 10)

    def test_kwh_conversion(self):
        meter = EnergyMeter()
        meter.accumulate(1000.0, 3600.0)
        assert meter.kwh == pytest.approx(1.0)

    def test_time_cannot_go_backwards(self):
        meter = EnergyMeter()
        meter.advance(10.0)
        with pytest.raises(SimulationError):
            meter.advance(5.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            EnergyMeter().accumulate(10.0, -1.0)

    def test_segments_recorded(self):
        meter = EnergyMeter()
        meter.set_power(0.0, 10.0)
        assert meter.joules == 0.0
        meter.set_power(5.0, 20.0)
        assert meter.joules == pytest.approx(10.0 * 5.0)
        meter.advance(7.0)
        assert meter.joules == pytest.approx(10.0 * 5.0 + 20.0 * 2.0)

    def test_segments_bounded_by_power_changes_not_samples(self):
        # A monitor samples every minute; the meter keeps only the
        # integral, so a long run of samples adds no state.
        meter = EnergyMeter()
        meter.set_power(0.0, 120.0)
        for minute in range(1, 5_001):
            meter.advance(60.0 * minute)
        assert meter.joules == pytest.approx(120.0 * 300_000.0)
        meter.set_power(300_000.0, 45.0)
        assert meter.joules == pytest.approx(120.0 * 300_000.0)
        for minute in range(5_001, 10_001):
            meter.advance(60.0 * minute)
        assert meter.joules == pytest.approx(
            120.0 * 300_000.0 + 45.0 * 300_000.0)
        meter.accumulate(45.0, 30.0)
        assert meter.joules == pytest.approx(
            120.0 * 300_000.0 + 45.0 * 300_030.0)
        meter.advance(600_040.0)  # integrates on from the accumulated end
        assert meter.joules == pytest.approx(
            120.0 * 300_000.0 + 45.0 * 300_040.0)
