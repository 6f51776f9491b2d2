"""Demand aggregation and the Fig. 10 policy energy models."""

import pytest

from repro.dc.datacenter import aggregate_demand
from repro.dc.energy_sim import (POLICIES, PolicyEnergyResult, SlotPlan,
                                 energy_saving_comparison, plan_baseline,
                                 plan_neat, plan_oasis, plan_zombiestack,
                                 simulate_energy)
from repro.energy.profiles import DELL_PROFILE, HP_PROFILE
from repro.errors import ConfigurationError
from repro.traces.google import generate_trace
from repro.traces.schema import Task, TraceConfig
from repro.traces.transform import double_memory_demand
from repro.units import HOUR


def _task(start, end, cpu=0.2, mem=0.3, cpu_u=0.1, mem_u=0.2):
    return Task(1, 0, start, end, cpu, mem, cpu_u, mem_u)


class TestAggregation:
    def test_single_task_full_slot(self):
        slots = aggregate_demand([_task(0.0, HOUR)], slot_s=HOUR)
        assert len(slots) == 1
        assert slots[0].cpu_booked == pytest.approx(0.2)
        assert slots[0].mem_booked == pytest.approx(0.3)
        assert slots[0].task_count == 1

    def test_partial_overlap_weighted(self):
        slots = aggregate_demand([_task(0.0, HOUR / 2)], slot_s=HOUR)
        assert slots[0].cpu_booked == pytest.approx(0.1)

    def test_task_spanning_slots(self):
        slots = aggregate_demand([_task(0.0, 2 * HOUR)], slot_s=HOUR)
        assert len(slots) == 2
        assert slots[1].cpu_booked == pytest.approx(0.2)

    def test_idle_task_tracked_separately(self):
        slots = aggregate_demand([_task(0.0, HOUR, cpu_u=0.005)],
                                 slot_s=HOUR)
        assert slots[0].idle_cpu_booked == pytest.approx(0.2)

    def test_empty_trace(self):
        assert aggregate_demand([]) == []

    def test_invalid_slot(self):
        from repro.errors import TraceFormatError
        with pytest.raises(TraceFormatError):
            aggregate_demand([_task(0.0, 1.0)], slot_s=0.0)


class TestPlans:
    def _slot(self, cpu_b=30.0, mem_b=45.0, cpu_u=15.0, mem_u=25.0,
              idle_c=3.0, idle_m=5.0):
        from repro.dc.datacenter import DemandSlot
        return DemandSlot(0.0, HOUR, cpu_b, mem_b, cpu_u, mem_u,
                          idle_c, idle_m, task_count=100)

    def test_baseline_keeps_everything_on(self):
        plan = plan_baseline(self._slot(), 100)
        assert plan.active == 100
        assert plan.suspended == 0

    def test_neat_packs_and_suspends(self):
        plan = plan_neat(self._slot(), 100)
        assert plan.active < 100
        assert plan.active + plan.suspended == 100
        assert plan.utilization > 0.15  # denser than spread

    def test_neat_memory_bound_with_heavy_memory(self):
        light = plan_neat(self._slot(mem_b=20.0), 100)
        heavy = plan_neat(self._slot(mem_b=80.0), 100)
        assert heavy.active > light.active

    def test_zombiestack_ignores_booked_memory(self):
        light = plan_zombiestack(self._slot(mem_b=20.0), 100)
        heavy = plan_zombiestack(self._slot(mem_b=80.0), 100)
        assert heavy.active == pytest.approx(light.active)

    def test_zombiestack_spawns_zombies_for_cold_memory(self):
        plan = plan_zombiestack(self._slot(mem_u=60.0), 100)
        assert plan.zombies > 0

    def test_oasis_uses_memory_servers(self):
        plan = plan_oasis(self._slot(idle_c=10.0, idle_m=20.0), 100)
        assert plan.memory_servers > 0
        assert plan.active < plan_neat(self._slot(), 100).active

    def test_demand_exceeding_capacity_clamped(self):
        plan = plan_neat(self._slot(cpu_b=500.0), 100)
        assert plan.active == 100

    def test_slot_power_is_the_per_profile_formula_bit_for_bit(self):
        from repro.dc.energy_sim import _ProfilePower, _slot_power
        from repro.energy.model import estimate_sz_fraction
        from repro.energy.profiles import PowerConfig
        for profile in (HP_PROFILE, DELL_PROFILE):
            power = _ProfilePower.of(profile)
            for plan_fn in POLICIES.values():
                plan = plan_fn(self._slot(), 100)
                idle = profile.fraction(PowerConfig.S0_W_IB_ON)
                fraction = (
                    plan.active * (idle + (1.0 - idle) * plan.utilization)
                    + plan.zombies * estimate_sz_fraction(profile)
                    + plan.memory_servers * 0.40
                    + plan.suspended * profile.fraction(PowerConfig.S3_W_IB))
                assert (_slot_power(plan, power)
                        == fraction * profile.max_power_watts)

    @pytest.mark.parametrize("profile", (HP_PROFILE, DELL_PROFILE),
                             ids=lambda p: p.name)
    def test_slot_power_is_server_power_watts_bit_for_bit(self, profile):
        """One server per plan: the inlined S0 line and the resolved
        Sz/S3 terms are exactly the energy model's watts."""
        from repro.acpi.states import SleepState
        from repro.dc.energy_sim import _ProfilePower, _slot_power
        from repro.energy.model import server_power_watts
        power = _ProfilePower.of(profile)
        for utilization in (0.0, 0.37, 1.0):
            plan = SlotPlan(active=1.0, utilization=utilization)
            assert _slot_power(plan, power) == server_power_watts(
                profile, SleepState.S0, utilization)
        zombie = SlotPlan(active=0.0, utilization=0.0, zombies=1.0)
        assert _slot_power(zombie, power) == server_power_watts(
            profile, SleepState.SZ)
        suspended = SlotPlan(active=0.0, utilization=0.0, suspended=1.0)
        assert _slot_power(suspended, power) == server_power_watts(
            profile, SleepState.S3)


class TestEnergySimulation:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(TraceConfig(n_servers=200, duration_days=2.0,
                                          seed=11))

    def test_all_policies_save_vs_baseline(self, trace):
        for policy in ("Neat", "Oasis", "ZombieStack"):
            result = simulate_energy(trace, 200, HP_PROFILE, policy)
            assert result.saving_pct > 0

    def test_fig10_ordering(self, trace):
        """ZombieStack > Oasis > Neat on both trace sets."""
        for tasks in (trace, double_memory_demand(trace)):
            out = energy_saving_comparison(tasks, 200,
                                           (HP_PROFILE, DELL_PROFILE))
            for machine, row in out.items():
                assert row["ZombieStack"] > row["Oasis"] >= row["Neat"]

    def test_gap_widens_on_modified_traces(self, trace):
        orig = energy_saving_comparison(trace, 200, (HP_PROFILE,))["HP"]
        mod = energy_saving_comparison(double_memory_demand(trace), 200,
                                       (HP_PROFILE,))["HP"]
        gap_orig = orig["ZombieStack"] / max(orig["Neat"], 1e-9)
        gap_mod = mod["ZombieStack"] / max(mod["Neat"], 1e-9)
        assert gap_mod > gap_orig

    def test_zombiestack_relative_advantage_on_modified(self, trace):
        """The headline: ~86 % better than Neat on modified traces."""
        mod = energy_saving_comparison(double_memory_demand(trace), 200,
                                       (DELL_PROFILE,))["Dell"]
        relative = mod["ZombieStack"] / mod["Neat"] - 1.0
        assert relative > 0.5  # at least ~50 % better, paper reports 86 %

    def test_baseline_policy_saves_nothing(self, trace):
        result = simulate_energy(trace, 200, HP_PROFILE, "baseline")
        assert result.saving_pct == pytest.approx(0.0)

    def test_unknown_policy_rejected(self, trace):
        with pytest.raises(ConfigurationError):
            simulate_energy(trace, 200, HP_PROFILE, "TurboNap")

    def test_result_accounting(self, trace):
        result = simulate_energy(trace, 200, HP_PROFILE, "ZombieStack")
        assert result.slots == 48  # 2 days of hourly slots
        assert result.mean_zombies >= 0
        assert result.kwh > 0
