"""Policy energy models and the Fig. 10 comparison.

For every demand slot each policy decides how many servers are active,
zombie, on dedicated memory duty, or suspended, under its own packing
rule:

- **baseline** (no power management): every server stays in S0; VMs are
  spread.  This is the reference the "% energy saving" bars compare to.
- **Neat**: packs by *booked* resources (a host takes a VM only if it
  holds the full booking) up to a CPU ceiling, evacuated hosts suspend
  to S3.
- **Oasis**: Neat, plus idle VMs are partially migrated — only the
  working set stays on compute hosts, the cold remainder moves to memory
  servers drawing 40 % of a regular server.
- **ZombieStack**: packs by *actual utilization* (the relaxed 30 %-of-WSS
  placement rule makes booked memory a non-constraint), cold memory is
  served by zombie servers in Sz (equation-1 power), and the rest suspend
  to S3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence)

from repro.acpi.states import SleepState
from repro.dc.datacenter import DemandSlot, aggregate_demand
from repro.energy.model import server_power_fraction
from repro.energy.profiles import MachineProfile
from repro.errors import ConfigurationError
from repro.traces.schema import Task
from repro.units import HOUR, joules_to_kwh, watts_x_seconds

#: Packing headroom: a host is filled to this fraction of booked CPU.
CPU_BOOKING_CEILING = 0.80
#: Utilization-based ceiling for ZombieStack's usage-driven packing.
CPU_USAGE_CEILING = 0.60
#: Usable memory per host for placements (hypervisor reserve excluded).
MEM_CEILING = 0.90
#: Memory a zombie serves to the rack (small self-reserve kept).
ZOMBIE_MEM_SERVED = 0.94
#: Oasis memory-server power, fraction of a regular server's max.
MEMORY_SERVER_FRACTION = 0.40
#: Fraction of an idle VM's memory that is working set (moves with it).
IDLE_WSS_FRACTION = 0.30
#: ZombieStack placement: minimum local fraction of a VM's working set.
ZS_LOCAL_WSS_FRACTION = 0.30


class SlotPlan(NamedTuple):
    """One policy's server disposition for one slot.

    A tuple, not a frozen dataclass: every policy pass builds two per slot.
    """

    active: float          # servers in S0 running VMs
    utilization: float     # actual CPU utilization of active servers
    zombies: float = 0.0   # servers in Sz serving memory
    memory_servers: float = 0.0  # Oasis memory servers
    suspended: float = 0.0       # servers in S3


PlanFn = Callable[[DemandSlot, int], SlotPlan]


def _clamp_servers(active: float, n_servers: int) -> float:
    return min(float(n_servers), max(active, 0.0))


def plan_baseline(slot: DemandSlot, n_servers: int) -> SlotPlan:
    """No power management: all servers on, load spread."""
    util = min(1.0, slot.cpu_used / n_servers)
    return SlotPlan(active=float(n_servers), utilization=util)


def plan_neat(slot: DemandSlot, n_servers: int) -> SlotPlan:
    """Booked-resource packing; emptied hosts suspend to S3."""
    need = max(slot.cpu_booked / CPU_BOOKING_CEILING,
               slot.mem_booked / MEM_CEILING)
    active = _clamp_servers(max(need, 1e-9), n_servers)
    util = min(1.0, slot.cpu_used / active) if active else 0.0
    return SlotPlan(active=active, utilization=util,
                    suspended=n_servers - active)


def plan_oasis(slot: DemandSlot, n_servers: int) -> SlotPlan:
    """Neat packing + idle VMs partially migrated to memory servers."""
    active_cpu = slot.cpu_booked - slot.idle_cpu_booked * 0.95
    cold_mem = slot.idle_mem_booked * (1.0 - IDLE_WSS_FRACTION)
    active_mem = slot.mem_booked - cold_mem
    need = max(active_cpu / CPU_BOOKING_CEILING, active_mem / MEM_CEILING)
    active = _clamp_servers(max(need, 1e-9), n_servers)
    mem_servers = cold_mem / MEM_CEILING
    mem_servers = min(mem_servers, max(0.0, n_servers - active))
    util = min(1.0, slot.cpu_used / active) if active else 0.0
    return SlotPlan(active=active, utilization=util,
                    memory_servers=mem_servers,
                    suspended=max(0.0, n_servers - active - mem_servers))


def plan_zombiestack(slot: DemandSlot, n_servers: int) -> SlotPlan:
    """Usage-based packing; cold working-set memory served by zombies."""
    need = max(slot.cpu_used / CPU_USAGE_CEILING,
               slot.mem_used * ZS_LOCAL_WSS_FRACTION / MEM_CEILING)
    active = _clamp_servers(max(need, 1e-9), n_servers)
    local_mem = active * MEM_CEILING
    remote_mem = max(0.0, slot.mem_used - local_mem)
    zombies = remote_mem / ZOMBIE_MEM_SERVED
    zombies = min(zombies, max(0.0, n_servers - active))
    util = min(1.0, slot.cpu_used / active) if active else 0.0
    return SlotPlan(active=active, utilization=util, zombies=zombies,
                    suspended=max(0.0, n_servers - active - zombies))


POLICIES: Dict[str, PlanFn] = {
    "baseline": plan_baseline,
    "Neat": plan_neat,
    "Oasis": plan_oasis,
    "ZombieStack": plan_zombiestack,
}


@dataclass
class PolicyEnergyResult:
    """Energy outcome of one policy over a trace."""

    policy: str
    profile: str
    joules: float
    baseline_joules: float
    slots: int
    mean_active_servers: float
    mean_zombies: float

    @property
    def kwh(self) -> float:
        return joules_to_kwh(self.joules)

    @property
    def saving_pct(self) -> float:
        if self.baseline_joules <= 0:
            return 0.0
        return (1.0 - self.joules / self.baseline_joules) * 100.0


class _ProfilePower(NamedTuple):
    """One profile's per-server power terms, resolved once per sweep."""

    idle: float           # S0 idle fraction (Infiniband on)
    zombie: float         # Sz fraction, equation (1)
    suspended: float      # S3 fraction (Infiniband on)
    max_power_watts: float

    @classmethod
    def of(cls, profile: MachineProfile) -> "_ProfilePower":
        return cls(idle=server_power_fraction(profile, SleepState.S0),
                   zombie=server_power_fraction(profile, SleepState.SZ),
                   suspended=server_power_fraction(profile, SleepState.S3),
                   max_power_watts=profile.max_power_watts)


def _slot_power(plan: SlotPlan, power: _ProfilePower) -> float:
    """Rack power (watts) for one slot's plan."""
    # S0 is inlined, not a server_power_fraction call: the Fig. 10 hot loop.
    idle = power.idle
    f_active = idle + (1.0 - idle) * plan.utilization
    fraction = (plan.active * f_active
                + plan.zombies * power.zombie
                + plan.memory_servers * MEMORY_SERVER_FRACTION
                + plan.suspended * power.suspended)
    return fraction * power.max_power_watts


def _baseline_joules(slots: Sequence[DemandSlot], n_servers: int,
                     power: _ProfilePower) -> float:
    """The baseline's energy over ``slots``: every saving's denominator."""
    joules = 0.0
    for slot in slots:
        joules += watts_x_seconds(
            _slot_power(plan_baseline(slot, n_servers), power),
            slot.duration_s)
    return joules


def _plan_fn(policy: str) -> PlanFn:
    """The plan function ``policy`` names."""
    plan_fn = POLICIES.get(policy)
    if plan_fn is None:
        raise ConfigurationError(
            f"unknown policy {policy!r}; expected one of {sorted(POLICIES)}"
        )
    return plan_fn


def simulate_energy(tasks: Sequence[Task], n_servers: int,
                    profile: MachineProfile, policy: str,
                    slot_s: float = HOUR,
                    slots: Optional[List[DemandSlot]] = None,
                    telemetry=None,
                    backend: str = "aggregate",
                    fleet=None) -> PolicyEnergyResult:
    """Run one policy over a trace and integrate rack energy.

    With a :class:`~repro.obs.Telemetry` hub attached, every slot's rack
    power lands on a ``rack_power_watts.<policy>`` timeline track (a
    Chrome-trace counter series — the Fig. 10 curve becomes scrubbable in
    Perfetto).

    ``backend`` selects how the ZombieStack policy is evaluated:

    - ``"aggregate"`` (default) — the closed-form fractional sweep;
    - ``"federation"`` — each slot's plan is *enacted* on a live
      multi-rack :class:`~repro.dc.fleet.FederationFleet` (pass one via
      ``fleet`` to control its shape, or let a 2-rack scale model be
      built): hosts really transition S0↔Sz, cold-memory demand really
      allocates through the federation gateway (dry racks borrow
      cross-rack), and the inter-rack energy surcharge is added to the
      integral — so poor placement shows up in the J/hour result.
    """
    plan_fn = _plan_fn(policy)
    if backend not in ("aggregate", "federation"):
        raise ConfigurationError(
            f"unknown backend {backend!r}; expected 'aggregate' or "
            "'federation'")
    if backend == "federation":
        if policy != "ZombieStack":
            raise ConfigurationError(
                "the federation backend enacts the zombie pool; only the "
                f"'ZombieStack' policy supports it, not {policy!r}")
        if fleet is None:
            from repro.dc.fleet import build_fleet
            fleet = build_fleet(n_servers, telemetry=telemetry)
    if slots is None:
        slots = aggregate_demand(tasks, slot_s=slot_s)
    power = _ProfilePower.of(profile)
    return _integrate(slots, n_servers, profile, power, policy, plan_fn,
                      _baseline_joules(slots, n_servers, power),
                      telemetry, fleet)


def _integrate(slots: Sequence[DemandSlot], n_servers: int,
               profile: MachineProfile, power: _ProfilePower, policy: str,
               plan_fn: PlanFn, baseline_joules: float,
               telemetry=None, fleet=None) -> PolicyEnergyResult:
    """One policy pass over ``slots`` against a precomputed baseline."""
    obs = telemetry is not None and telemetry.enabled
    joules = 0.0
    active_sum = 0.0
    zombie_sum = 0.0
    memory_sum = 0.0
    suspended_sum = 0.0
    # ZomAudit integrals: the ideal energy-proportional demand energy
    # (zPUE denominator), served memory, and the cold remote-memory
    # demand vs. what the zombie pool actually covered.
    ideal_joules = 0.0
    mem_used_server_s = 0.0
    remote_server_s = 0.0
    zombie_served_server_s = 0.0
    slot_seconds = 0.0
    for slot in slots:
        plan = plan_fn(slot, n_servers)
        watts = _slot_power(plan, power)
        joules += watts_x_seconds(watts, slot.duration_s)
        if fleet is not None:
            # The scale model's cross-rack surcharge, re-scaled to the
            # sweep's fleet size, joins the energy integral.
            deltas = fleet.enact(plan, slot, n_servers)
            joules += (deltas["cross_rack_joules"]
                       * n_servers / fleet.n_hosts)
        active_sum += plan.active
        zombie_sum += plan.zombies
        memory_sum += plan.memory_servers
        suspended_sum += plan.suspended
        ideal_joules += watts_x_seconds(
            slot.cpu_used * profile.max_power_watts, slot.duration_s)
        mem_used_server_s += slot.mem_used * slot.duration_s
        remote = max(0.0, slot.mem_used - plan.active * MEM_CEILING)
        served = min(remote, plan.zombies * ZOMBIE_MEM_SERVED)
        remote_server_s += remote * slot.duration_s
        zombie_served_server_s += served * slot.duration_s
        slot_seconds += slot.duration_s
        if obs:
            telemetry.tracer.sample(f"rack_power_watts.{policy}", watts,
                                    track=profile.name, time_s=slot.start_s)
    n = max(1, len(slots))
    result = PolicyEnergyResult(
        policy=policy, profile=profile.name,
        joules=joules, baseline_joules=baseline_joules,
        slots=len(slots),
        mean_active_servers=active_sum / n,
        mean_zombies=zombie_sum / n,
    )
    if obs:
        labels = dict(policy=policy, profile=profile.name)
        registry = telemetry.registry
        registry.counter(
            "dc_energy_joules_total", "Integrated rack energy by policy.",
            **labels).inc(joules)
        registry.counter(
            "dc_ideal_joules_total",
            "Ideal energy-proportional demand energy (zPUE denominator).",
            **labels).inc(ideal_joules)
        registry.counter(
            "dc_mem_used_server_seconds_total",
            "Served memory demand, in normalized server-seconds.",
            **labels).inc(mem_used_server_s)
        registry.counter(
            "dc_remote_mem_server_seconds_total",
            "Cold memory demand beyond active-host capacity.",
            **labels).inc(remote_server_s)
        registry.counter(
            "dc_zombie_served_server_seconds_total",
            "Cold memory demand served from the zombie pool.",
            **labels).inc(zombie_served_server_s)
        registry.counter(
            "dc_demand_slot_seconds_total",
            "Total simulated time across demand slots.",
            **labels).inc(slot_seconds)
        for role, mean in (("active", active_sum / n),
                           ("zombie", zombie_sum / n),
                           ("memory", memory_sum / n),
                           ("suspended", suspended_sum / n)):
            registry.gauge(
                "dc_mean_servers", "Mean servers per role over the trace.",
                role=role, **labels).set(mean)
    return result


def energy_saving_comparison(tasks: Sequence[Task], n_servers: int,
                             profiles: Iterable[MachineProfile],
                             policies: Iterable[str] = ("Neat", "Oasis",
                                                        "ZombieStack"),
                             slot_s: float = HOUR
                             ) -> Dict[str, Dict[str, float]]:
    """Fig. 10 bars: ``{profile: {policy: saving %}}`` for one trace set."""
    slots = aggregate_demand(tasks, slot_s=slot_s)
    plan_fns = {policy: _plan_fn(policy) for policy in policies}
    out: Dict[str, Dict[str, float]] = {}
    for profile in profiles:
        # The baseline is integrated once per profile, not per policy.
        power = _ProfilePower.of(profile)
        baseline_joules = _baseline_joules(slots, n_servers, power)
        out[profile.name] = {
            policy: _integrate(slots, n_servers, profile, power, policy,
                               plan_fn, baseline_joules).saving_pct
            for policy, plan_fn in plan_fns.items()}
    return out
