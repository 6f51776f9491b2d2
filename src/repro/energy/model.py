"""Energy models: equation (1), the Fig. 1 curve, the Fig. 4 rack scenarios.

Equation (1) of the paper estimates the power of the (not yet manufacturable)
Sz state from measurable configurations::

    E(Sz) = (E(S0WIBOn) - E(S0WIBOff))     # Infiniband card activity
          + (E(S3WIB)   - E(S3WOIB))       # WoL path: low-power NIC, PCIe
          + E(S3WOIB)                      # the rest of the S3 board

i.e. an S3 board plus a fully-active NIC-to-memory path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.acpi.states import SleepState
from repro.energy.profiles import MachineProfile, PowerConfig
from repro.errors import ConfigurationError

#: Soft-off (S5) residual standby power, as a fraction of max.
S5_FRACTION = 0.005


def estimate_sz_fraction(profile: MachineProfile) -> float:
    """Equation (1): estimated Sz power as a fraction of the machine's max.

    Reproduces the last column of Table 3 (12.67 % for HP, 11.15 % for Dell).
    """
    f = profile.fraction
    ib_activity = f(PowerConfig.S0_W_IB_ON) - f(PowerConfig.S0_W_IB_OFF)
    wol_path = f(PowerConfig.S3_W_IB) - f(PowerConfig.S3_WO_IB)
    return ib_activity + wol_path + f(PowerConfig.S3_WO_IB)


def server_power_fraction(profile: MachineProfile, state: SleepState,
                          utilization: float = 0.0) -> float:
    """Power fraction of a server in ``state`` at the given CPU utilization.

    In S0 we use the standard linear-from-idle energy-proportionality model
    (the solid curve of Fig. 1): a server draws its idle power at zero load
    and climbs linearly to max at 100 %.  Sleep states use the measured
    with-Infiniband configurations (real servers keep a WoL-capable NIC
    powered), and Sz uses equation (1).
    """
    if not 0.0 <= utilization <= 1.0:
        raise ConfigurationError(f"utilization out of [0,1]: {utilization}")
    if state is SleepState.S0:
        idle = profile.fraction(PowerConfig.S0_W_IB_ON)
        return idle + (1.0 - idle) * utilization
    if state is SleepState.S3:
        return profile.fraction(PowerConfig.S3_W_IB)
    if state is SleepState.S4:
        return profile.fraction(PowerConfig.S4_W_IB)
    if state is SleepState.S5:
        return S5_FRACTION
    if state is SleepState.SZ:
        return estimate_sz_fraction(profile)
    raise ConfigurationError(f"unhandled state {state}")  # pragma: no cover


def server_power_watts(profile: MachineProfile, state: SleepState,
                       utilization: float = 0.0) -> float:
    """Absolute draw in watts for ``server_power_fraction``."""
    return (server_power_fraction(profile, state, utilization)
            * profile.max_power_watts)


def energy_proportionality_curve(
        profile: Optional[MachineProfile] = None,
        points: int = 21) -> List[Tuple[float, float, float]]:
    """The Fig. 1 data: (utilization %, actual energy %, ideal energy %).

    The *actual* curve starts at the S0-idle power (~50 % of max on the
    paper's figure) and climbs to 100 %; the *ideal* energy-proportional
    curve is the diagonal.
    """
    if points < 2:
        raise ConfigurationError(f"need at least 2 points, got {points}")
    idle = 0.50 if profile is None else profile.idle_fraction
    series = []
    for i in range(points):
        u = i / (points - 1)
        actual = (idle + (1.0 - idle) * u) * 100.0
        series.append((u * 100.0, actual, u * 100.0))
    return series


# --------------------------------------------------------------------------
# Fig. 4: the four rack-level architectures
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RackScenario:
    """One Fig. 4 architecture: named boards and their power fractions.

    ``entries`` lists ``(description, power_fraction_of_Emax, count)``.
    """

    name: str
    entries: Tuple[Tuple[str, float, int], ...]

    @property
    def total_energy(self) -> float:
        """Total rack energy in units of Emax (one full server)."""
        return sum(fraction * count for _, fraction, count in self.entries)


def rack_scenarios(idle_fraction: float = 0.55,
                   sz_fraction: float = 0.10) -> List[RackScenario]:
    """Build the four Fig. 4 scenarios for a three-server rack.

    The modelled workload (the paper's example) needs the CPU of one server
    but the memory of roughly two — the memory-capacity-wall imbalance.  The
    defaults reproduce the paper's rough approximations: 2.1 / 1.15 / 1.8 /
    1.2 × Emax.

    - *server-centric*: bundled resources force every memory-serving server
      fully on, so two servers idle at ``idle_fraction`` just to serve RAM;
    - *ideal disaggregation*: per-resource boards; unused boards power off
      (compute board 0.70 Emax at full load, memory boards 0.225 Emax each);
    - *micro-servers*: six half-size servers; granularity shrinks the waste
      but memory servers still burn full idle power;
    - *zombie*: memory-serving servers drop to Sz (equation 1 power).
    """
    if not 0.0 < idle_fraction < 1.0:
        raise ConfigurationError(f"idle_fraction out of (0,1): {idle_fraction}")
    if not 0.0 < sz_fraction < 1.0:
        raise ConfigurationError(f"sz_fraction out of (0,1): {sz_fraction}")
    micro = 0.5  # a micro-server's max power, in Emax units
    return [
        RackScenario("server-centric", (
            ("busy server (S0, 100%)", 1.0, 1),
            ("memory-serving server (S0 idle)", idle_fraction, 2),
        )),
        RackScenario("resource disaggregation (ideal)", (
            ("compute board (100%)", 0.70, 1),
            ("memory board", 0.225, 2),
        )),
        RackScenario("micro-servers", (
            ("busy micro-server (S0, 100%)", micro, 2),
            ("memory-serving micro-server (S0 idle)", idle_fraction * micro, 3),
        )),
        RackScenario("zombie (this paper)", (
            ("busy server (S0, 100%)", 1.0, 1),
            ("zombie server (Sz)", sz_fraction, 2),
        )),
    ]
