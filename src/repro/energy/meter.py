"""Energy accounting: integrate power over (simulated) time.

The datacenter simulation drives one :class:`EnergyMeter` per server: the
server reports power-level changes, and the meter integrates piecewise-
constant power into joules.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.units import joules_to_kwh, watts_x_seconds


class EnergyMeter:
    """Piecewise-constant power integrator (a software PowerSpy2)."""

    def __init__(self, start_time: float = 0.0, power_watts: float = 0.0):
        self._last_time = start_time
        self._power = power_watts
        self._joules = 0.0
        self._joules_counter = None
        self._power_gauge = None

    def attach_metrics(self, registry, **labels) -> None:
        """Bridge this meter into a :class:`MetricsRegistry`.

        Every integrated segment lands on the
        ``host_energy_joules_total`` counter and the current power level
        on the ``host_power_watts`` gauge (labelled as given), so the
        per-host energy trail reaches the exporters and the ZomAudit
        analyzers without the audit touching live meters.
        """
        self._joules_counter = registry.counter(
            "host_energy_joules_total",
            "Energy integrated by this host's meter.", **labels)
        self._power_gauge = registry.gauge(
            "host_power_watts", "Current metered power level.", **labels)
        self._power_gauge.set(self._power)

    @property
    def power_watts(self) -> float:
        """Current power level."""
        return self._power

    @property
    def joules(self) -> float:
        """Energy integrated so far (up to the last reported instant)."""
        return self._joules

    @property
    def kwh(self) -> float:
        return joules_to_kwh(self._joules)

    def set_power(self, now: float, power_watts: float) -> None:
        """Report that power changed to ``power_watts`` at time ``now``."""
        self.advance(now)
        self._power = power_watts
        if self._power_gauge is not None:
            self._power_gauge.set(power_watts)

    def advance(self, now: float) -> None:
        """Integrate the current power level up to ``now``."""
        if now < self._last_time:
            raise SimulationError(
                f"meter time went backwards: {now} < {self._last_time}"
            )
        if now > self._last_time:
            delta = watts_x_seconds(self._power, now - self._last_time)
            self._joules += delta
            if self._joules_counter is not None:
                self._joules_counter.inc(delta)
            self._last_time = now

    def accumulate(self, power_watts: float, duration_s: float) -> None:
        """Directly add a constant-power segment from the last instant."""
        if duration_s < 0:
            raise SimulationError(f"negative duration {duration_s}")
        self._joules += watts_x_seconds(power_watts, duration_s)
        if self._joules_counter is not None:
            self._joules_counter.inc(watts_x_seconds(power_watts, duration_s))
        self._last_time += duration_s
