"""ACPI platform model, including the paper's new zombie (Sz) sleep state.

This package models exactly the layers the paper patches:

- :mod:`~repro.acpi.states` — the global S-state set extended with Sz;
- :mod:`~repro.acpi.power` — the independent CPU/memory power-supply
  domains that make Sz possible;
- :mod:`~repro.acpi.devices` — per-device D-states (RAM in active-idle vs.
  self-refresh, Infiniband card with Wake-on-LAN, ...);
- :mod:`~repro.acpi.registers` — the PM1A/PM1B sleep-control register block;
- :mod:`~repro.acpi.firmware` — the transition sequencer that switches
  domains and devices in the right order on Sz enter/exit;
- :mod:`~repro.acpi.ospm` — the OS power-management layer reproducing the
  Fig. 6 call path (``echo zom > /sys/power/state``);
- :mod:`~repro.acpi.platform` — a complete server platform tying it together.

The model decides behaviour only (which domains are up, which devices
serve); server watts come from Table 3 via
:func:`repro.energy.model.server_power_watts`.
"""

from repro.acpi.states import SleepState
from repro.acpi.devices import DeviceState, Device, MemoryBank, InfinibandCard
from repro.acpi.power import PowerDomain, PowerPlane
from repro.acpi.registers import Pm1Registers, SleepType
from repro.acpi.firmware import Firmware
from repro.acpi.ospm import Ospm
from repro.acpi.platform import ServerPlatform, build_platform

__all__ = [
    "SleepState", "DeviceState", "Device", "MemoryBank", "InfinibandCard",
    "PowerDomain", "PowerPlane", "Pm1Registers", "SleepType",
    "Firmware", "Ospm", "ServerPlatform", "build_platform",
]
