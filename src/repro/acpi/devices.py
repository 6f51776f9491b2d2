"""Device power states (D-states) for the board components Sz cares about.

ACPI device states run from D0 (fully on) to D3cold (off).  The Sz sequence
keeps the memory banks in D0 *active idle* (the paper's Si0x-like behaviour)
and the Infiniband card in D0 so its DMA path to memory keeps working, while
every other device follows the normal S3 path to D3.
"""

from __future__ import annotations

import enum
from typing import Optional


class DeviceState(enum.Enum):
    """ACPI device power states."""

    D0 = "D0"        # fully on
    D1 = "D1"        # light sleep
    D2 = "D2"        # deeper sleep
    D3_HOT = "D3hot"   # off, aux power present
    D3_COLD = "D3cold"  # off, no power

    @property
    def operational(self) -> bool:
        return self is DeviceState.D0


class Device:
    """A board device with a D-state and a power-domain assignment."""

    def __init__(self, name: str, domain: str, active_watts: float,
                 idle_watts: Optional[float] = None,
                 d3hot_watts: float = 0.0):
        self.name = name
        self.domain = domain
        self.active_watts = active_watts
        self.idle_watts = active_watts if idle_watts is None else idle_watts
        self.d3hot_watts = d3hot_watts
        self.state = DeviceState.D0
        self.busy = False  # D0 active vs. D0 idle

    def set_state(self, state: DeviceState) -> None:
        self.state = state
        if not state.operational:
            self.busy = False

    def power_draw(self) -> float:
        """Draw in watts given D-state and activity."""
        if self.state is DeviceState.D0:
            return self.active_watts if self.busy else self.idle_watts
        if self.state is DeviceState.D3_HOT:
            return self.d3hot_watts
        if self.state in (DeviceState.D1, DeviceState.D2):
            return self.d3hot_watts + 0.5 * (self.idle_watts - self.d3hot_watts)
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Device({self.name!r}, {self.state.value}, {self.power_draw():.1f} W)"


class Cpu(Device):
    """The CPU package; dies entirely outside S0."""

    def __init__(self, name: str = "cpu0", domain: str = "cpu",
                 active_watts: float = 65.0, idle_watts: float = 12.0):
        super().__init__(name, domain, active_watts, idle_watts)


class MemoryBank(enum.Enum):
    """DRAM refresh modes (module-level enum reused by MemoryBankDevice)."""

    ACTIVE_IDLE = "active-idle"      # Si0x-like: serves accesses immediately
    SELF_REFRESH = "self-refresh"    # S3 mode: retains content, cannot serve


class MemoryBankDevice(Device):
    """A DRAM bank whose refresh mode distinguishes S3 from Sz.

    In *active idle* the bank serves (local or DMA) accesses; in
    *self refresh* it only retains content at lower power.
    """

    def __init__(self, name: str = "dimm0", domain: str = "memory",
                 capacity_bytes: int = 0,
                 active_watts: float = 4.5, idle_watts: float = 2.5,
                 self_refresh_watts: float = 0.8):
        super().__init__(name, domain, active_watts, idle_watts)
        self.capacity_bytes = capacity_bytes
        self.self_refresh_watts = self_refresh_watts
        self.mode = MemoryBank.ACTIVE_IDLE

    def enter_self_refresh(self) -> None:
        self.mode = MemoryBank.SELF_REFRESH

    def enter_active_idle(self) -> None:
        self.mode = MemoryBank.ACTIVE_IDLE

    @property
    def serves_accesses(self) -> bool:
        """Whether reads/writes (including remote DMA) complete."""
        return self.state.operational and self.mode is MemoryBank.ACTIVE_IDLE

    def power_draw(self) -> float:
        if self.state is DeviceState.D0 and self.mode is MemoryBank.SELF_REFRESH:
            return self.self_refresh_watts
        return super().power_draw()


class InfinibandCard(Device):
    """The RDMA HCA; in Sz it stays in D0 so one-sided verbs bypass the CPU."""

    def __init__(self, name: str = "mlx0", domain: str = "nic",
                 active_watts: float = 11.0, idle_watts: float = 9.0,
                 wol_watts: float = 2.2):
        super().__init__(name, domain, active_watts, idle_watts,
                         d3hot_watts=wol_watts)
        self.wake_on_lan_armed = True

    @property
    def serves_rdma(self) -> bool:
        """One-sided RDMA works only with the card fully powered."""
        return self.state.operational


class PcieRootComplex(Device):
    """The PCIe segment between the HCA and memory; must stay up in Sz."""

    def __init__(self, name: str = "pcie-root", domain: str = "nic",
                 active_watts: float = 3.0, idle_watts: float = 2.0):
        super().__init__(name, domain, active_watts, idle_watts)


class StorageDevice(Device):
    """Local disk/SSD; powered down in every sleep state."""

    def __init__(self, name: str = "sda", domain: str = "storage",
                 active_watts: float = 6.0, idle_watts: float = 3.0):
        super().__init__(name, domain, active_watts, idle_watts)
