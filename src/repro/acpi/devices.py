"""Device power states (D-states) for the board components Sz cares about.

ACPI device states run from D0 (fully on) to D3cold (off).  The Sz sequence
keeps the memory banks in D0 *active idle* (the paper's Si0x-like behaviour)
and the Infiniband card in D0 so its DMA path to memory keeps working, while
every other device follows the normal S3 path to D3.

Devices carry no wattage: server power is Table 3's measurement for the
platform's S-state (:func:`repro.energy.model.server_power_watts`).
"""

from __future__ import annotations

import enum

from repro.acpi.power import (CPU_DOMAIN, MEMORY_DOMAIN, NIC_DOMAIN,
                              STORAGE_DOMAIN)


class DeviceState(enum.Enum):
    """ACPI device power states."""

    D0 = "D0"        # fully on
    D3_HOT = "D3hot"   # off, aux power present (Wake-on-LAN still listens)
    D3_COLD = "D3cold"  # off, no power

    @property
    def operational(self) -> bool:
        return self is DeviceState.D0


class Device:
    """A board device with a D-state on its board power domain."""

    domain: str

    def __init__(self, name: str):
        self.name = name
        self.state = DeviceState.D0

    def set_state(self, state: DeviceState) -> None:
        self.state = state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, {self.state.value})"


class Cpu(Device):
    """The CPU package; dies entirely outside S0."""

    domain = CPU_DOMAIN

    def __init__(self, name: str = "cpu0"):
        super().__init__(name)


class MemoryBank(enum.Enum):
    """DRAM refresh modes (module-level enum reused by MemoryBankDevice)."""

    ACTIVE_IDLE = "active-idle"      # Si0x-like: serves accesses immediately
    SELF_REFRESH = "self-refresh"    # S3 mode: retains content, cannot serve


class MemoryBankDevice(Device):
    """A DRAM bank whose refresh mode distinguishes S3 from Sz.

    In *active idle* the bank serves (local or DMA) accesses; in
    *self refresh* it only retains content.
    """

    domain = MEMORY_DOMAIN

    def __init__(self, name: str = "dimm0", capacity_bytes: int = 0):
        super().__init__(name)
        self.capacity_bytes = capacity_bytes
        self.mode = MemoryBank.ACTIVE_IDLE

    def enter_self_refresh(self) -> None:
        self.mode = MemoryBank.SELF_REFRESH

    def enter_active_idle(self) -> None:
        self.mode = MemoryBank.ACTIVE_IDLE

    @property
    def serves_accesses(self) -> bool:
        """Whether reads/writes (including remote DMA) complete."""
        return self.state.operational and self.mode is MemoryBank.ACTIVE_IDLE


class InfinibandCard(Device):
    """The RDMA HCA; in Sz it stays in D0 so one-sided verbs bypass the CPU."""

    domain = NIC_DOMAIN

    def __init__(self, name: str = "mlx0"):
        super().__init__(name)

    @property
    def serves_rdma(self) -> bool:
        """One-sided RDMA works only with the card fully powered."""
        return self.state.operational


class PcieRootComplex(Device):
    """The PCIe segment between the HCA and memory; must stay up in Sz."""

    domain = NIC_DOMAIN

    def __init__(self, name: str = "pcie-root"):
        super().__init__(name)


class StorageDevice(Device):
    """Local disk/SSD; powered down in every sleep state."""

    domain = STORAGE_DOMAIN

    def __init__(self, name: str = "sda"):
        super().__init__(name)
