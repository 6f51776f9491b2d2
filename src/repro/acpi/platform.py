"""A complete server platform: power plane + devices + firmware + OSPM.

:func:`build_platform` wires the canonical board the paper assumes — an
Sz-capable machine with independent CPU/memory power domains and an
Infiniband HCA — and can also build the degenerate boards used as negative
tests (shared power domains, no HCA).
"""

from __future__ import annotations

from typing import List, Optional

from repro.acpi.devices import (Cpu, Device, InfinibandCard, MemoryBankDevice,
                                PcieRootComplex, StorageDevice)
from repro.acpi.firmware import Firmware
from repro.acpi.ospm import Ospm
from repro.acpi.power import (CPU_DOMAIN, MEMORY_DOMAIN, NIC_DOMAIN,
                              PERIPHERAL_DOMAIN, STANDBY_DOMAIN,
                              STORAGE_DOMAIN, PowerDomain, PowerPlane)
from repro.acpi.states import SleepState
from repro.errors import PowerStateError
from repro.units import GiB


class ServerPlatform:
    """One physical server: hardware, firmware, and OS power management."""

    def __init__(self, name: str, plane: PowerPlane, devices: List[Device]):
        self.name = name
        self.plane = plane
        self.devices = devices
        self.firmware = Firmware(plane, devices)
        from repro.acpi.registers import Pm1Registers
        self.registers = Pm1Registers()
        self.registers.connect(self.firmware.enter_sleep)
        self.ospm = Ospm(self.registers, devices)
        self.firmware.boot_init()
        self.remote_ok = self._compute_remote_ok()

    # -- introspection --------------------------------------------------
    @property
    def state(self) -> SleepState:
        return self.ospm.current_state

    @property
    def supports_sz(self) -> bool:
        return self.firmware.supports_sz

    @property
    def is_zombie(self) -> bool:
        return self.state is SleepState.SZ

    @property
    def memory_banks(self) -> List[MemoryBankDevice]:
        return [d for d in self.devices if isinstance(d, MemoryBankDevice)]

    @property
    def infiniband(self) -> Optional[InfinibandCard]:
        for device in self.devices:
            if isinstance(device, InfinibandCard):
                return device
        return None

    @property
    def memory_bytes(self) -> int:
        return sum(bank.capacity_bytes for bank in self.memory_banks)

    # -- transitions -----------------------------------------------------
    def suspend(self, target: SleepState) -> None:
        """Suspend via the OSPM path (includes the pre-sleep hook)."""
        if target is SleepState.SZ and not self.supports_sz:
            raise PowerStateError(
                f"{self.name}: Sz unsupported (no split power domains)"
            )
        self.ospm.suspend(target)
        self.remote_ok = self._compute_remote_ok()

    def go_zombie(self) -> None:
        """``echo zom > /sys/power/state``."""
        if not self.supports_sz:
            raise PowerStateError(
                f"{self.name}: Sz unsupported (no split power domains)"
            )
        self.ospm.write_sysfs_power_state("zom")
        self.remote_ok = self._compute_remote_ok()

    def wake(self) -> float:
        """Wake to S0; returns the resume latency in seconds."""
        if self.state is SleepState.S0:
            return 0.0
        latency = self.state.wake_latency_s
        self.firmware.wake()
        self.ospm.resume()
        self.remote_ok = self._compute_remote_ok()
        return latency

    # -- the Sz data path --------------------------------------------------
    def memory_remotely_accessible(self) -> bool:
        """Whether a remote peer can RDMA into this platform's DRAM now.

        Recomputes from device state (and refreshes the cached
        ``remote_ok`` flag the fabric fast path reads).
        """
        self.remote_ok = self._compute_remote_ok()
        return self.remote_ok

    def _compute_remote_ok(self) -> bool:
        nic = self.infiniband
        if nic is None or not nic.serves_rdma:
            return False
        return any(bank.serves_accesses for bank in self.memory_banks)


def build_platform(name: str = "server",
                   memory_bytes: int = 16 * GiB,
                   split_power_domains: bool = True,
                   with_infiniband: bool = True) -> ServerPlatform:
    """Build a server board: one CPU, four DIMMs, storage and the NIC.

    ``split_power_domains=False`` models a legacy board where CPU and memory
    share one supply — Sz must be refused on it.  ``with_infiniband=False``
    models a board without the RDMA path.
    """
    devices: List[Device] = [Cpu()]
    per_dimm = memory_bytes // 4
    for i in range(4):
        devices.append(MemoryBankDevice(name=f"dimm{i}", capacity_bytes=per_dimm))
    if with_infiniband:
        devices.append(InfinibandCard())
        devices.append(PcieRootComplex())
    devices.append(StorageDevice())

    plane = PowerPlane()
    for domain in (STANDBY_DOMAIN, CPU_DOMAIN, NIC_DOMAIN, STORAGE_DOMAIN,
                   PERIPHERAL_DOMAIN):
        plane.add_domain(PowerDomain(domain))
    if split_power_domains:
        plane.add_domain(PowerDomain(MEMORY_DOMAIN))
    else:
        plane.domains[MEMORY_DOMAIN] = plane.domains[CPU_DOMAIN]  # no split
    return ServerPlatform(name, plane, devices)
