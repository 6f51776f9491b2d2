"""The firmware transition sequencer.

Per Section 3.1, firmware work for Sz happens at three points: boot-time
chipset initialisation, Sz enter (transition individual devices to their
S-states, but leave memory and the NIC-to-memory path in active idle), and
Sz exit (reinitialise the chipset and hand control back to the OS).  The
sequencer also implements the classic S3/S4/S5 paths so every state runs on
the same platform.
"""

from __future__ import annotations

from typing import Dict, List

from repro.acpi.devices import (Device, DeviceState, InfinibandCard,
                                MemoryBankDevice)
from repro.acpi.power import (CPU_DOMAIN, MEMORY_DOMAIN, NIC_DOMAIN,
                              PERIPHERAL_DOMAIN, STANDBY_DOMAIN,
                              STORAGE_DOMAIN, PowerPlane)
from repro.acpi.states import SleepState
from repro.errors import FirmwareError, PowerStateError


class Firmware:
    """Sequences power domains and device D-states for S-state transitions."""

    def __init__(self, plane: PowerPlane, devices: List[Device]):
        self.plane = plane
        self.devices = devices
        self.sz_initialised = False

    # -- boot ------------------------------------------------------------
    def boot_init(self) -> None:
        """Boot-time initialisation; configures the Sz chipset hooks.

        Sz support is only advertised when the board wires CPU and memory to
        independent power domains.
        """
        self.sz_initialised = self.plane.split_cpu_memory
        for domain in self.plane.domains.values():
            domain.energised = True
        for device in self.devices:
            device.set_state(DeviceState.D0)

    @property
    def supports_sz(self) -> bool:
        return self.sz_initialised

    # -- transitions -------------------------------------------------------
    def enter_sleep(self, state: SleepState) -> None:
        """Hardware-side entry into ``state`` (invoked via PM1 SLP_EN)."""
        if state is SleepState.S0:
            raise PowerStateError("use wake() to return to S0")
        if state is SleepState.SZ:
            self._enter_zombie()
        elif state is SleepState.S3:
            self._enter_s3()
        elif state in (SleepState.S4, SleepState.S5):
            self._enter_off(state)
        else:  # pragma: no cover - enum is closed
            raise FirmwareError(f"unhandled sleep state {state}")

    def wake(self) -> None:
        """Resume to S0: re-energise all domains, devices back to D0."""
        for domain in self.plane.domains.values():
            domain.energised = True
        for device in self.devices:
            device.set_state(DeviceState.D0)
            if isinstance(device, MemoryBankDevice):
                device.enter_active_idle()

    # -- per-state sequences -----------------------------------------------
    def _switch_domains(self, keep: set) -> None:
        """Energise exactly the domains whose (any) name is in ``keep``.

        On legacy boards one domain object may be registered under both the
        CPU and memory names; it stays on if *any* of its names is kept, so
        S3 still retains memory content on such boards.
        """
        names_by_domain: Dict[int, list] = {}
        objects = {}
        for name, domain in self.plane.domains.items():
            names_by_domain.setdefault(id(domain), []).append(name)
            objects[id(domain)] = domain
        for key, names in names_by_domain.items():
            objects[key].energised = any(name in keep for name in names)

    def _enter_zombie(self) -> None:
        """Sz: the S3 sequence, except memory + NIC path stay live.

        "Additional logic is required to transition memory and network to
        their active-idle states to enable their operation while the system
        is in Sz state."
        """
        if not self.sz_initialised:
            raise PowerStateError(
                "firmware did not initialise Sz support at boot "
                "(no independent CPU/memory power domains)"
            )
        self._switch_domains({STANDBY_DOMAIN, MEMORY_DOMAIN, NIC_DOMAIN})
        for device in self.devices:
            if isinstance(device, MemoryBankDevice):
                device.set_state(DeviceState.D0)
                device.enter_active_idle()  # Si0x-like, NOT self-refresh
            elif isinstance(device, InfinibandCard):
                device.set_state(DeviceState.D0)  # full DMA path alive
            elif device.domain == NIC_DOMAIN:
                device.set_state(DeviceState.D0)  # PCIe root complex segment
            else:
                device.set_state(DeviceState.D3_HOT)
        self._verify_report(SleepState.SZ)

    def _enter_s3(self) -> None:
        """Classic suspend-to-RAM: DRAM to self-refresh, NIC to WoL standby."""
        self._switch_domains({STANDBY_DOMAIN, MEMORY_DOMAIN, NIC_DOMAIN})
        for device in self.devices:
            if isinstance(device, MemoryBankDevice):
                device.set_state(DeviceState.D0)
                device.enter_self_refresh()
            elif isinstance(device, InfinibandCard):
                device.set_state(DeviceState.D3_HOT)  # WoL aux power only
            else:
                device.set_state(DeviceState.D3_HOT)
        self._verify_report(SleepState.S3)

    def _enter_off(self, state: SleepState) -> None:
        """S4/S5: everything off except standby logic (and WoL for S4)."""
        self._switch_domains({STANDBY_DOMAIN})
        for device in self.devices:
            if isinstance(device, InfinibandCard) and state is SleepState.S4:
                device.set_state(DeviceState.D3_HOT)  # keep WoL
            else:
                device.set_state(DeviceState.D3_COLD)
            if isinstance(device, MemoryBankDevice):
                device.enter_self_refresh()
        self._verify_report(state)

    # -- idempotence / reporting signals ------------------------------------
    def _verify_report(self, state: SleepState) -> None:
        """Check the state-report signals match the requested S-state.

        This models the "additional signals from the participating chips for
        reporting and idempotence of actions" the paper calls for.
        """
        report = self.plane.report()
        cpu_on = report.get(CPU_DOMAIN, False)
        mem_on = report.get(MEMORY_DOMAIN, False)
        if cpu_on and self.plane.split_cpu_memory:
            raise FirmwareError(f"CPU domain still energised after {state}")
        if state is SleepState.SZ and not mem_on:
            raise FirmwareError("memory domain lost power during Sz entry")
        if state is SleepState.S5 and mem_on:
            raise FirmwareError("memory domain energised in S5")
        for name in (STORAGE_DOMAIN, PERIPHERAL_DOMAIN):
            if report.get(name, False):
                raise FirmwareError(f"{name} domain energised in {state}")
