"""The OS power-management (OSPM) layer: the Fig. 6 execution path.

The paper patches Linux so that ``echo zom > /sys/power/state`` walks the
S3/S4 suspend path with three modifications (the red lines in Fig. 6):

1. a new ``zom`` keyword accepted by the sysfs entry point;
2. ``pm_suspend`` skips suspending the devices that must stay up in Sz
   (the Infiniband card and its associated PCIe devices);
3. ``x86_acpi_enter_sleep_state`` programs the new SLP_TYP encoding into
   the PM1A/PM1B registers.

This class reproduces that call chain function-by-function and records it in
``call_trace`` so tests can assert the exact path.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Set

from repro.acpi.devices import Device, DeviceState, InfinibandCard
from repro.acpi.power import NIC_DOMAIN
from repro.acpi.registers import Pm1Registers, SleepType
from repro.acpi.states import SYSFS_KEYWORDS, SleepState
from repro.errors import PowerStateError


class Ospm:
    """The kernel power-management framework, plus the paper's Sz patch."""

    def __init__(self, registers: Pm1Registers, devices: List[Device]):
        self.registers = registers
        self.devices = devices
        #: The most recent calls, enough for one suspend-plus-resume path:
        #: 14 fixed steps (sysfs entry to ``tboot_sleep``, then ``resume``)
        #: and one ``pm_keep``/``pm_suspend_device`` entry per device.
        self.call_trace: Deque[str] = deque(maxlen=14 + len(devices))
        self.current_state = SleepState.S0
        #: Hook invoked just before the PM1 write; the rack layer uses it to
        #: trigger memory delegation (remote-mem-mgr's GS_goto_zombie).
        self.pre_sleep_hook: Optional[Callable[[SleepState], None]] = None

    # -- public entry point --------------------------------------------------
    def write_sysfs_power_state(self, keyword: str) -> None:
        """``echo <keyword> > /sys/power/state`` (Fig. 6, line 1)."""
        self.call_trace.append(f"sysfs:{keyword}")
        try:
            target = SYSFS_KEYWORDS[keyword]
        except KeyError:
            raise PowerStateError(f"unknown power state keyword {keyword!r}") from None
        self._pm_suspend(target)

    def suspend(self, target: SleepState) -> None:
        """Programmatic suspend, bypassing the sysfs keyword parse."""
        if target is SleepState.S0:
            raise PowerStateError("cannot suspend to S0")
        self._pm_suspend(target)

    def resume(self) -> None:
        """Mark the OS side resumed (firmware wake already ran)."""
        self.call_trace.append("resume")
        self.registers.clear()
        self.current_state = SleepState.S0

    # -- the Fig. 6 chain ----------------------------------------------------
    def _pm_suspend(self, target: SleepState) -> None:
        self.call_trace.append("pm_suspend")
        if self.current_state is not SleepState.S0:
            raise PowerStateError(
                f"cannot suspend: platform already in {self.current_state}"
            )
        self._enter_state(target)

    def _enter_state(self, target: SleepState) -> None:
        self.call_trace.append("enter_state")
        self._suspend_prepare(target)
        self._suspend_devices_and_enter(target)

    def _suspend_prepare(self, target: SleepState) -> None:
        self.call_trace.append("suspend_prepare")
        if self.pre_sleep_hook is not None:
            self.pre_sleep_hook(target)

    def _keepalive_devices(self, target: SleepState) -> Set[str]:
        """Devices whose ``pm_suspend`` is skipped (the paper's patch #2)."""
        if target is not SleepState.SZ:
            return set()
        keep = set()
        for device in self.devices:
            if isinstance(device, InfinibandCard) or device.domain == NIC_DOMAIN:
                keep.add(device.name)
        return keep

    def _suspend_devices_and_enter(self, target: SleepState) -> None:
        self.call_trace.append("suspend_devices_and_enter")
        keep = self._keepalive_devices(target)
        for device in self.devices:
            if device.name in keep:
                self.call_trace.append(f"pm_keep:{device.name}")
            else:
                self.call_trace.append(f"pm_suspend_device:{device.name}")
                device.set_state(DeviceState.D3_HOT)
        self._suspend_enter(target)

    def _suspend_enter(self, target: SleepState) -> None:
        self.call_trace.append("suspend_enter")
        self._acpi_suspend_enter(target)

    def _acpi_suspend_enter(self, target: SleepState) -> None:
        self.call_trace.append("acpi_suspend_enter")
        self._x86_acpi_suspend_lowlevel(target)

    def _x86_acpi_suspend_lowlevel(self, target: SleepState) -> None:
        self.call_trace.append("x86_acpi_suspend_lowlevel")
        self._do_suspend_lowlevel(target)

    def _do_suspend_lowlevel(self, target: SleepState) -> None:
        self.call_trace.append("do_suspend_lowlevel")
        self._x86_acpi_enter_sleep_state(target)

    def _x86_acpi_enter_sleep_state(self, target: SleepState) -> None:
        """Patched (red in Fig. 6): knows the Sz SLP_TYP encoding."""
        self.call_trace.append("x86_acpi_enter_sleep_state")
        self._acpi_hw_legacy_sleep(target)

    def _acpi_hw_legacy_sleep(self, target: SleepState) -> None:
        """Patched (red in Fig. 6): writes the new PM1 values for zombie."""
        self.call_trace.append("acpi_hw_legacy_sleep")
        self.call_trace.append("acpi_os_prepare_sleep")
        self.call_trace.append("tboot_sleep")
        self.registers.write_sleep(SleepType.for_state(target))
        self.current_state = target
