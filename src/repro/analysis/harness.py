"""Scaled-down but fully wired experiment environments.

The paper's testbed is a 4-machine rack with 16 GiB servers and a 7 GiB VM;
simulating every 4 KiB page of that in Python is pointless, so the harness
scales the *sizes* down (default: the VM has a few thousand pages) while
keeping every ratio the experiments sweep — local fraction, WSS fraction,
buffer granularity — identical.  All timing constants are unscaled, so
results are reported in real (simulated) seconds.
"""

from __future__ import annotations

from typing import Optional

from repro.core.rack import Rack
from repro.errors import ConfigurationError
from repro.hypervisor.explicit_sd import ExplicitSdVm
from repro.hypervisor.split_driver import SplitDriverSwap
from repro.hypervisor.vm import Vm, VmSpec
from repro.memory.swap import HddSwap, SsdSwap, SwapDevice
from repro.units import PAGE_SIZE
from repro.workloads.driver import WorkloadResult, run_stream


def _rack_for(vm_pages: int, buff_pages: int) -> Rack:
    """A user + zombie rack big enough for a ``vm_pages`` VM.

    The zombie's memory comfortably covers the VM's worst-case remote
    share; the user server holds the VM plus the host reserve.
    """
    server_bytes = vm_pages * PAGE_SIZE * 4
    return Rack(["user", "zombie"], memory_bytes=server_bytes,
                buff_size=buff_pages * PAGE_SIZE)


class RamExtHarness:
    """One RAM-Ext VM on a user server, remote memory on a zombie."""

    def __init__(self, vm_pages: int, local_fraction: float,
                 policy: str = "Mixed", buff_pages: int = 256,
                 **policy_kwargs):
        if not 0.0 < local_fraction <= 1.0:
            raise ConfigurationError(
                f"local_fraction out of (0,1]: {local_fraction}"
            )
        self.rack = _rack_for(vm_pages, buff_pages)
        self.rack.make_zombie("zombie")
        spec = VmSpec("bench-vm", vm_pages * PAGE_SIZE)
        self.vm: Vm = self.rack.create_vm(
            "user", spec, local_fraction=local_fraction,
            policy=policy, **policy_kwargs
        )
        self.hypervisor = self.rack.server("user").hypervisor

    def run(self, stream, compute_s: float) -> WorkloadResult:
        hv, vm = self.hypervisor, self.vm
        return run_stream(
            stream, lambda ppn, w: hv.access(vm, ppn, w), compute_s
        )

    @property
    def stats(self):
        return self.hypervisor.stats("bench-vm")

    @property
    def policy(self):
        return self.vm.policy


class ExplicitSdHarness:
    """One Explicit-SD VM: smaller guest RAM plus a mounted swap device.

    ``device`` selects the Table 2 backend: ``remote-ram`` (the split
    driver, rack remote memory over RDMA), ``local-ssd`` or ``local-hdd``.
    """

    def __init__(self, vm_pages: int, local_fraction: float,
                 device: str = "remote-ram", policy: str = "Clock",
                 buff_pages: int = 256, **vm_kwargs):
        if not 0.0 < local_fraction <= 1.0:
            raise ConfigurationError(
                f"local_fraction out of (0,1]: {local_fraction}"
            )
        spec = VmSpec("bench-sd-vm", vm_pages * PAGE_SIZE)
        guest_ram = max(PAGE_SIZE, int(vm_pages * local_fraction) * PAGE_SIZE)
        swap_pages = vm_pages  # device sized to the full array (worst case)
        self.rack: Optional[Rack] = None
        if device == "remote-ram":
            self.rack = _rack_for(vm_pages, buff_pages)
            self.rack.make_zombie("zombie")
            swap: SwapDevice = SplitDriverSwap(
                self.rack.server("user").manager, swap_pages)
        elif device == "local-ssd":
            swap = SsdSwap(swap_pages)
        elif device == "local-hdd":
            swap = HddSwap(swap_pages)
        else:
            raise ConfigurationError(f"unknown swap device {device!r}")
        self.device = swap
        self.guest = ExplicitSdVm(spec, guest_ram, swap, policy=policy,
                                  **vm_kwargs)

    def run(self, stream, compute_s: float) -> WorkloadResult:
        guest = self.guest
        return run_stream(stream, guest.access, compute_s)

    @property
    def stats(self):
        return self.guest.stats
