"""Zombieland reproduction: power-domain memory disaggregation.

A full reimplementation (in simulation) of "Welcome to Zombieland:
Practical and Energy-efficient Memory Disaggregation in a Datacenter"
(EuroSys 2018): the Sz ACPI sleep state, RDMA-served rack memory
disaggregation with a mirrored global controller, the RAM Ext / Explicit SD
hypervisor paths, the ZombieStack cloud layer, and every experiment in the
paper's evaluation.

Quick start::

    from repro import Rack, VmSpec, GiB, MiB

    rack = Rack(["user", "spare"], memory_bytes=2 * GiB)
    rack.make_zombie("spare")              # Sz: CPU off, memory served
    vm = rack.create_vm("user", VmSpec("vm0", 512 * MiB),
                        local_fraction=0.5)

Subpackages: :mod:`repro.acpi` (Sz state), :mod:`repro.rdma` (fabric),
:mod:`repro.memory` (paging), :mod:`repro.hypervisor` (RAM Ext /
Explicit SD / migration), :mod:`repro.core` (the rack protocol),
:mod:`repro.cloud` (the ZombieStack orchestrator), :mod:`repro.energy`,
:mod:`repro.traces`, :mod:`repro.dc`, :mod:`repro.workloads`,
:mod:`repro.analysis`.
"""

from repro.acpi import SleepState, ServerPlatform, build_platform
from repro.core import Rack, GlobalMemoryController, RemoteMemoryManager
from repro.energy import HP_PROFILE, DELL_PROFILE, estimate_sz_fraction
from repro.hypervisor import Hypervisor, Vm, VmSpec
from repro.rdma import Fabric
from repro.units import GiB, KiB, MiB, PAGE_SIZE

__version__ = "1.0.0"

__all__ = [
    "SleepState", "ServerPlatform", "build_platform",
    "Rack", "GlobalMemoryController", "RemoteMemoryManager",
    "HP_PROFILE", "DELL_PROFILE", "estimate_sz_fraction",
    "Hypervisor", "Vm", "VmSpec", "Fabric",
    "GiB", "KiB", "MiB", "PAGE_SIZE",
    "__version__",
]
