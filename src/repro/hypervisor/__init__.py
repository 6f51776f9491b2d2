"""The modified-KVM hypervisor layer.

- :mod:`~repro.hypervisor.vm` — VM specifications and lifecycle;
- :mod:`~repro.hypervisor.kvm` — the fault handler implementing *RAM Ext*:
  hypervisor paging between local frames and remote buffers;
- :mod:`~repro.hypervisor.explicit_sd` — the *Explicit SD* path: a guest
  -visible swap device (split-driver model) backed by remote RAM or local
  storage;
- :mod:`~repro.hypervisor.migration` — native pre-copy live migration vs.
  the ZombieStack hot-pages-only protocol.
"""

from repro.hypervisor.vm import AccessStats, Vm, VmSpec, VmState
from repro.hypervisor.kvm import Hypervisor
from repro.hypervisor.explicit_sd import ExplicitSdVm
from repro.hypervisor.split_driver import SplitDriverSwap
from repro.hypervisor.migration import (MigrationResult, migrate_native,
                                        migrate_zombiestack)

__all__ = [
    "Vm", "VmSpec", "VmState", "Hypervisor", "AccessStats", "ExplicitSdVm",
    "SplitDriverSwap",
    "MigrationResult", "migrate_native", "migrate_zombiestack",
]
