"""ACPI global sleep states, extended with the zombie (Sz) state.

The paper's Sz is "a kind of S3 in which the RAM and the circuitry from the
Infiniband card to the RAM are kept functioning": the CPU is dead, the memory
stays in *active idle* (not the S3 self-refresh mode), and the RDMA path
serves one-sided reads/writes without CPU intervention.
"""

from __future__ import annotations

import enum


class SleepState(enum.Enum):
    """Global ACPI S-states, ordered roughly by depth."""

    S0 = "S0"  # working
    S3 = "S3"  # suspend-to-RAM
    S4 = "S4"  # suspend-to-disk
    S5 = "S5"  # soft off
    SZ = "Sz"  # zombie: CPU-dead, memory-alive, remotely accessible

    @property
    def cpu_alive(self) -> bool:
        """Whether the CPU executes instructions in this state."""
        return self is SleepState.S0

    @property
    def memory_remotely_accessible(self) -> bool:
        """Whether remote RDMA access to DRAM works in this state.

        This is the defining property of Sz: S3 retains memory content but
        self-refresh DRAM cannot serve RDMA requests, and the NIC-to-memory
        path is powered down.
        """
        return self in (SleepState.S0, SleepState.SZ)

    @property
    def wake_latency_s(self) -> float:
        """Typical resume-to-S0 latency, in seconds.

        Sz resumes like S3 (the board state is the same except the memory
        and NIC domains, which are already up).  S4 must restore from disk and
        S5 is a cold boot.
        """
        return _WAKE_LATENCY[self]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_WAKE_LATENCY = {
    SleepState.S0: 0.0,
    SleepState.S3: 3.0,
    SleepState.SZ: 3.0,
    SleepState.S4: 30.0,
    SleepState.S5: 120.0,
}

#: The sysfs keyword introduced by the paper's kernel patch (Fig. 6, line 1).
SYSFS_KEYWORDS = {
    "mem": SleepState.S3,
    "disk": SleepState.S4,
    "off": SleepState.S5,
    "zom": SleepState.SZ,
}
