"""Power domains and the board power plane.

The paper's whole disaggregation premise is one hardware change: *the CPU and
memory power-supply domains become independent*, so the memory (plus the
NIC-to-memory path) can stay energised while everything else follows the
S3 shutdown sequence.  This module models that board-level wiring:

- a :class:`PowerDomain` is one supply the firmware switches as a unit
  (what the paper calls a "power supply domain");
- a :class:`PowerPlane` is the whole board: the set of domains plus the
  control signaling used by the firmware sequencer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigurationError


class PowerDomain:
    """A named supply the firmware energises or cuts independently.

    Domains expose the "additional switches and control signaling" the paper
    says Sz requires.
    """

    def __init__(self, name: str):
        self.name = name
        self.energised = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.energised else "off"
        return f"PowerDomain({self.name!r}, {state})"


#: Canonical domain names used by the platform builder and firmware.
CPU_DOMAIN = "cpu"
MEMORY_DOMAIN = "memory"
NIC_DOMAIN = "nic"
STORAGE_DOMAIN = "storage"
PERIPHERAL_DOMAIN = "peripheral"
STANDBY_DOMAIN = "standby"  # always-on: PM logic, WoL standby power


@dataclass
class PowerPlane:
    """The full board power plane: all domains plus state-report signals."""

    domains: Dict[str, PowerDomain] = field(default_factory=dict)

    def add_domain(self, domain: PowerDomain) -> None:
        if domain.name in self.domains:
            raise ConfigurationError(f"duplicate power domain {domain.name!r}")
        self.domains[domain.name] = domain

    def domain(self, name: str) -> PowerDomain:
        try:
            return self.domains[name]
        except KeyError:
            raise ConfigurationError(f"unknown power domain {name!r}") from None

    @property
    def split_cpu_memory(self) -> bool:
        """Whether CPU and memory are on *independent* power domains.

        This is the single hardware prerequisite for Sz.  Legacy boards model
        the shared supply by registering one domain under both names, in
        which case this property is False and Sz entry must be refused.
        """
        return (
            CPU_DOMAIN in self.domains
            and MEMORY_DOMAIN in self.domains
            and self.domains[CPU_DOMAIN] is not self.domains[MEMORY_DOMAIN]
        )

    def report(self) -> Dict[str, bool]:
        """State-report signals: domain name → energised."""
        return {name: dom.energised for name, dom in self.domains.items()}
