"""Power rails, power domains, and the board power plane.

The paper's whole disaggregation premise is one hardware change: *the CPU and
memory power-supply domains become independent*, so the memory rails (plus
the NIC-to-memory path) can stay energised while everything else follows the
S3 shutdown sequence.  This module models that board-level wiring:

- a :class:`PowerRail` is one switchable supply line with a draw in watts;
- a :class:`PowerDomain` groups rails that switch together (what the paper
  calls a "power supply domain");
- a :class:`PowerPlane` is the whole board: the set of domains plus the
  control signaling used by the firmware sequencer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.errors import ConfigurationError


@dataclass
class PowerRail:
    """A single switchable supply rail."""

    name: str
    draw_watts: float
    on: bool = True

    def power_draw(self) -> float:
        """Instantaneous draw of this rail in watts."""
        return self.draw_watts if self.on else 0.0


class PowerDomain:
    """A named group of rails that are switched as a unit.

    Domains expose the "additional switches and control signaling" the paper
    says Sz requires: each domain can be energised or cut independently.
    """

    def __init__(self, name: str, rails: Iterable[PowerRail]):
        self.name = name
        self.rails: List[PowerRail] = list(rails)
        if not self.rails:
            raise ConfigurationError(f"power domain {name!r} has no rails")

    @property
    def energised(self) -> bool:
        """True when every rail in the domain is on."""
        return all(rail.on for rail in self.rails)

    def switch(self, on: bool) -> None:
        """Switch every rail in the domain."""
        for rail in self.rails:
            rail.on = on

    def power_draw(self) -> float:
        return sum(rail.power_draw() for rail in self.rails)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.energised else "off"
        return f"PowerDomain({self.name!r}, {state}, {self.power_draw():.1f} W)"


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

    def switch(self, name: str, on: bool) -> None:
        self.domain(name).switch(on)

    def power_draw(self) -> float:
        """Total board draw in watts.

        A domain registered under several names (legacy shared CPU+memory
        supply) is counted once.
        """
        seen = set()
        total = 0.0
        for domain in self.domains.values():
            if id(domain) in seen:
                continue
            seen.add(id(domain))
            total += domain.power_draw()
        return total

    @property
    def split_cpu_memory(self) -> bool:
        """Whether CPU and memory are on *independent* power domains.

        This is the single hardware prerequisite for Sz.  Legacy boards model
        the shared supply by putting CPU and memory rails in one domain, in
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
