"""Power domains and the board plane."""

import pytest

from repro.acpi.power import (CPU_DOMAIN, MEMORY_DOMAIN, PowerDomain,
                              PowerPlane)
from repro.errors import ConfigurationError


def _plane(split=True):
    plane = PowerPlane()
    if split:
        plane.add_domain(PowerDomain(CPU_DOMAIN))
        plane.add_domain(PowerDomain(MEMORY_DOMAIN))
    else:
        shared = PowerDomain(CPU_DOMAIN)
        plane.add_domain(shared)
        plane.domains[MEMORY_DOMAIN] = shared
    return plane


class TestPowerPlane:
    def test_split_detection(self):
        assert _plane(split=True).split_cpu_memory
        assert not _plane(split=False).split_cpu_memory

    def test_duplicate_domain_rejected(self):
        plane = _plane()
        with pytest.raises(ConfigurationError):
            plane.add_domain(PowerDomain(CPU_DOMAIN))

    def test_unknown_domain_lookup(self):
        with pytest.raises(ConfigurationError):
            _plane().domain("nonexistent")

    def test_report_reflects_switching(self):
        plane = _plane()
        plane.domain(CPU_DOMAIN).energised = False
        report = plane.report()
        assert report[CPU_DOMAIN] is False
        assert report[MEMORY_DOMAIN] is True
        plane.domain(CPU_DOMAIN).energised = True
        assert plane.report()[CPU_DOMAIN] is True

    def test_independent_switching_is_the_sz_prerequisite(self):
        plane = _plane(split=True)
        plane.domain(CPU_DOMAIN).energised = False
        assert plane.domain(MEMORY_DOMAIN).energised
