"""Power rails, domains and the board plane."""

import pytest

from repro.acpi.power import (CPU_DOMAIN, MEMORY_DOMAIN, PowerDomain,
                              PowerPlane, PowerRail)
from repro.errors import ConfigurationError


def _plane(split=True):
    plane = PowerPlane()
    if split:
        plane.add_domain(PowerDomain(CPU_DOMAIN, [PowerRail("vcore", 4.0)]))
        plane.add_domain(PowerDomain(MEMORY_DOMAIN, [PowerRail("vdimm", 1.0)]))
    else:
        shared = PowerDomain(CPU_DOMAIN, [PowerRail("shared", 5.0)])
        plane.add_domain(shared)
        plane.domains[MEMORY_DOMAIN] = shared
    return plane


class TestPowerRail:
    def test_draw_when_on(self):
        assert PowerRail("r", 3.5).power_draw() == 3.5

    def test_no_draw_when_off(self):
        rail = PowerRail("r", 3.5)
        rail.on = False
        assert rail.power_draw() == 0.0


class TestPowerDomain:
    def test_switch_affects_all_rails(self):
        domain = PowerDomain("d", [PowerRail("a", 1.0), PowerRail("b", 2.0)])
        domain.switch(False)
        assert not domain.energised
        assert domain.power_draw() == 0.0
        domain.switch(True)
        assert domain.energised
        assert domain.power_draw() == 3.0

    def test_empty_domain_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerDomain("empty", [])


class TestPowerPlane:
    def test_split_detection(self):
        assert _plane(split=True).split_cpu_memory
        assert not _plane(split=False).split_cpu_memory

    def test_shared_domain_counted_once_in_power(self):
        plane = _plane(split=False)
        assert plane.power_draw() == 5.0

    def test_duplicate_domain_rejected(self):
        plane = _plane()
        with pytest.raises(ConfigurationError):
            plane.add_domain(PowerDomain(CPU_DOMAIN, [PowerRail("x", 1.0)]))

    def test_unknown_domain_lookup(self):
        with pytest.raises(ConfigurationError):
            _plane().domain("nonexistent")

    def test_report_reflects_switching(self):
        plane = _plane()
        plane.switch(CPU_DOMAIN, False)
        report = plane.report()
        assert report[CPU_DOMAIN] is False
        assert report[MEMORY_DOMAIN] is True

    def test_independent_switching_is_the_sz_prerequisite(self):
        plane = _plane(split=True)
        plane.switch(CPU_DOMAIN, False)
        assert plane.domain(MEMORY_DOMAIN).energised
