"""Pytest integration: ``pytest --memsan`` runs the whole suite sanitized.

When the flag is given, one :class:`~repro.sanitize.memsan.MemorySanitizer`
is installed for the session.  An autouse fixture drains findings after
every test and fails the test that produced them (so a violation is pinned
to the test that triggered it, not discovered at the end); session finish
garbage-collects and prints a leak report of page stores still holding
leases and of rack servers whose allocator disagrees with their lent buffers
and VMs, failing the run if any exist.

Without ``--memsan`` the plugin is inert — zero patching, zero overhead.
"""

from __future__ import annotations

import gc
from typing import Optional

import pytest

from repro.sanitize.memsan import MemorySanitizer


def get_session_sanitizer(config) -> Optional[MemorySanitizer]:
    """The session-wide sanitizer, or None when ``--memsan`` is off.

    Tests that install their own sanitizer (the injected-defect suite)
    must reuse this one when it is active — stacking two installs would
    double-report every finding.
    """
    return getattr(config, "_memsan", None)


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--memsan", action="store_true", default=False,
        help="run the suite under the MemSan shadow-state sanitizer "
             "(fails tests that trigger silent memory-safety violations; "
             "reports leaked buffer leases and frames at end of session)")


def pytest_configure(config) -> None:
    if config.getoption("--memsan"):
        config._memsan = MemorySanitizer().install()


@pytest.fixture(autouse=True)
def _memsan_drain(request):
    """Fail any test that left MemSan findings behind."""
    yield
    sanitizer = get_session_sanitizer(request.config)
    if sanitizer is None:
        return
    findings = sanitizer.drain_findings()
    if findings:
        lines = "\n".join(f"  {f}" for f in findings)
        pytest.fail(
            f"MemSan: {len(findings)} shadow-state violation(s):\n{lines}",
            pytrace=False)


def pytest_sessionfinish(session, exitstatus) -> None:
    sanitizer = get_session_sanitizer(session.config)
    if sanitizer is None:
        return
    # Collect first so stores owned by dead fixtures do not count: a leak
    # is a *reachable* store still holding leases.
    gc.collect()
    leaks = sanitizer.leak_report() + sanitizer.frame_leak_report()
    session.config._memsan_leaks = leaks
    if leaks:
        session.exitstatus = 1
    sanitizer.uninstall()


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    sanitizer = get_session_sanitizer(config)
    if sanitizer is None:
        return
    leaks = getattr(config, "_memsan_leaks", [])
    if leaks:
        terminalreporter.section("MemSan leak report")
        for leak in leaks:
            terminalreporter.write_line(f"  LEAK: {leak}")
    else:
        terminalreporter.write_line(
            "MemSan: no shadow-state violations, no leaked leases or frames")
