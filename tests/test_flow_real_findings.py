"""Regression tests for the real findings ZomFlow surfaced and this
change fixed.

Each test *re-introduces* the defect by patching the real source text in
memory (un-fixing it) and asserts the rule fires with the expected
fingerprint — proving both that the fix is load-bearing for the analysis
and that the rule would catch the regression.  The pristine tree must
NOT carry these fingerprints, and the checked-in baseline must match the
pristine tree exactly (the flowcheck CI job's contract).
"""

from pathlib import Path

import pytest

from repro.flow import (analyze_sources, diff_against_baseline,
                        load_baseline, load_sources)
from repro.flow.purity import RANDOM_ALLOWED, WALL_CLOCK_CALLS
from repro.lint.rules import _RANDOM_ALLOWED, _WALL_CLOCK_CALLS

GS_RECLAIM_GUARD = (
    "            if descriptor.buffer_id not in self.db:\n"
    "                continue\n"
)
HOST_LOST_GUARD = (
    "                if descriptor.buffer_id not in controller.db:\n"
    "                    continue\n"
)
RESYNC_REREAD = (
    "        owed = self._pending_resync.get(host)\n"
    "        if owed is None:\n"
    "            return\n"
    "        remaining = [x for x in owed if x not in stale]\n"
    "        if remaining:\n"
    "            self._pending_resync[host] = remaining\n"
    "        else:\n"
    "            del self._pending_resync[host]\n"
)


@pytest.fixture(scope="module")
def real_sources():
    return load_sources(["src"])


def _fingerprints(sources, rules=None):
    return {f.fingerprint for f in analyze_sources(sources, rules=rules)}


def _unfix(sources, path_tail, old, new):
    patched = dict(sources)
    target = next(p for p in patched if str(p).endswith(path_tail))
    assert old in patched[target], f"expected fixed code in {path_tail}"
    patched[target] = patched[target].replace(old, new)
    return patched


class TestInjectedDefects:
    def test_unfixing_gs_reclaim_revalidation_fires_zl010(self,
                                                          real_sources):
        fp = ("ZL010:repro.core.controller:"
              "GlobalMemoryController.gs_reclaim:leases")
        assert fp not in _fingerprints(real_sources, rules=["ZL010"])
        patched = _unfix(real_sources, "core/controller.py",
                         GS_RECLAIM_GUARD, "")
        assert fp in _fingerprints(patched, rules=["ZL010"])

    def test_unfixing_declare_host_lost_revalidation_fires_zl010(
            self, real_sources):
        fp = ("ZL010:repro.core.recovery:"
              "RecoveryCoordinator.declare_host_lost:leases")
        assert fp not in _fingerprints(real_sources, rules=["ZL010"])
        patched = _unfix(real_sources, "core/recovery.py",
                         HOST_LOST_GUARD, "")
        assert fp in _fingerprints(patched, rules=["ZL010"])

    def test_unfixing_try_resync_reread_fires_zl010(self, real_sources):
        fp = ("ZL010:repro.core.recovery:"
              "RecoveryCoordinator._try_resync:recovery")
        assert fp not in _fingerprints(real_sources, rules=["ZL010"])
        patched = _unfix(real_sources, "core/recovery.py", RESYNC_REREAD,
                         "        del self._pending_resync[host]\n")
        assert fp in _fingerprints(patched, rules=["ZL010"])

    def test_dropping_verb_errors_declaration_fires_zl011(self,
                                                          real_sources):
        # AllocationError is declared in the GS_alloc_ext row; emptying
        # its errors cell must surface the escape again.
        fp = "ZL011:GS_alloc_ext:AllocationError"
        assert fp not in _fingerprints(real_sources, rules=["ZL011"])
        patched = _unfix(
            real_sources, "core/protocol.py",
            '("GS_alloc_ext", "dedup_required", ("AllocationError",))',
            '("GS_alloc_ext", "dedup_required", ())')
        assert fp in _fingerprints(patched, rules=["ZL011"])


class TestUnitMutations:
    """ZomDim acceptance: the two seeded unit mutations from the issue
    (watts-for-joules in the meter, dropped PAGE_SIZE conversion in the
    rack monitor) must be detected with a full inference chain naming
    source and sink."""

    def test_watts_for_joules_swap_in_meter_fires_zl012(self,
                                                        real_sources):
        fp = ("ZL012:repro.energy.meter:"
              "EnergyMeter.accumulate:aug:joules:watts")
        assert fp not in _fingerprints(real_sources, rules=["ZL012"])
        patched = _unfix(
            real_sources, "energy/meter.py",
            "self._joules += watts_x_seconds(power_watts, duration_s)",
            "self._joules += power_watts")
        findings = [f for f in analyze_sources(patched, rules=["ZL012"])
                    if f.fingerprint == fp]
        assert len(findings) == 1
        # Full inference chain: sink (the joules accumulator) and source
        # (the watts parameter) both named.
        assert "'._joules'" in findings[0].message
        assert "parameter 'power_watts'" in findings[0].message

    def test_dropped_page_size_conversion_fires_zl014(self, real_sources):
        fp = ("ZL014:repro.energy.rack_monitor:"
              "RackEnergyMonitor._publish_memory_gauges:"
              "host_memory_bytes:frames")
        assert fp not in _fingerprints(real_sources, rules=["ZL014"])
        patched = _unfix(
            real_sources, "energy/rack_monitor.py",
            ").set(pages_to_bytes(server.allocator.total_frames))",
            ").set(server.allocator.total_frames)")
        findings = [f for f in analyze_sources(patched, rules=["ZL014"])
                    if f.fingerprint == fp]
        assert len(findings) == 1
        assert "host_memory_bytes" in findings[0].message
        assert "'.total_frames'" in findings[0].message

    def test_dropped_conversion_in_host_samples_fires_zl012(self,
                                                            real_sources):
        fp = ("ZL012:repro.energy.rack_monitor:"
              "RackEnergyMonitor.host_samples:"
              "kwarg:capacity_bytes:bytes:frames")
        assert fp not in _fingerprints(real_sources, rules=["ZL012"])
        patched = _unfix(
            real_sources, "energy/rack_monitor.py",
            "capacity_bytes=pages_to_bytes(server.allocator.total_frames)",
            "capacity_bytes=server.allocator.total_frames")
        assert fp in _fingerprints(patched, rules=["ZL012"])


class TestBaselineParity:
    def test_checked_in_baseline_matches_pristine_tree(self, real_sources):
        baseline = load_baseline(Path("flow_baseline.json"))
        findings = analyze_sources(real_sources)
        new, _, burned = diff_against_baseline(findings, baseline)
        assert new == [], "new flow findings not in baseline:\n" + "\n".join(
            str(f) for f in new)
        assert burned == [], ("baseline entries no longer fire; ratchet "
                              "down with: python -m repro.flow src --regen")

    def test_baseline_has_no_zl009_debt(self, real_sources):
        # The tree is sim-pure today; ZL009 debt must never be baselined
        # silently.
        baseline = load_baseline(Path("flow_baseline.json"))
        assert not [fp for fp in baseline if fp.startswith("ZL009")]

    def test_tree_is_dimensionally_clean(self, real_sources):
        # ZomDim found no real unit bugs left standing, and none may be
        # baselined as debt: the energy model is dimension-sound.
        assert _fingerprints(real_sources,
                             rules=["ZL012", "ZL013", "ZL014"]) == set()
        baseline = load_baseline(Path("flow_baseline.json"))
        assert not [fp for fp in baseline
                    if fp.startswith(("ZL012", "ZL013", "ZL014"))]


class TestRuleTableCoherence:
    def test_flow_source_sets_match_lint(self):
        # ZL009 subsumes ZL001/ZL002: both layers must agree on what a
        # wall-clock read and a global random draw are.
        assert WALL_CLOCK_CALLS == _WALL_CLOCK_CALLS
        assert RANDOM_ALLOWED == _RANDOM_ALLOWED
