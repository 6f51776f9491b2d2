"""Regression tests for the real findings the whole-program passes
surfaced and this change fixed.

Each test *re-introduces* the defect by patching the real source text in
memory (un-fixing it) and asserts the rule fires with the expected
fingerprint — proving both that the fix is load-bearing for the analysis
and that the rule would catch the regression.  The pristine tree must
NOT carry these fingerprints, and the checked-in baseline must match the
pristine tree exactly (the flowcheck CI job's contract).
"""

from pathlib import Path

from repro.lint import check_sources
from repro.lint.baseline import diff_against_baseline, load_baseline

BASELINE = Path(__file__).resolve().parents[1] / "flow_baseline.json"

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


def _fingerprints(findings):
    return {f.fingerprint for f in findings}


def _patched_findings(sources, rule):
    return check_sources(sources, rules=[rule])[0]


def _unfix(sources, path_tail, old, new):
    patched = dict(sources)
    target = next(p for p in patched if str(p).endswith(path_tail))
    assert old in patched[target], f"expected fixed code in {path_tail}"
    patched[target] = patched[target].replace(old, new)
    return patched


class TestInjectedDefects:
    def test_unfixing_gs_reclaim_revalidation_fires_zl010(
            self, real_sources, real_findings):
        fp = ("ZL010:repro.core.controller:"
              "GlobalMemoryController.gs_reclaim:leases")
        assert fp not in _fingerprints(real_findings)
        patched = _unfix(real_sources, "core/controller.py",
                         GS_RECLAIM_GUARD, "")
        assert fp in _fingerprints(_patched_findings(patched, "ZL010"))

    def test_unfixing_declare_host_lost_revalidation_fires_zl010(
            self, real_sources, real_findings):
        fp = ("ZL010:repro.core.recovery:"
              "RecoveryCoordinator.declare_host_lost:leases")
        assert fp not in _fingerprints(real_findings)
        patched = _unfix(real_sources, "core/recovery.py",
                         HOST_LOST_GUARD, "")
        assert fp in _fingerprints(_patched_findings(patched, "ZL010"))

    def test_unfixing_try_resync_reread_fires_zl010(self, real_sources,
                                                    real_findings):
        fp = ("ZL010:repro.core.recovery:"
              "RecoveryCoordinator._try_resync:recovery")
        assert fp not in _fingerprints(real_findings)
        patched = _unfix(real_sources, "core/recovery.py", RESYNC_REREAD,
                         "        del self._pending_resync[host]\n")
        assert fp in _fingerprints(_patched_findings(patched, "ZL010"))

    def test_dropping_verb_errors_declaration_fires_zl011(self, real_sources,
                                                          real_findings):
        # AllocationError is declared in the GS_alloc_ext row; emptying
        # its errors cell must surface the escape again.
        fp = "ZL011:GS_alloc_ext:AllocationError"
        assert fp not in _fingerprints(real_findings)
        patched = _unfix(
            real_sources, "core/protocol.py",
            '("GS_alloc_ext", "dedup_required", ("AllocationError",))',
            '("GS_alloc_ext", "dedup_required", ())')
        assert fp in _fingerprints(_patched_findings(patched, "ZL011"))


class TestUnitMutations:
    """ZomDim acceptance: the two seeded unit mutations from the issue
    (watts-for-joules in the meter, dropped PAGE_SIZE conversion in the
    rack monitor) must be detected with a full inference chain naming
    source and sink."""

    def test_watts_for_joules_swap_in_meter_fires_zl012(self, real_sources,
                                                        real_findings):
        fp = ("ZL012:repro.energy.meter:"
              "EnergyMeter.accumulate:aug:joules:watts")
        assert fp not in _fingerprints(real_findings)
        patched = _unfix(
            real_sources, "energy/meter.py",
            "self._joules += watts_x_seconds(power_watts, duration_s)",
            "self._joules += power_watts")
        findings = [f for f in _patched_findings(patched, "ZL012")
                    if f.fingerprint == fp]
        assert len(findings) == 1
        # Full inference chain: sink (the joules accumulator) and source
        # (the watts parameter) both named.
        assert "'._joules'" in findings[0].message
        assert "parameter 'power_watts'" in findings[0].message

    def test_dropped_page_size_conversion_fires_zl014(self, real_sources,
                                                      real_findings):
        fp = ("ZL014:repro.energy.rack_monitor:"
              "RackEnergyMonitor._publish_memory_gauges:"
              "host_memory_bytes:frames")
        assert fp not in _fingerprints(real_findings)
        patched = _unfix(
            real_sources, "energy/rack_monitor.py",
            ").set(pages_to_bytes(server.allocator.total_frames))",
            ").set(server.allocator.total_frames)")
        findings = [f for f in _patched_findings(patched, "ZL014")
                    if f.fingerprint == fp]
        assert len(findings) == 1
        assert "host_memory_bytes" in findings[0].message
        assert "'.total_frames'" in findings[0].message

    def test_dropped_conversion_in_host_samples_fires_zl012(
            self, real_sources, real_findings):
        fp = ("ZL012:repro.energy.rack_monitor:"
              "RackEnergyMonitor.host_samples:"
              "kwarg:capacity_bytes:bytes:frames")
        assert fp not in _fingerprints(real_findings)
        patched = _unfix(
            real_sources, "energy/rack_monitor.py",
            "capacity_bytes=pages_to_bytes(server.allocator.total_frames)",
            "capacity_bytes=server.allocator.total_frames")
        assert fp in _fingerprints(_patched_findings(patched, "ZL012"))


class TestBaselineParity:
    def test_checked_in_baseline_matches_pristine_tree(self, real_findings):
        new, _, burned = diff_against_baseline(real_findings,
                                               load_baseline(BASELINE))
        assert new == [], "new findings not in baseline:\n" + "\n".join(
            str(f) for f in new)
        assert burned == [], ("baseline entries no longer fire; ratchet "
                              "down with: python -m repro.lint src --regen")

    def test_baseline_holds_only_zl010_and_zl011_debt(self):
        # The ratchet covers every rule, so a --regen could baseline any
        # finding; the named race and error-contract debt is all it may
        # hold.
        baseline = load_baseline(BASELINE)
        assert baseline
        assert [fp for fp in baseline
                if not fp.startswith(("ZL010:", "ZL011:"))] == []

    def test_tree_is_dimensionally_clean(self, real_findings):
        # ZomDim found no real unit bugs left standing: the energy model
        # is dimension-sound.
        assert [f for f in real_findings
                if f.rule in ("ZL012", "ZL013", "ZL014")] == []
