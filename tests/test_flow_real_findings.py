"""Regression tests for the real findings the whole-program passes
surfaced and the code fixed.

Each test *re-introduces* the defect by patching the real source text in
memory (un-fixing it) and asserts the rule fires with the expected
fingerprint — proving both that the fix is load-bearing for the analysis
and that the rule would catch the regression.  The pristine tree carries
no finding at all (``TestDriver.test_repository_source_tree_is_clean``).
"""

from pathlib import Path

import pytest

from repro.lint import check_sources
from repro.lint.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[1]

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
ALLOCATE_RECHECK = (
    "            chosen = [b for b in chosen if b.buffer_id in self.db\n"
    "                      and not self.db.get(b.buffer_id).allocated]\n"
)
REVOKE_SWAP_RECHECK = (
    "            if (descriptor.buffer_id not in self.db\n"
    "                    or self.db.get(descriptor.buffer_id).user\n"
    "                    != descriptor.user):\n"
    "                continue\n"
)
REPAIR_REQUEUE = (
    "                if store not in self._stores_needing_repair:\n"
    "                    self._stores_needing_repair.append(store)\n"
)
FLUSH_INVALIDATE_REREAD = (
    "                owed = self._pending_invalidate.get(user, {})\n"
    "                remaining = [x for x in owed.get(host, ()) "
    "if x not in ids]\n"
    "                if remaining:\n"
    "                    owed[host] = remaining\n"
    "                else:\n"
    "                    owed.pop(host, None)\n"
    "                if not owed:\n"
    "                    self._pending_invalidate.pop(user, None)\n"
)
HOST_LOST_REREAD = (
    "            if host in self.lost_hosts:\n"
    "                return None\n"
    "            for user, ids in unreached:\n"
)
PROBE_TICK_ORDER = (
    "                if host not in self.lost_hosts:\n"
    "                    if alive:\n"
    "                        self._misses[host] = 0\n"
    "                        continue\n"
    "                    self._misses[host] = self._misses.get(host, 0) + 1\n"
    "                    if self._misses[host] >= self.miss_threshold:\n"
    "                        self.declare_host_lost(host)\n"
    "                elif alive:\n"
    "                    self.declare_host_recovered(host)\n"
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


def _assert_unfix_fires(sources, findings, fp, path_tail, old, new):
    assert fp not in _fingerprints(findings)
    patched = _unfix(sources, path_tail, old, new)
    assert fp in _fingerprints(_patched_findings(patched, fp.split(":")[0]))


class TestInjectedDefects:
    def test_unfixing_gs_reclaim_revalidation_fires_zl010(
            self, real_sources, real_findings):
        _assert_unfix_fires(
            real_sources, real_findings,
            "ZL010:repro.core.controller:"
            "GlobalMemoryController.gs_reclaim:leases",
            "core/controller.py", GS_RECLAIM_GUARD, "")

    def test_unfixing_declare_host_lost_revalidation_fires_zl010(
            self, real_sources, real_findings):
        _assert_unfix_fires(
            real_sources, real_findings,
            "ZL010:repro.core.recovery:"
            "RecoveryCoordinator.declare_host_lost:leases",
            "core/recovery.py", HOST_LOST_GUARD, "")

    def test_unfixing_try_resync_reread_fires_zl010(self, real_sources,
                                                    real_findings):
        _assert_unfix_fires(
            real_sources, real_findings,
            "ZL010:repro.core.recovery:"
            "RecoveryCoordinator._try_resync:recovery",
            "core/recovery.py", RESYNC_REREAD,
            "        del self._pending_resync[host]\n")

    def test_unfixing_allocate_recheck_fires_zl010(self, real_sources,
                                                   real_findings):
        _assert_unfix_fires(
            real_sources, real_findings,
            "ZL010:repro.core.controller:"
            "GlobalMemoryController._allocate:leases",
            "core/controller.py", ALLOCATE_RECHECK, "")

    def test_unfixing_revoke_swap_recheck_fires_zl010(self, real_sources,
                                                      real_findings):
        _assert_unfix_fires(
            real_sources, real_findings,
            "ZL010:repro.core.controller:"
            "GlobalMemoryController._revoke_swap_from_users:leases",
            "core/controller.py", REVOKE_SWAP_RECHECK, "")

    def test_unfixing_repair_requeue_check_fires_zl010(self, real_sources,
                                                       real_findings):
        _assert_unfix_fires(
            real_sources, real_findings,
            "ZL010:repro.core.manager:"
            "RemoteMemoryManager.repair_stores:leases",
            "core/manager.py", REPAIR_REQUEUE,
            "                self._stores_needing_repair.append(store)\n")

    def test_unfixing_flush_invalidates_reread_fires_zl010(
            self, real_sources, real_findings):
        # The bug: dropping the whole (user, host) key after the round
        # trip loses ids a recovery owed meanwhile.
        _assert_unfix_fires(
            real_sources, real_findings,
            "ZL010:repro.core.recovery:"
            "RecoveryCoordinator._flush_pending_invalidates:recovery",
            "core/recovery.py", FLUSH_INVALIDATE_REREAD,
            "                del self._pending_invalidate[user][host]\n"
            "                if not self._pending_invalidate[user]:\n"
            "                    del self._pending_invalidate[user]\n")

    def test_unfixing_declare_host_lost_reread_fires_zl010(
            self, real_sources, real_findings):
        _assert_unfix_fires(
            real_sources, real_findings,
            "ZL010:repro.core.recovery:"
            "RecoveryCoordinator.declare_host_lost:recovery",
            "core/recovery.py", HOST_LOST_REREAD,
            "            for user, ids in unreached:\n")

    def test_restoring_probe_tick_branch_order_fires_zl010(
            self, real_sources, real_findings):
        # The old order put the healed-host resync (a round trip) before
        # the miss-count writes: path-insensitively, a stale straddle.
        _assert_unfix_fires(
            real_sources, real_findings,
            "ZL010:repro.core.recovery:RecoveryCoordinator.probe_tick:"
            "recovery",
            "core/recovery.py", PROBE_TICK_ORDER,
            "                if host in self.lost_hosts:\n"
            "                    if alive:\n"
            "                        self.declare_host_recovered(host)\n"
            "                    continue\n"
            "                if alive:\n"
            "                    self._misses[host] = 0\n"
            "                    continue\n"
            "                self._misses[host] = (\n"
            "                    self._misses.get(host, 0) + 1)\n"
            "                if self._misses[host] >= self.miss_threshold:\n"
            "                    self.declare_host_lost(host)\n")

    def test_dropping_verb_errors_declaration_fires_zl011(self, real_sources,
                                                          real_findings):
        # AllocationError is declared in the GS_alloc_ext row; emptying
        # its errors cell must surface the escape again.
        _assert_unfix_fires(
            real_sources, real_findings,
            "ZL011:GS_alloc_ext:AllocationError",
            "core/protocol.py",
            '("GS_alloc_ext", "dedup_required",\n'
            '                    ("AllocationError", "BufferError_", '
            '"ControllerError"))',
            '("GS_alloc_ext", "dedup_required", ())')


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
    """The accepted-findings list is empty by construction: no baseline
    file is checked in, the CLI takes no option to read or write one, and
    the pristine tree has nothing such a file would have to hold."""

    def test_checked_in_baseline_matches_pristine_tree(self, real_findings,
                                                       capsys):
        assert not (REPO_ROOT / "flow_baseline.json").exists()
        for option in ("--baseline", "--no-baseline", "--regen"):
            with pytest.raises(SystemExit) as exc:
                main(["src", option])
            assert exc.value.code == 2
            assert option in capsys.readouterr().err
        assert real_findings == [], "\n".join(map(str, real_findings))

    def test_tree_is_dimensionally_clean(self, real_findings):
        # ZomDim found no real unit bugs left standing: the energy model
        # is dimension-sound.
        assert [f for f in real_findings
                if f.rule in ("ZL012", "ZL013", "ZL014")] == []
