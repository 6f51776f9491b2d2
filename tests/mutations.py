"""One table of text mutations: each row proves that one check is live.

A row names a defect, the edits that put it into the real tree and the
witness that must catch it.  An edit is ``(path, old, new)`` with a
repo-relative ``path``; ``old`` must occur exactly once in its file, so an
addition is anchored on a unique line.  The witness is either

- a :class:`Lint` fingerprint: the patched sources, run through that one
  ZomLint rule in memory, must report it (and the pristine tree must not);
- a tuple of pytest node ids: in a copy of the tree they must pass
  pristine and fail mutated.  The working tree is never edited.

Tier-1 runs every lint row (``tests/test_flow_real_findings.py``) and
checks that every row still matches the tree (``tests/test_mutations.py``).
This script runs every row, or the named ones, and prints one table::

    python tests/mutations.py [NAME ...]

It exits 1 if any row escaped.  A new "this check is live" proof is a new
row here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Sequence, Tuple, Union

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    # Run as a script, the library comes from this checkout (as conftest.py
    # makes it under pytest).
    sys.path.insert(0, str(ROOT / "src"))

from repro.lint import check_sources, load_sources  # noqa: E402
from repro.tables import Table, to_text  # noqa: E402

#: What a test row copies: everything the suite imports or reads, less
#: caches and ZomBench's ``benchmarks/wall/out``.
TREE = ("src", "tests", "examples", "benchmarks", "conftest.py",
        "pyproject.toml")
_NOT_COPIED = shutil.ignore_patterns("__pycache__", ".pytest_cache",
                                     ".hypothesis", "out")

Edit = Tuple[str, str, str]


@dataclass(frozen=True)
class Lint:
    """A finding the mutation must raise; its message names every ``mentions``."""

    fingerprint: str
    mentions: Tuple[str, ...] = ()

    @property
    def rule(self) -> str:
        return self.fingerprint.split(":")[0]


@dataclass(frozen=True)
class Mutation:
    name: str
    witness: Union[Lint, Tuple[str, ...]]
    edits: Tuple[Edit, ...]


def row(name: str, witness: Union[Lint, Tuple[str, ...]],
        *edits: Edit) -> Mutation:
    return Mutation(name, witness, edits)


CONTROLLER = "src/repro/core/controller.py"
DATABASE = "src/repro/core/database.py"
FIRMWARE = "src/repro/acpi/firmware.py"
RECOVERY = "src/repro/core/recovery.py"
RACK_MONITOR = "src/repro/energy/rack_monitor.py"
RPC = "src/repro/rdma/rpc.py"
UNITS = "src/repro/units.py"
REACHABLE = ("tests/test_public_api_reachable.py::"
             "test_every_public_name_is_reached_from_the_program",)
FIELDS_READ = ("tests/test_public_api_reachable.py::"
               "test_every_public_field_is_read",)

GS_RECLAIM_REMOVE = (
    "            self.db.remove(descriptor.buffer_id)\n"
    "            reclaimed.append(descriptor.buffer_id)\n"
)
GS_RECLAIM_GUARD = (
    "            if descriptor.buffer_id not in self.db:\n"
    "                continue\n" + GS_RECLAIM_REMOVE
)
FED_RECALL_REMOVE = (
    "            self.db.remove(descriptor.buffer_id)\n"
    "            dropped.append(descriptor.buffer_id)\n"
)
FED_RECALL_GUARD = (
    "            if descriptor.buffer_id not in self.db:\n"
    "                continue\n" + FED_RECALL_REMOVE
)
HOST_LOST_GUARD = (
    "                if descriptor.buffer_id not in controller.db:\n"
    "                    continue\n"
)
# The owed-work table's two rules: owing is a union, and settling drops
# only the delivered ids.  The bugs: an overwrite (a second loss that owes
# nothing erases the first loss's debt), and dropping the whole key after
# the round trip (ids owed meanwhile are lost).
OWE_UNION = (
    "        owed = self.get((target, subject), [])\n"
    "        owed += [x for x in ids if x not in owed]\n"
    "        if owed:\n"
    "            self[(target, subject)] = owed\n"
)
SETTLE_DELIVERED = (
    "        remaining = [x for x in self.pop((target, subject), ())\n"
    "                     if x not in ids]\n"
    "        if remaining:\n"
    "            self[(target, subject)] = remaining\n"
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
HOST_LOST_REREAD = (
    "            if host in self.lost_hosts:\n"
    "                return None\n"
    "            for user, ids in unreached:\n"
)
OWE_UNREACHED = (
    "                self._owed_invalidations.owe(user, host, ids)\n"
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
# The old order put the healed-host resync (a round trip) before the
# miss-count writes: path-insensitively, a stale straddle.
PROBE_TICK_OLD_ORDER = (
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
    "                    self.declare_host_lost(host)\n"
)

MUTATIONS: Tuple[Mutation, ...] = (
    # ZL010: each re-validation after a round trip the pass once flagged.
    row("gs-reclaim-revalidation",
        Lint("ZL010:repro.core.controller:"
             "GlobalMemoryController.gs_reclaim:leases"),
        (CONTROLLER, GS_RECLAIM_GUARD, GS_RECLAIM_REMOVE)),
    row("fed-recall-revalidation",
        Lint("ZL010:repro.core.controller:"
             "GlobalMemoryController.fed_recall:leases"),
        (CONTROLLER, FED_RECALL_GUARD, FED_RECALL_REMOVE)),
    row("declare-host-lost-revalidation",
        Lint("ZL010:repro.core.recovery:"
             "RecoveryCoordinator.declare_host_lost:leases"),
        (RECOVERY, HOST_LOST_GUARD, "")),
    row("allocate-recheck",
        Lint("ZL010:repro.core.controller:"
             "GlobalMemoryController._allocate:leases"),
        (CONTROLLER, ALLOCATE_RECHECK, "")),
    row("revoke-swap-recheck",
        Lint("ZL010:repro.core.controller:"
             "GlobalMemoryController._revoke_swap_from_users:leases"),
        (CONTROLLER, REVOKE_SWAP_RECHECK, "")),
    row("repair-requeue-check",
        Lint("ZL010:repro.core.manager:"
             "RemoteMemoryManager.repair_stores:leases"),
        ("src/repro/core/manager.py", REPAIR_REQUEUE,
         "                self._stores_needing_repair.append(store)\n")),
    row("declare-host-lost-reread",
        Lint("ZL010:repro.core.recovery:"
             "RecoveryCoordinator.declare_host_lost:recovery"),
        (RECOVERY, HOST_LOST_REREAD, "            for user, ids in unreached:\n")),
    # ZL010 knows OwedWork's writers: owing before the re-read is a write
    # the fan-out made stale.
    row("owe-before-reread",
        Lint("ZL010:repro.core.recovery:"
             "RecoveryCoordinator.declare_host_lost:recovery"),
        (RECOVERY, HOST_LOST_REREAD + OWE_UNREACHED,
         "            for user, ids in unreached:\n" + OWE_UNREACHED
         + "            if host in self.lost_hosts:\n"
         "                return None\n")),
    row("probe-tick-branch-order",
        Lint("ZL010:repro.core.recovery:"
             "RecoveryCoordinator.probe_tick:recovery"),
        (RECOVERY, PROBE_TICK_ORDER, PROBE_TICK_OLD_ORDER)),
    # ZL011: AllocationError is declared in the GS_alloc_ext row; emptying
    # its errors cell must surface the escape again.
    row("verb-errors-cell-emptied",
        Lint("ZL011:GS_alloc_ext:AllocationError"),
        ("src/repro/core/protocol.py",
         '("GS_alloc_ext", "dedup_required",\n'
         '                    ("AllocationError", "BufferError_", '
         '"ControllerError"))',
         '("GS_alloc_ext", "dedup_required", ())')),
    # ZomDim: each finding names its sink and its source.
    row("watts-for-joules",
        Lint("ZL012:repro.energy.meter:EnergyMeter.advance:aug:joules:watts",
             ("'._joules'", "'._power'")),
        ("src/repro/energy/meter.py",
         "delta = watts_x_seconds(self._power, now - self._last_time)",
         "delta = self._power")),
    row("page-size-dropped-in-gauge",
        Lint("ZL014:repro.energy.rack_monitor:"
             "RackEnergyMonitor._publish_memory_gauges:"
             "host_memory_bytes:frames",
             ("host_memory_bytes", "'.total_frames'")),
        (RACK_MONITOR, ").set(pages_to_bytes(server.allocator.total_frames))",
         ").set(server.allocator.total_frames)")),
    row("page-size-dropped-in-host-samples",
        Lint("ZL012:repro.energy.rack_monitor:RackEnergyMonitor.host_samples:"
             "kwarg:capacity_bytes:bytes:frames"),
        (RACK_MONITOR,
         "capacity_bytes=pages_to_bytes(server.allocator.total_frames)",
         "capacity_bytes=server.allocator.total_frames")),
    # The per-file rules share the one verdict: a wall-clock read in the
    # engine is a ZL001.
    row("wall-clock-in-engine",
        Lint("ZL001:repro.sim.engine:wall-clock call time.time(); "
             "simulated code must read Engine.now"),
        ("src/repro/sim/engine.py",
         "from repro.errors import SimulationError\n",
         "from repro.errors import SimulationError\n"
         "import time; _T = time.time()\n")),
    # ZL009: iterate the probe's host set unordered and the taint must
    # reach the scheduled probe tick.
    row("unordered-probe-hosts",
        Lint("ZL009:repro.core.recovery:probe_tick:unordered-iteration:"
             "iteration over unordered set 'set expression'"),
        (RECOVERY, "for host in sorted(controller.known_hosts):",
         "for host in set(controller.known_hosts):")),
    # ZL007 requires what the audit reads: the suspended-fleet calculator
    # reads dc_mean_servers, which no hand table ever listed.
    row("audit-read-series-unregistered",
        Lint("ZL007:repro.obs.audit.recommend:the fleet audit reads series "
             "'dc_mean_servers', but no module registers it; the ZomAudit "
             "dimension that reads it would silently go unmeasurable",
             ("dc_mean_servers",)),
        ("src/repro/dc/energy_sim.py", '"dc_mean_servers", "Mean servers',
         '"dc_mean_server_count", "Mean servers')),
    # ZL005's family is errors.py's RpcError subtree: a probe that
    # swallows a deadline failure is caught by a name no list spells.
    row("deadline-error-swallowed",
        Lint("ZL005:repro.core.recovery:DeadlineExceededError caught and "
             "discarded; re-raise, return the failure, or emit an audit "
             "event"),
        (RECOVERY,
         "        except RpcError:\n"
         "            return False\n"
         "        except FencingError:\n",
         "        except DeadlineExceededError:\n"
         "            pass\n"
         "        except FencingError:\n")),

    # Owed work: one merge rule and one settle, shared by recovery's
    # resyncs and invalidations and the federation's recalls, and every
    # lending operation settles the recalls still owed.
    row("owe-overwrites",
        ("tests/test_fault_injection.py::TestHostLossDetection::"
         "test_second_loss_keeps_the_first_loss_owed_resync",),
        (RECOVERY, OWE_UNION,
         "        self[(target, subject)] = list(ids)\n")),
    row("resync-swallows-fencing",
        ("tests/test_fault_injection.py::TestHostLossDetection::"
         "test_owed_resync_aborts_on_fencing",),
        (RECOVERY,
         "        except FencingError:\n"
         "            raise  # we were deposed: abort loudly, as _invalidate"
         " does\n",
         "")),
    row("alive-swallows-fencing",
        ("tests/test_fault_injection.py::TestHostLossDetection::"
         "test_probe_round_aborts_on_fencing",),
        (RECOVERY,
         "        except FencingError:\n"
         "            raise  # we were deposed: abort the round loudly, as"
         " _resync does\n",
         "")),
    row("settle-drops-key",
        ("tests/test_fault_injection.py::TestOwedWork::"
         "test_ids_owed_between_due_and_settle_survive",),
        (RECOVERY, SETTLE_DELIVERED,
         "        self.pop((target, subject), None)\n")),
    row("borrow-skips-owed-recalls",
        ("tests/test_fed_chaos.py::TestBorrowerFaultDuringRecall::"
         "test_owed_recall_is_settled_by_the_next_lending_operation",),
        ("src/repro/fed/lending.py",
         "        self.pump_recalls()\n"
         "        agent = self.agent_for(borrower, donor)\n"
         "        granted",
         "        agent = self.agent_for(borrower, donor)\n"
         "        granted")),
    # The pool indexes are live, not merely present.
    row("free-bucket-insert-dropped",
        ("tests/test_core_database.py::TestPoolIndex::"
         "test_indexes_match_scans_over_random_ops",),
        (DATABASE, "            insort(bucket, buffer_id)\n", "")),
    # The standby replays through the primary's mutators: a diverged
    # replica refuses an entry instead of absorbing it.
    row("lenient-replay",
        ("tests/test_core_database.py::TestJournalAndMirroring::"
         "test_replica_refuses_what_the_primary_refuses",),
        (DATABASE, "        getattr(self, op)(*args)\n",
         "        try:\n"
         "            getattr(self, op)(*args)\n"
         "        except BufferError_:\n"
         "            pass\n")),
    # The reachability oracle sees constants and state, not only
    # functions, and neither an example nor a checker is a caller.
    row("unread-public-constant", REACHABLE,
        (UNITS, "PAGE_SIZE = 4 * KiB\n",
         "PAGE_SIZE = 4 * KiB\nNEVER_READ_CONSTANT = 0\n")),
    row("write-only-field", FIELDS_READ,
        (RPC, "        self.dedup_replays = 0\n",
         "        self.dedup_replays = 0\n        self.never_read = 0\n")),
    row("append-only-field", FIELDS_READ,
        (FIRMWARE, "        self.sz_initialised = False\n",
         "        self.sz_initialised = False\n"
         "        self.transition_log = []\n"),
        (FIRMWARE, "    def wake(self) -> None:\n",
         "    def wake(self) -> None:\n"
         "        self.transition_log.append(\"exit:S0\")\n")),
    row("example-only-caller", REACHABLE,
        (UNITS, "TiB = 1024 * GiB\n",
         "TiB = 1024 * GiB\n\n\ndef only_an_example_calls():\n"
         "    return 0\n"),
        ("examples/quickstart.py", 'if __name__ == "__main__":\n',
         "from repro.units import only_an_example_calls\n\n"
         'if __name__ == "__main__":\n')),
    row("checker-only-caller", REACHABLE,
        (UNITS, "TiB = 1024 * GiB\n",
         "TiB = 1024 * GiB\n\n\ndef only_a_checker_calls():\n"
         "    return 0\n"),
        ("src/repro/lint/dimensions.py", "from repro import units as _units\n",
         "from repro import units as _units\n"
         "from repro.units import only_a_checker_calls\n")),
    # The probe round's heartbeats are traffic the pinned counters see.
    row("probe-heartbeat-answered-locally",
        ("tests/test_rpc_fast_path.py::test_monitoring_plane_counters_are_pinned",),
        (RECOVERY, "            controller._agent_call(host, _HEARTBEAT)\n",
         '            "alive"\n')),
    # Fencing lives in the transport: wave a stale epoch through.
    row("stale-epoch-not-refused",
        ("tests/test_fencing.py::test_every_verb_of_a_rack_refuses_a_stale_stamp",
         "tests/test_fencing.py::"
         "test_every_verb_of_a_federation_refuses_a_stale_stamp",
         "tests/test_fencing.py::test_ad_hoc_verb_on_an_agent_is_fenced_too"),
        (RPC, "        if epoch < current:\n", "        if False:\n")),
    # Injected latency is charged to the budget the request delivers.
    row("budget-ignores-injected-latency",
        ("tests/test_exactly_once.py::TestDeadlinePropagation::"
         "test_injected_latency_exhausts_the_budget_end_to_end",),
        (RPC, "            budget -= extra_latency\n", "            pass\n")),
    # A re-delivered request keeps the request id the server dedups on.
    row("redelivery-drops-request-id",
        ("tests/test_exactly_once.py::TestExactlyOnce::"
         "test_wire_duplicate_executes_once",),
        (RPC, "            self.server.dispatch(*request)\n",
         "            self.server.dispatch(*request[:3])\n")),
    # A breaker cools down on its fabric's clock, policy or not: freeze it.
    row("breaker-clock-frozen",
        ("tests/test_rpc_retry.py::TestCircuitBreaker::"
         "test_policy_less_breaker_cools_down_on_the_fabric_engine",),
        (RPC, "        self.breaker = CircuitBreaker(node.fabric.clock,\n",
         "        self.breaker = CircuitBreaker(lambda: 0.0,\n")),
    # One server power model: the live rack reads Table 3's HP row.
    row("live-rack-reads-dell-row",
        ("tests/test_dc_energy.py::TestPlans::"
         "test_live_rack_power_is_server_power_watts_bit_for_bit",),
        ("src/repro/core/rack.py",
         "from repro.energy.profiles import HP_PROFILE\n",
         "from repro.energy.profiles import DELL_PROFILE, HP_PROFILE\n"),
        ("src/repro/core/rack.py", "server_power_watts(HP_PROFILE, s.state)",
         "server_power_watts(DELL_PROFILE, s.state)")),
    # The tour's step table is live against served traffic.
    row("tour-lru-zombie-call-dropped",
        ("tests/test_tour.py::test_step_serves_exactly_its_declared_verbs",),
        ("src/repro/tour.py",
         "manager.controller.call(Method.GS_GET_LRU_ZOMBIE.value)", "None")),
    # A hit reads the LOCAL location through a module constant.
    row("enum-member-read-on-hit",
        ("tests/test_ramext_data_path.py::"
         "test_no_enum_member_read_through_its_class",
         "tests/test_ramext_data_path.py::test_the_scan_sees_an_enum_member_read"),
        ("src/repro/hypervisor/kvm.py",
         "        if entry.location is _LOCAL:\n",
         "        if entry.location is PageLocation.LOCAL:\n")),
    # The fused exchange releases through the one hook point MemSan sees.
    row("exchange-release-inlined",
        ("tests/test_memsan.py::TestDoubleFree::"
         "test_free_after_exchange_is_flagged",),
        ("src/repro/memory/buffers.py",
         "            self._release(key, handle)\n",
         "            buffer_id, slot = handle\n"
         "            state = self._leases[buffer_id]\n"
         "            del state.used_slots[slot]\n"
         "            state.free_slots.append(slot)\n"
         "            del self._locations[key]\n"
         "            self._backup.pop(key, None)\n")),
    # A Trace keeps its demand slots per (slot_s, duration_s): a key
    # without the slot width hands out another width's slots.
    row("demand-cache-ignores-slot",
        ("tests/test_demand_slots.py::TestKeptSlots::"
         "test_slot_and_horizon_do_not_collide",),
        ("src/repro/dc/datacenter.py",
         "    key = (slot_s, duration_s)\n",
         "    key = duration_s\n")),
    # The page verb's cached cost is transfer_time(PAGE_SIZE) to the bit.
    row("page-verb-cost-drops-post-overhead",
        ("tests/test_ramext_data_path.py::test_pinned_data_path_counters",),
        ("src/repro/rdma/costs.py",
         "        return self.transfer_time(PAGE_SIZE)\n",
         "        return (self.transfer_time(PAGE_SIZE)"
         " - self.post_overhead_s)\n")),
)

ROWS: Dict[str, Mutation] = {mutation.name: mutation for mutation in MUTATIONS}


def apply(texts: Mapping[str, str], edits: Sequence[Edit]) -> Dict[str, str]:
    """``texts`` (by repo-relative path) with each edit made, in order."""
    patched = dict(texts)
    for path, old, new in edits:
        count = patched[path].count(old)
        if count != 1:
            raise LookupError(
                f"{path}: the mutated text occurs {count} times, not once: "
                f"{old!r}")
        patched[path] = patched[path].replace(old, new)
    return patched


def _lint_caught(mutation: Mutation, sources, findings) -> Tuple[bool, bool]:
    witness = mutation.witness
    pristine_ok = all(f.fingerprint != witness.fingerprint for f in findings)
    keys = {Path(key).resolve().relative_to(ROOT).as_posix(): key
            for key in sources}
    texts = apply({path: sources[keys[path]] for path, _, _ in mutation.edits},
                  mutation.edits)
    patched = dict(sources)
    patched.update((keys[path], text) for path, text in texts.items())
    hits = [f for f in check_sources(patched, rules=[witness.rule])[0]
            if f.fingerprint == witness.fingerprint]
    return pristine_ok, any(all(m in f.message for m in witness.mentions)
                            for f in hits)


def _pytest(tree: Path, node_ids: Sequence[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *node_ids], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, check=False).returncode


def _test_caught(mutation: Mutation) -> Tuple[bool, bool]:
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        tree = Path(tmp)
        for name in TREE:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name, ignore=_NOT_COPIED)
            else:
                shutil.copy2(ROOT / name, tree / name)
        pristine_ok = _pytest(tree, mutation.witness) == 0
        texts = apply({path: (tree / path).read_text()
                       for path, _, _ in mutation.edits}, mutation.edits)
        for path, text in texts.items():
            (tree / path).write_text(text)
        # Exit 1 is "tests failed"; a collection error or no test is not
        # a catch.
        return pristine_ok, _pytest(tree, mutation.witness) == 1


def caught(mutation: Mutation, sources, findings) -> Tuple[bool, bool]:
    """``(the witness is quiet on the pristine tree, it catches the mutant)``.

    A lint row patches ``sources`` (the pristine ``src/``, as
    :func:`repro.lint.load_sources` reads it) in memory, and ``findings``
    are the pristine tree's.  A test row runs in a copy of the tree and
    needs neither.
    """
    if isinstance(mutation.witness, Lint):
        return _lint_caught(mutation, sources, findings)
    return _test_caught(mutation)


def main(names: Sequence[str]) -> int:
    unknown = [name for name in names if name not in ROWS]
    if unknown:
        print(f"unknown rows: {', '.join(unknown)}; known: "
              f"{', '.join(ROWS)}", file=sys.stderr)
        return 2
    mutations = [ROWS[name] for name in names] if names else MUTATIONS
    sources = findings = None
    if any(isinstance(m.witness, Lint) for m in mutations):
        sources = load_sources([str(ROOT / "src")])
        findings = check_sources(sources)[0]
    rows, escaped = [], 0
    for mutation in mutations:
        start = time.perf_counter()
        pristine_ok, hit = caught(mutation, sources, findings)
        escaped += not (pristine_ok and hit)
        witness = mutation.witness
        rows.append((mutation.name,
                     witness.fingerprint if isinstance(witness, Lint)
                     else " ".join(witness),
                     "yes" if pristine_ok else "NO", "yes" if hit else "NO",
                     time.perf_counter() - start))
    print(to_text(Table(
        f"Mutation table: {len(rows) - escaped} of {len(rows)} rows caught",
        ("row", "witness", "pristine ok", "caught", "seconds"), rows)))
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
