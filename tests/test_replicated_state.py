"""One replicated state, one log: what the standby must know, it knows.

The buffer database is the single replicated state machine (buffers with
their purposes, zombie hosts, known hosts) and its journal the single
replication log.  These are the regressions that motivated folding the
side tables into it: purposes survive a promotion, a handler that raises
half way still replicates what it changed, a verb that rejects changes
nothing, and the log is bounded by mirror lag rather than by uptime.
"""

import pytest

from repro.check.invariants import replicated_entries
from repro.check.mutants import Mutant
from repro.core.controller import GlobalMemoryController
from repro.core.database import BufferDatabase
from repro.core.protocol import BufferDescriptor, BufferKind, Method
from repro.core.rack import Rack
from repro.core.secondary import SecondaryController
from repro.errors import ControllerError
from repro.fed import Federation
from repro.rdma.fabric import Fabric
from repro.rdma.rpc import RpcClient
from repro.sim.engine import Engine
from repro.units import MiB
from tests.agreement import assert_standby_agrees

BUFF = 4 * MiB


def _pair():
    """A controller and its standby on one fabric, plus an RPC client that
    reaches the controller the way a remote-mem-mgr does (through the
    guarded handlers)."""
    engine, fabric = Engine(), Fabric()
    ctr = GlobalMemoryController(fabric.add_node("ctr"), buff_size=BUFF)
    sec = SecondaryController(fabric.add_node("sec"), engine)
    ctr.mirror = sec.attach_rpc_mirror(RpcClient(ctr.node, sec.rpc),
                                       epoch_fn=lambda: ctr.epoch)
    sec.watch(RpcClient(sec.node, ctr.rpc))
    client = RpcClient(fabric.add_node("agent"), ctr.rpc)
    return engine, fabric, ctr, sec, client


def _buffers(host, ids):
    return [BufferDescriptor(buffer_id=i, host=host, offset=0,
                             size_bytes=BUFF, kind=BufferKind.ZOMBIE, rkey=i)
            for i in ids]


def _ids(granted):
    return [d.buffer_id for d in granted]


class TestPurposeSurvivesPromotion:
    def test_guarantee_still_revokes_swap_after_failover(self):
        rack = Rack(["a", "b", "z"], memory_bytes=64 * MiB, buff_size=BUFF)
        rack.make_zombie("z")
        # Drain the rack: the zombie's pool *and* whatever the two active
        # hosts will lend (AS_get_free_mem gives a fraction per ask).
        while sum(rack.server(user).manager.request_swap(1024 * MiB)[1]
                  for user in "ab"):
            pass
        assert not rack.controller.db.free_buffers()
        deposed = rack.controller
        rack.kill_controller()
        rack.engine.run(until=10.0)
        promoted = rack.controller
        assert promoted is not deposed
        assert {b.purpose for b in promoted.db.all_buffers()} == {"swap"}
        # The guarantee can only be honoured by revoking b's best-effort
        # swap — which takes knowing it *is* swap.
        held_by_b = len(promoted.db.by_user("b"))
        store = rack.server("a").manager.request_ext(2 * BUFF)
        assert len(store.lease_ids()) == 2
        assert len(promoted.db.by_user("b")) == held_by_b - 2
        assert sum(b.purpose == "ext" for b in promoted.db.by_user("a")) == 2

    def test_cross_rack_loan_is_still_a_loan_after_failover(self):
        fed = Federation(n_racks=2, hosts_per_rack=3, memory_bytes=512 * MiB,
                         buff_size=16 * MiB)
        for host in ("rack1/h2", "rack1/h3"):
            fed.make_zombie(host)
        assert fed.lending.borrow("rack2", "rack1", 2) == 2
        donor = fed.racks["rack1"]
        loans = sorted(fed.lending.loans)
        assert {donor.controller.db.get(b).purpose for b in loans} == {"fed"}
        donor.kill_controller()
        fed.engine.run(until=10.0)
        assert donor.secondary.promoted is donor.controller
        assert {donor.controller.db.get(b).purpose for b in loans} == {"fed"}
        # The borrower's copies landed unallocated, with no purpose.
        borrower_db = fed.racks["rack2"].controller.db
        assert {(borrower_db.get(b).user, borrower_db.get(b).purpose)
                for b in loans} == {(None, None)}
        assert_standby_agrees(fed.racks["rack2"])


class TestHandlerBoundaryPump:
    def test_handler_raising_half_way_still_replicates(self):
        """``GS_alloc_ext`` grows the pool from an active host, still
        falls short, and its swap revocation then fails: the handler
        raises *after* journaling the new buffers.  They must reach the
        standby at that boundary, not never."""
        rack = Rack(["a", "b", "c", "z"], memory_bytes=64 * MiB,
                    buff_size=BUFF)
        rack.make_zombie("z")
        rack.server("b").manager.request_swap(1024 * MiB)
        before = len(rack.controller.db)
        rack.fabric.partition("b")
        with pytest.raises(ControllerError):
            rack.server("a").manager.request_ext(1024 * MiB)
        assert len(rack.controller.db) > before     # c's loan was journaled
        assert_standby_agrees(rack)
        rack.fabric.heal("b")
        rack.server("c").manager.request_swap(BUFF)  # ... and stays in step
        assert_standby_agrees(rack)


class TestRejectingVerbChangesNothing:
    """A mixed request arriving over RPC is refused whole."""

    def _two_users(self):
        engine, fabric, ctr, sec, client = _pair()
        client.call(Method.GS_GOTO_ZOMBIE.value, "z",
                    _buffers("z", range(1, 7)))
        mine = _ids(client.call(Method.GS_ALLOC_SWAP.value, "b", 2 * BUFF))
        theirs = _ids(client.call(Method.GS_ALLOC_SWAP.value, "c", BUFF))
        return ctr, sec, client, mine, theirs

    @staticmethod
    def _assert_refused_whole(ctr, sec, call):
        state = replicated_entries(ctr.db)
        with pytest.raises(ControllerError):
            call()
        assert replicated_entries(ctr.db) == state
        assert replicated_entries(sec.db) == state
        assert ctr.mirror_lag == 0

    def test_gs_release(self):
        ctr, sec, client, mine, theirs = self._two_users()
        self._assert_refused_whole(ctr, sec, lambda: client.call(
            Method.GS_RELEASE.value, "b", mine + theirs))
        client.call(Method.GS_RELEASE.value, "b", mine + mine[:1])
        assert not ctr.db.by_user("b")      # an id named twice counts once
        assert replicated_entries(sec.db) == replicated_entries(ctr.db)

    def test_gs_transfer(self):
        ctr, sec, client, mine, theirs = self._two_users()
        self._assert_refused_whole(ctr, sec, lambda: client.call(
            Method.GS_TRANSFER.value, "b", "d", mine + theirs))
        client.call(Method.GS_TRANSFER.value, "b", "d", mine)
        assert {b.purpose for b in ctr.db.by_user("d")} == {"swap"}
        assert replicated_entries(sec.db) == replicated_entries(ctr.db)

    def test_fed_return(self):
        ctr, sec, client, _, theirs = self._two_users()
        lent = _ids(client.call(Method.FED_BORROW.value, "peer", 2))
        self._assert_refused_whole(ctr, sec, lambda: client.call(
            Method.FED_RETURN.value, "peer", lent + theirs))
        assert client.call(Method.FED_RETURN.value, "peer",
                           lent + [999]) == 2   # unknown ids: skipped

    def test_gs_goto_zombie(self):
        ctr, sec, client, _, _ = self._two_users()
        self._assert_refused_whole(ctr, sec, lambda: client.call(
            Method.GS_GOTO_ZOMBIE.value, "y",
            _buffers("y", [10, 11]) + _buffers("z", [12])))
        assert "y" not in ctr.known_hosts and "y" not in sec.zombie_hosts


class TestLogIsBoundedByLag:
    def test_healthy_standby_keeps_both_journals_empty(self):
        _, _, ctr, sec, _ = _pair()
        ctr.gs_goto_zombie("z", _buffers("z", range(1, 5)))
        for _ in range(10_000):
            ctr.gs_release("u", _ids(ctr.gs_alloc_swap("u", BUFF)))
        assert not ctr.db.journal and not sec.db.journal
        assert sec.mirror_applied_seq == 2 + 4 + 2 * 10_000 - 1
        assert replicated_entries(sec.db) == replicated_entries(ctr.db)

    def test_partitioned_standby_queues_exactly_the_ops_issued(self):
        engine, fabric, ctr, sec, _ = _pair()
        ctr.gs_goto_zombie("z", _buffers("z", range(1, 5)))
        fabric.partition("sec")
        for _ in range(50):
            ctr.gs_release("u", _ids(ctr.gs_alloc_swap("u", BUFF)))
        assert ctr.mirror_lag == 100 and ctr.mirror_deferred >= 100
        assert len(sec.db.by_user("u")) == 0
        fabric.heal("sec")
        engine.run(until=1.5)           # one heartbeat drains the backlog
        assert ctr.mirror_lag == 0 and not ctr.db.journal
        assert replicated_entries(sec.db) == replicated_entries(ctr.db)


class _DropPurpose(Mutant):
    """Seeded bug: the mirrored ``assign`` forgets why the user holds it."""

    name = "drop-purpose"

    def _apply(self):
        faithful = BufferDatabase.apply

        def apply(db, op, args):
            if op == "assign":
                args = (args[0], args[1], None)
            faithful(db, op, args)

        self._patch(BufferDatabase, "apply", apply)


class _SkipErrorPathPump(Mutant):
    """Seeded bug: a handler that raises skips its boundary pump."""

    name = "skip-error-path-pump"

    def _apply(self):
        def _guard(ctr, handler):
            return handler

        self._patch(GlobalMemoryController, "_guard", _guard)


class TestAgreementHelperKillsSeededMutants:
    """The strengthened agreement check is what catches both bug classes
    (``len(db)`` + ``zombie_hosts``, the old check, catches neither)."""

    def test_purpose_dropped_from_the_mirrored_assign(self):
        with _DropPurpose():
            rack = Rack(["a", "z"], memory_bytes=64 * MiB, buff_size=BUFF)
            rack.make_zombie("z")
            rack.server("a").manager.request_swap(BUFF)
            assert len(rack.secondary.db) == len(rack.controller.db)
            with pytest.raises(AssertionError):
                assert_standby_agrees(rack)

    def test_pump_skipped_on_the_exception_path(self):
        with _SkipErrorPathPump():
            scenario = TestHandlerBoundaryPump()
            with pytest.raises(AssertionError):
                scenario.test_handler_raising_half_way_still_replicates()
