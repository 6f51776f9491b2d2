"""ZomFed under fire: donor failover plus adversarial inter-rack links.

Two legs, mirroring ``tests/test_message_chaos.py`` for the cross-rack
plane:

- **failover**: killing a borrowed-from rack's primary must leave every
  loan intact on the promoted secondary (the journal mirrors the grant),
  re-attachable by the lending plane, recallable under the new fencing
  epoch, and the deposed primary fenced out of the revocation channel;
- **message faults**: ``REPLY_LOSS``/``DUPLICATE``/``REORDER`` injected
  on the inter-rack links must leave the borrow/return/recall storm's final
  state fingerprint-identical to the fault-free run — the ``FED_*``
  verbs are ``dedup_required``, so a lost reply or a duplicated or
  stale re-delivered request can never double-lend or double-free.

CI sweeps seeds via ``ZOMNET_CHAOS_SEEDS`` (same contract as the
intra-rack chaos matrix); any failure replays locally with the same
value.
"""

import pytest

from repro.core.protocol import Method
from repro.errors import AllocationError, FencingError
from repro.fed import Federation
from repro.rdma.fabric import DUPLICATE, REORDER, REPLY_LOSS, LinkFaults
from repro.tour import BUFFER, MEMORY, fed_tour
from tests.agreement import assert_standby_agrees, chaos_seeds


def _build(seed, install_faults=None):
    """Two racks, through the federation tour until rack2 has borrowed."""
    fed = Federation(n_racks=2, hosts_per_rack=3, memory_bytes=MEMORY,
                     buff_size=BUFFER, rng_seed=seed)
    if install_faults is not None:
        install_faults(fed.fabric.message_faults)
    for step, _ in fed_tour(fed, ("rack1/h2", "rack1/h3", "rack2/h2"),
                            "rack2/h1"):
        if step == "drain":
            return fed


def _lending_storm(fed):
    """Borrow repeatedly, proactively return half, then recall the rest
    by waking the donor hosts — every cross-rack interaction class, with
    enough cross-rack messages for a probabilistic plan to really bite."""
    for _ in range(12):
        try:
            fed.gateway.alloc_ext("rack2/h1", 4 * BUFFER)
        except AllocationError:
            break  # the whole federation went dry — that is the storm's end
    loan_ids = sorted(fed.lending.loans)
    fed.lending.return_loans("rack2", "rack1",
                             loan_ids[:len(loan_ids) // 2])
    fed.wake("rack1/h2", reclaim_bytes=MEMORY)
    fed.wake("rack1/h3", reclaim_bytes=MEMORY)
    fed.lending.pump_recalls()


def _fingerprint(fed):
    """Fault-independent final state.  Globally counted ids (buffer ids,
    request ids) and simulated timestamps are deliberately excluded —
    a second federation in the same process starts further along the id
    streams without changing what the protocol agreed on."""
    racks = tuple(
        (name,
         tuple(sorted(rack.controller.pool_summary().items())),
         rack.controller.epoch,
         len(rack.controller.db.free_buffers()))
        for name, rack in sorted(fed.racks.items()))
    loans = tuple(sorted((loan.donor, loan.borrower)
                         for loan in fed.lending.loans.values()))
    counters = (fed.lending.borrows, fed.lending.returns,
                fed.lending.recalls, len(fed.lending.owed_recalls))
    return racks, loans, counters


class TestDonorFailover:
    def test_loans_survive_and_rehome_to_the_promoted_secondary(self):
        fed = _build(7)
        donor_rack = fed.racks["rack1"]
        deposed = donor_rack.controller
        old_epoch = deposed.epoch
        loan_ids = sorted(fed.lending.loans)

        donor_rack.kill_controller()
        fed.engine.run(until=10.0)
        promoted = donor_rack.controller
        assert promoted is not deposed
        assert promoted.epoch == old_epoch + 1
        assert promoted.recovery is donor_rack.recovery

        # The grants were journaled, so the mirrored database on the
        # promoted secondary still carries every outstanding loan.
        for buffer_id in loan_ids:
            assert buffer_id in promoted.db
            assert promoted.db.get(buffer_id).allocated

        # The promoted primary is wired to the lending agent and keeps
        # granting from the re-homed pool.
        agent = fed.lending.agents[("rack2", "rack1")]
        assert agent.node.name in promoted.agent_clients
        more = fed.lending.borrow("rack2", "rack1", 2)
        assert more == 2

        # The failover pushed the new epoch to the agent, so the deposed
        # primary is fenced out of the revocation channel it used to own.
        assert agent.rpc.epochs["rack1"] == promoted.epoch
        with pytest.raises(FencingError):
            deposed._agent_call(agent.node.name, Method.HEARTBEAT)

        # And the loans stay fully recallable through the new primary.
        fed.lending.return_loans("rack2", "rack1")
        assert fed.lending.loans == {}
        assert not fed.lending.owed_recalls

    def test_donor_recall_still_flows_after_failover(self):
        fed = _build(11)
        donor_rack = fed.racks["rack1"]
        donor_rack.kill_controller()
        fed.engine.run(until=10.0)
        # Waking the donor hosts revokes the loans through the promoted
        # primary — the borrower side drops them without manual help.
        fed.wake("rack1/h2", reclaim_bytes=MEMORY)
        fed.wake("rack1/h3", reclaim_bytes=MEMORY)
        fed.lending.pump_recalls()
        assert fed.lending.loans_from("rack1") == []
        assert fed.lending.recalls > 0
        assert not fed.lending.owed_recalls
        for rack in fed.racks.values():
            assert_standby_agrees(rack)


class TestBorrowerFaultDuringRecall:
    @pytest.mark.parametrize("next_op", ["borrow", "return_loans"])
    def test_owed_recall_is_settled_by_the_next_lending_operation(
            self, next_op):
        # Regression: a recall whose borrower-side drop failed (the
        # borrower's user was partitioned) was queued, and only a test
        # ever retried it — the borrower kept records of buffers the
        # donor had already taken back, however long it ran healed.
        fed = _build(7)
        recalled = sorted(fed.lending.loans)
        assert recalled
        fed.fabric.partition("rack2/h1")
        fed.wake("rack1/h2", reclaim_bytes=MEMORY)
        fed.wake("rack1/h3", reclaim_bytes=MEMORY)
        assert fed.lending.owed_recalls
        fed.fabric.heal("rack2/h1")
        for rack in fed.racks.values():
            rack.start_host_monitoring(probe_period_s=1.0, miss_threshold=3)
        fed.engine.run(until=fed.engine.now + 60.0)
        if next_op == "borrow":
            fed.make_zombie("rack1/h2")
            assert fed.lending.borrow("rack2", "rack1", 1) == 1
        else:
            assert fed.lending.return_loans("rack2", "rack1") == 0
        borrower_db = fed.racks["rack2"].controller.db
        assert [b for b in recalled if b in borrower_db] == []
        assert [b for b in recalled if b in fed.lending.loans] == []
        assert not fed.lending.owed_recalls
        # Dropped as recalls, not handed back as returns.
        assert fed.lending.recalls == len(recalled)
        assert fed.lending.returns == 0


def _tenant_homed_away(seed):
    """``rack1/h1`` homed on ``rack2``, holding two buffers served by
    ``rack2/h3``, after ``rack2``'s primary failed over."""
    fed = Federation(n_racks=2, hosts_per_rack=3, memory_bytes=MEMORY,
                     buff_size=BUFFER, rng_seed=seed)
    tenant = "rack1/h1"
    assert fed.gateway.home_of(tenant) == "rack2"
    fed.make_zombie("rack2/h3")
    granted = fed.gateway.alloc_ext(tenant, 2 * BUFFER)
    assert {d.host for d in granted} == {"rack2/h3"}
    fed.racks["rack2"].kill_controller()
    fed.engine.run(until=10.0)
    assert fed.racks["rack2"].controller.epoch == 2
    return fed, tenant


class TestFailoverWiresEveryAgent:
    """A promoted primary reaches every agent its rack registered — its
    own servers, tenants homed here, lending agents of donated loans —
    and each agent fences per issuing rack."""

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_tenant_homed_away_stays_revocable(self, seed):
        fed, tenant = _tenant_homed_away(seed)
        fed.wake("rack2/h3", reclaim_bytes=MEMORY)
        assert fed.racks["rack2"].controller.db.by_user(tenant) == []
        manager = fed.racks["rack1"].server(tenant).manager
        assert manager.reclaims_served == 1
        for rack in fed.racks.values():
            assert_standby_agrees(rack)

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_failover_pushes_the_epoch_to_lending_agents(self, seed):
        fed = _build(seed)
        loans = sorted(fed.lending.loans)
        assert len(loans) >= 2
        donor = fed.racks["rack1"]
        deposed = donor.controller
        donor.kill_controller()
        fed.engine.run(until=10.0)

        agent = fed.lending.agents[("rack2", "rack1")]
        with pytest.raises(FencingError):
            deposed._agent_call(agent.node.name, Method.US_RECLAIM,
                                loans[:2])
        assert sorted(fed.lending.loans) == loans
        assert fed.lending.recalls == 0
        assert agent.rpc.epochs["rack1"] == donor.controller.epoch

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_each_issuing_rack_keeps_its_own_watermark(self, seed):
        fed, tenant = _tenant_homed_away(seed)
        fed.gateway.alloc_ext(tenant, BUFFER)
        own = fed.racks["rack1"]
        home = fed.racks["rack2"]
        heartbeat = Method.HEARTBEAT
        assert home.controller._agent_call(tenant, heartbeat) == "alive"
        # Epoch 2 from rack2 says nothing about rack1, still at epoch 1.
        assert own.controller._agent_call(tenant, heartbeat) == "alive"
        assert not own.controller.fenced
        manager = own.server(tenant).manager
        manager.request_swap(BUFFER)  # rack1 still serves its GS_ verbs

        # A stale epoch from the tenant's own rack is still refused.
        deposed = own.controller
        own.kill_controller()
        fed.engine.run(until=20.0)
        assert own.controller.epoch == 2
        with pytest.raises(FencingError):
            deposed._agent_call(tenant, Method.HEARTBEAT)
        assert manager.rpc.epochs == {"rack1": 2, "rack2": 2}


class TestInterRackMessageFaults:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_probabilistic_faults_keep_state_identical(self, seed):
        clean = _build(seed)
        _lending_storm(clean)
        baseline = _fingerprint(clean)

        # One scripted loss and one scripted reorder on top of the
        # probabilistic plan: the storm sends under twenty cross-rack
        # messages, so whatever the seed's draw stream does, both kinds
        # provably fire.  A script draws no uniform of its own.
        def install(inj):
            inj.set_rack_link("*", "*",
                              LinkFaults(reply_loss=0.08, duplicate=0.12,
                                         reorder=0.1))
            inj.script_rack("*", "*", REPLY_LOSS, method="FED_borrow")
            inj.script_rack("*", "*", REORDER, method="FED_return")

        faulty = _build(seed, install_faults=install)
        _lending_storm(faulty)
        assert _fingerprint(faulty) == baseline

        injected = faulty.fabric.message_faults.injected
        assert injected[REPLY_LOSS] + injected[DUPLICATE] >= 1, (
            "the inter-rack fault plan never fired — the storm has no "
            "cross-rack traffic to attack?")
        assert injected[REORDER] > 0
        for rack in (*clean.racks.values(), *faulty.racks.values()):
            assert_standby_agrees(rack)

    @pytest.mark.parametrize("kind", (REPLY_LOSS, DUPLICATE))
    @pytest.mark.parametrize("verb", ("FED_borrow", "FED_return"))
    def test_scripted_fault_on_each_fed_verb(self, kind, verb):
        clean = _build(7)
        _lending_storm(clean)
        baseline = _fingerprint(clean)

        fed = _build(7, install_faults=lambda inj: inj.script_rack(
            "*", "*", kind, method=verb))
        _lending_storm(fed)
        assert _fingerprint(fed) == baseline
        fired = sum(fed.fabric.message_faults.injected.values())
        assert fired >= 1, f"scripted {kind} on {verb!r} never fired"
        for rack in fed.racks.values():
            assert_standby_agrees(rack)
