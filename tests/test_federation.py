"""ZomFed: ring placement, directory, gateway routing and lending.

The acceptance bar: a 4-rack federation serves the rack tour (every
intra-rack verb) through the same machinery each rack always had, and
cross-rack lending engages exactly when one rack's zombie pool is
exhausted — with the borrow visible in the J/hour energy accounting.
"""

from collections import Counter

import pytest

from repro.core.protocol import Method
from repro.core.rack import Rack
from repro.errors import (AllocationError, ConfigurationError, FencingError)
from repro.fed import Federation
from repro.fed.ring import ConsistentHashRing
from repro.obs import Telemetry
from repro.obs.tracing import span_forest_errors
from repro.tour import BUFFER, MEMORY, fed_tour, rack_tour
from repro.units import GiB, MiB


def _small_fed(n_racks=2, **kwargs):
    kwargs.setdefault("hosts_per_rack", 3)
    kwargs.setdefault("memory_bytes", MEMORY)
    kwargs.setdefault("buff_size", BUFFER)
    kwargs.setdefault("rng_seed", 0)
    return Federation(n_racks=n_racks, **kwargs)


def _lending(fed):
    """Drive the federation tour until rack2 has borrowed from rack1."""
    for step, _ in fed_tour(fed, ("rack1/h2", "rack1/h3", "rack2/h2"),
                            "rack2/h1"):
        if step == "drain":
            return fed


class TestRing:
    def test_homes_are_stable_across_instances(self):
        keys = [f"tenant-{i}" for i in range(50)]
        a = ConsistentHashRing(["rack1", "rack2", "rack3"])
        b = ConsistentHashRing(["rack3", "rack1", "rack2"])
        assert [a.home(k) for k in keys] == [b.home(k) for k in keys]

    def test_load_split_touches_every_rack(self):
        ring = ConsistentHashRing([f"rack{i}" for i in range(1, 5)])
        split = Counter(ring.home(f"tenant-{i}") for i in range(400))
        assert set(split) == {"rack1", "rack2", "rack3", "rack4"}
        assert all(count > 0 for count in split.values())
        assert sum(split.values()) == 400

    def test_configuration_errors(self):
        ring = ConsistentHashRing(["rack1"])
        with pytest.raises(ConfigurationError):
            ring.add_rack("rack1")
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(vnodes=0)
        with pytest.raises(ConfigurationError):
            ConsistentHashRing().home("anyone")


class TestFederationAssembly:
    def test_racks_share_engine_and_fabric(self):
        fed = _small_fed()
        r1, r2 = fed.racks["rack1"], fed.racks["rack2"]
        assert r1.engine is fed.engine and r2.engine is fed.engine
        assert r1.fabric is fed.fabric and r2.fabric is fed.fabric
        assert fed.rack_of_server("rack1/h2") == "rack1"
        assert fed.rack_of_server("rack2/h3") == "rack2"

    def test_gateway_node_is_rack_less(self):
        fed = _small_fed()
        assert fed.fabric.rack_of("fed/gateway") is None

    def test_bad_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            Federation(n_racks=0)
        with pytest.raises(ConfigurationError):
            Federation(n_racks=1, hosts_per_rack=0)
        with pytest.raises(ConfigurationError):
            _small_fed().rack("rack9")
        with pytest.raises(ConfigurationError):
            _small_fed().rack_of_server("fed/gateway")


class TestDirectory:
    def test_refresh_snapshots_zombie_pools(self):
        fed = _small_fed()
        fed.make_zombie("rack1/h2")
        fed.directory.refresh()
        d1, d2 = fed.directory.digests["rack1"], fed.directory.digests["rack2"]
        assert d1.alive and d2.alive
        assert d1.zombie_hosts == 1 and d2.zombie_hosts == 0
        # The Sz host donates its free memory (minus what the platform
        # keeps resident) as whole buffers.
        assert 0 < d1.free_zombie_buffers <= MEMORY // BUFFER
        assert d1.free_zombie_bytes == d1.free_zombie_buffers * BUFFER
        assert d2.free_zombie_buffers == 0

    def test_dead_rack_is_skipped_until_revived(self):
        fed = _small_fed(n_racks=3)
        for rack in fed.rack_names:
            fed.make_zombie(f"{rack}/h2")
        fed.racks["rack2"].kill_controller()
        fed.directory.refresh()
        assert not fed.directory.alive("rack2")
        assert "rack2" not in fed.directory.donors()
        # The secondary promotes on the shared clock; the next refresh
        # re-resolves the heartbeat channel to the new primary.
        fed.engine.run(until=10.0)
        fed.directory.refresh()
        assert fed.directory.alive("rack2")
        assert "rack2" in fed.directory.donors()

    def test_donors_sorted_fullest_first_with_exclude(self):
        fed = _small_fed(n_racks=3)
        fed.make_zombie("rack1/h2")
        fed.make_zombie("rack2/h2")
        fed.make_zombie("rack2/h3")
        fed.directory.refresh()
        assert fed.directory.donors() == ["rack2", "rack1"]
        assert fed.directory.donors(exclude="rack2") == ["rack1"]

    def test_mark_dry_holds_until_refresh(self):
        fed = _small_fed()
        fed.make_zombie("rack1/h2")
        fed.directory.refresh()
        fed.directory.mark_dry("rack1")
        assert fed.directory.donors() == []
        fed.directory.refresh()
        assert fed.directory.donors() == ["rack1"]


class TestGateway:
    def test_routes_to_the_home_rack(self):
        fed = _small_fed(telemetry=Telemetry(enabled=True))
        tenant = "rack2/h1"
        home = fed.gateway.home_of(tenant)
        fed.make_zombie(f"{home}/h2")
        before = fed.racks[home].controller.pool_summary()["free_bytes"]
        granted = fed.gateway.alloc_ext(tenant, 2 * BUFFER)
        assert len(granted) == 2
        after = fed.racks[home].controller.pool_summary()["free_bytes"]
        assert before - after == 2 * BUFFER
        assert fed.gateway.routed >= 1
        labels = fed.telemetry.registry.labels_for("fed_routed_total")
        assert {lbl["rack"] for lbl in labels} == {home}

    def test_remote_tenant_gets_a_revocation_channel(self):
        fed = _small_fed()
        tenant = "rack2/h1"
        home = fed.gateway.home_of(tenant)
        fed.make_zombie(f"{home}/h2")
        fed.gateway.alloc_ext(tenant, BUFFER)
        assert tenant in fed.racks[home].controller.agent_clients

    def test_cross_rack_transfer_is_rejected(self):
        fed = _small_fed(n_racks=3)
        homes = {}
        for rack in fed.rack_names:
            for j in range(1, 4):
                name = f"{rack}/h{j}"
                homes.setdefault(fed.gateway.home_of(name), name)
        assert len(homes) >= 2, "need tenants homed on different racks"
        (t1, t2) = list(homes.values())[:2]
        with pytest.raises(ConfigurationError):
            fed.gateway.transfer(t1, t2, [1])

    def test_federation_wide_dry_allocation_surfaces(self):
        fed = _small_fed()
        # No zombies anywhere beyond intra-rack growth: exhaust it.
        tenant = "rack1/h1"
        with pytest.raises(AllocationError):
            for _ in range(512):
                fed.gateway.alloc_ext(tenant, 4 * BUFFER)
        assert fed.gateway.borrow_failures >= 1


class TestLending:
    def _lend_pair(self):
        return _lending(_small_fed(telemetry=Telemetry(enabled=True)))

    def test_borrow_imports_into_the_borrower_pool(self):
        fed = self._lend_pair()
        loans = fed.lending.loans_from("rack1")
        assert loans and all(l.borrower == "rack2" for l in loans)
        borrower_db = fed.racks["rack2"].controller.db
        for loan in loans:
            assert loan.buffer_id in borrower_db
            # The loaned record still points at the donor's serving host.
            host = borrower_db.get(loan.buffer_id).host
            assert fed.fabric.rack_of(host) == "rack1"

    def test_return_restores_the_donor_pool(self):
        fed = self._lend_pair()
        loan_ids = sorted(fed.lending.loans)
        donor_free = fed.racks["rack1"].controller.pool_summary()["free_bytes"]
        fed.lending.return_loans("rack2", "rack1")
        assert fed.lending.loans == {}
        assert fed.lending.returns == len(loan_ids)
        regained = (fed.racks["rack1"].controller.pool_summary()["free_bytes"]
                    - donor_free)
        assert regained == len(loan_ids) * BUFFER
        borrower_db = fed.racks["rack2"].controller.db
        assert all(buffer_id not in borrower_db for buffer_id in loan_ids)
        labels = fed.telemetry.registry.labels_for("fed_returns_total")
        assert {(lbl["src_rack"], lbl["dst_rack"])
                for lbl in labels} == {("rack2", "rack1")}

    def test_waking_donor_hosts_recalls_the_loans(self):
        fed = self._lend_pair()
        assert fed.lending.loans
        fed.wake("rack1/h2", reclaim_bytes=MEMORY)
        fed.wake("rack1/h3", reclaim_bytes=MEMORY)
        assert fed.lending.loans_from("rack1") == []
        assert fed.lending.recalls > 0
        assert fed.lending.pending_recalls == []

    def test_stale_donor_epoch_is_fenced(self):
        fed = self._lend_pair()
        agent = fed.lending.agents[("rack2", "rack1")]
        epoch = agent.fencing.epochs.get("rack1", 0)
        assert agent.heartbeat(epoch=epoch + 1, rack="rack1") == "alive"
        with pytest.raises(FencingError):
            agent.us_reclaim([], epoch=epoch, rack="rack1")

    def test_cross_rack_traffic_is_priced(self):
        fed = self._lend_pair()
        assert fed.fabric.cross_rack_ops > 0
        assert fed.fabric.cross_rack_joules > 0
        stats = fed.stats()
        assert stats["borrows"] == fed.lending.borrows
        assert stats["cross_rack_joules"] > 0
        labels = fed.telemetry.registry.labels_for(
            "fed_cross_rack_joules_total")
        assert labels and all("src_rack" in lbl and "dst_rack" in lbl
                              for lbl in labels)


def _fed_channels(fed):
    """Every federation channel into a primary: gateway tenants,
    lending agents (borrow/return) and the directory's heartbeats."""
    return (list(fed.gateway._channels.values())
            + [agent.channel for agent in fed.lending.agents.values()]
            + list(fed.directory._channels.values()))


def _qp_remotes(node):
    return {qp.remote for qp in node.pd.queue_pairs.values()}


class TestPrimaryChannels:
    def test_one_client_per_channel_after_failovers(self):
        """Each channel follows its rack's primary across a failover and
        closes the client it supersedes: one client per channel, however
        many failovers the rack goes through."""
        fed = _lending(_small_fed())
        tenant = "rack2/h1"
        channels = _fed_channels(fed)
        before = [channel.client for channel in channels]
        assert all(before)

        for rack in fed.racks.values():
            rack.kill_controller()
        fed.engine.run(until=10.0)
        assert {r.controller.epoch for r in fed.racks.values()} == {2}
        # Every channel is used again, through the promoted primaries.
        fed.directory.refresh()
        assert all(fed.directory.alive(name) for name in fed.racks)
        assert fed.lending.return_loans("rack2", "rack1") > 0
        assert fed.gateway.alloc_ext(tenant, BUFFER)

        assert _fed_channels(fed) == channels
        for channel, superseded in zip(channels, before):
            assert channel.client is not superseded
            assert channel.client.server is channel.rack.controller.rpc
            assert (superseded._qp.qp_num
                    not in superseded.node.pd.queue_pairs)

    def test_rack_failover_closes_the_managers_superseded_clients(self):
        """A serving host's manager reaches the promoted primary through
        its channel, and the QP to the deposed primary is destroyed."""
        rack = Rack(["user", "z1"], memory_bytes=64 * MiB,
                    buff_size=4 * MiB)
        rack.make_zombie("z1")
        manager = rack.server("user").manager
        manager.request_swap(4 * MiB)
        deposed = rack.controller
        assert deposed.node.name in _qp_remotes(manager.node)

        rack.kill_controller()
        rack.engine.run(until=10.0)
        assert rack.controller is not deposed
        manager.request_swap(4 * MiB)

        remotes = _qp_remotes(manager.node)
        assert deposed.node.name not in remotes
        assert rack.controller.node.name in remotes
        assert manager.controller.client.server is rack.controller.rpc


class TestFourRackAcceptance:
    """The issue's acceptance scenario, end to end."""

    @pytest.fixture(scope="class")
    def fed(self):
        tel = Telemetry(enabled=True)
        fed = Federation(n_racks=4, hosts_per_rack=3, memory_bytes=MEMORY,
                         buff_size=BUFFER, rng_seed=0, telemetry=tel)

        # The rack tour on rack1, through its own controller pair — the
        # federation adds glue, it does not replace the rack.
        rack1 = fed.racks["rack1"]
        hv = rack1.server("rack1/h1").hypervisor
        for step, result in rack_tour(rack1, "rack1/h1", "rack1/h2",
                                      "rack1/h3"):
            if step == "create_vm1":
                for ppn in range(result.spec.total_pages):
                    hv.access(result, ppn)

        # The federation tour: exhaust one rack's pool through the
        # gateway until lending engages, then give every loan back.
        zombies = ("rack2/h2", "rack2/h3", "rack3/h2", "rack3/h3",
                   "rack4/h2", "rack4/h3")
        for _ in fed_tour(fed, zombies, "rack2/h1"):
            pass
        return fed

    def test_all_17_verbs_complete_traced_calls(self, fed):
        registry = fed.telemetry.registry
        verbs = {m.value for m in Method}
        # A completed client call and a server-side span counter per
        # verb: register() wraps every handler, so none can drop out.
        for series in ("rpc_call_seconds", "rpc_served_total"):
            seen = {labels.get("verb")
                    for labels in registry.labels_for(series)}
            missing = sorted(verbs - seen)
            assert not missing, f"verbs without a {series} series: {missing}"

    def test_lending_engaged_and_returned(self, fed):
        assert fed.gateway.lending_triggers > 0
        assert fed.lending.borrows > 0
        assert fed.lending.returns == fed.lending.borrows
        assert fed.lending.loans == {}

    def test_cross_rack_energy_charged(self, fed):
        assert fed.fabric.cross_rack_joules > 0
        assert fed.stats()["cross_rack_ops"] > 0

    def test_span_forest_stays_connected(self, fed):
        tracer = fed.telemetry.tracer
        assert span_forest_errors(tracer.finished()) == []
        assert tracer._stack == []


class TestDcFederationBackend:
    def test_aggregate_and_federation_backends(self):
        from repro.dc.energy_sim import simulate_energy
        from repro.energy.profiles import HP_PROFILE
        from repro.traces.google import generate_trace
        from repro.traces.schema import TraceConfig

        tasks = generate_trace(TraceConfig(n_servers=20, duration_days=0.25,
                                           seed=3))
        base = simulate_energy(tasks, 20, HP_PROFILE, "ZombieStack")
        agg = simulate_energy(tasks, 20, HP_PROFILE, "ZombieStack",
                              backend="aggregate")
        assert agg.joules == base.joules
        live = simulate_energy(tasks, 20, HP_PROFILE, "ZombieStack",
                               backend="federation")
        # The live fleet can only add inter-rack surcharge on top of the
        # closed-form integral — never subtract energy.
        assert live.joules >= agg.joules
        assert live.baseline_joules == agg.baseline_joules

    def test_federation_backend_guards(self):
        from repro.dc.energy_sim import simulate_energy
        from repro.energy.profiles import HP_PROFILE
        from repro.traces.google import generate_trace
        from repro.traces.schema import TraceConfig

        tasks = generate_trace(TraceConfig(n_servers=10, duration_days=0.1,
                                           seed=3))
        with pytest.raises(ConfigurationError):
            simulate_energy(tasks, 10, HP_PROFILE, "Neat",
                            backend="federation")
        with pytest.raises(ConfigurationError):
            simulate_energy(tasks, 10, HP_PROFILE, "ZombieStack",
                            backend="quantum")

    def test_build_fleet_guards(self):
        from repro.dc.fleet import FederationFleet, build_fleet
        with pytest.raises(ConfigurationError):
            build_fleet(0)
        with pytest.raises(ConfigurationError):
            FederationFleet(hosts_per_rack=1)
