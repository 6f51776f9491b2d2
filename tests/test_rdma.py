"""The RDMA fabric: MRs, QPs, one-sided verbs, RPC, power gating."""

import pytest

from repro.acpi.platform import build_platform
from repro.acpi.states import SleepState
from repro.errors import (MemoryRegionError, QueuePairError, RdmaError,
                          RpcError, RpcTimeoutError)
from repro.rdma.costs import RdmaCostModel
from repro.rdma.fabric import (DUPLICATE, REPLY_LOSS, Fabric, LinkFaults,
                               MessageFaultInjector)
from repro.rdma.rpc import RpcClient, RpcServer
from repro.rdma.verbs import AccessFlags, MemoryRegion, QpState, QueuePair
from repro.sim.rng import DeterministicRng
from repro.units import GiB, MiB, PAGE_SIZE


class TestMemoryRegion:
    def test_write_read_round_trip(self):
        mr = MemoryRegion("owner", 8192)
        mr.write(100, b"zombieland")
        assert mr.read(100, 10) == b"zombieland"

    def test_unwritten_ranges_read_zero(self):
        mr = MemoryRegion("owner", 8192)
        assert mr.read(0, 16) == bytes(16)

    def test_cross_chunk_write(self):
        mr = MemoryRegion("owner", 3 * 4096)
        payload = bytes(range(256)) * 32  # 8 KiB spanning chunks
        mr.write(4000, payload)
        assert mr.read(4000, len(payload)) == payload

    def test_sparse_backing_is_lazy(self):
        mr = MemoryRegion("owner", 1 * GiB)
        assert mr.resident_bytes == 0
        mr.write(123 * PAGE_SIZE, b"x")
        assert mr.resident_bytes == 4096

    def test_zero_writes_need_no_backing(self):
        mr = MemoryRegion("owner", 1 * MiB)
        mr.write(0, bytes(PAGE_SIZE))
        assert mr.resident_bytes == 0
        assert mr.read(0, PAGE_SIZE) == bytes(PAGE_SIZE)

    def test_zero_overwrite_clears_previous_content(self):
        mr = MemoryRegion("owner", 1 * MiB)
        mr.write(0, b"data")
        mr.write(0, bytes(4))
        assert mr.read(0, 4) == bytes(4)

    def test_out_of_bounds_rejected(self):
        mr = MemoryRegion("owner", 100)
        with pytest.raises(MemoryRegionError):
            mr.read(90, 20)
        with pytest.raises(MemoryRegionError):
            mr.write(99, b"ab")

    def test_invalidated_mr_rejects_access(self):
        mr = MemoryRegion("owner", 100)
        mr.invalidate()
        with pytest.raises(MemoryRegionError):
            mr.read(0, 1)

    def test_permission_enforcement(self):
        mr = MemoryRegion("owner", 100, access=AccessFlags.REMOTE_READ)
        mr._chunks  # readable
        with pytest.raises(MemoryRegionError):
            mr.write(0, b"x")

    def test_rkeys_are_unique(self):
        assert MemoryRegion("a", 10).rkey != MemoryRegion("a", 10).rkey


class TestQueuePair:
    def test_connect_reaches_rts(self):
        qp = QueuePair("a", "b")
        qp.connect()
        assert qp.state is QpState.RTS

    def test_illegal_transition_rejected(self):
        qp = QueuePair("a", "b")
        with pytest.raises(QueuePairError):
            qp.modify(QpState.RTS)  # RESET -> RTS skips INIT/RTR

    def test_work_requires_rts(self):
        qp = QueuePair("a", "b")
        with pytest.raises(QueuePairError):
            qp.require_rts()

    def test_destroy_resets(self):
        qp = QueuePair("a", "b")
        qp.connect()
        qp.destroy()
        assert qp.state is QpState.RESET


class TestOneSidedVerbs:
    def _pair(self):
        fabric = Fabric()
        a = fabric.add_node("a")
        b = fabric.add_node("b")
        mr = b.register_mr(64 * 1024)
        qp = a.connect_qp("b")
        return fabric, a, b, mr, qp

    def test_write_then_read(self):
        _, a, _, mr, qp = self._pair()
        a.rdma_write(qp, mr.rkey, 0, b"hello rack")
        assert a.rdma_read(qp, mr.rkey, 0, 10) == b"hello rack"

    def test_timing_returned(self):
        fabric, a, _, mr, qp = self._pair()
        elapsed = a.rdma_write_timed(qp, mr.rkey, 0, b"x" * PAGE_SIZE)
        assert elapsed == pytest.approx(
            fabric.costs.transfer_time(PAGE_SIZE)
        )

    def test_stats_accumulate(self):
        fabric, a, _, mr, qp = self._pair()
        a.rdma_write(qp, mr.rkey, 0, b"abc")
        a.rdma_read(qp, mr.rkey, 0, 3)
        assert fabric.stats.writes == 1
        assert fabric.stats.reads == 1
        assert fabric.stats.bytes_written == 3
        assert fabric.stats.bytes_read == 3
        assert fabric.stats.busy_seconds > 0

    def test_unknown_rkey_rejected(self):
        _, a, _, _, qp = self._pair()
        with pytest.raises(MemoryRegionError):
            a.rdma_read(qp, 0xDEAD, 0, 1)

    def test_foreign_qp_rejected(self):
        fabric, a, b, mr, _ = self._pair()
        qp_b = b.connect_qp("a")
        with pytest.raises(RdmaError):
            a.rdma_read(qp_b, mr.rkey, 0, 1)

    def test_duplicate_node_name_rejected(self):
        fabric = Fabric()
        fabric.add_node("x")
        with pytest.raises(RdmaError):
            fabric.add_node("x")


class TestPowerGating:
    def _gated(self):
        fabric = Fabric()
        user = fabric.add_node("user")
        platform = build_platform("target", memory_bytes=1 * GiB)
        target = fabric.add_node("target", platform=platform)
        mr = target.register_mr(1 * MiB)
        qp = user.connect_qp("target")
        return fabric, user, platform, mr, qp

    def test_zombie_serves_one_sided_verbs(self):
        _, user, platform, mr, qp = self._gated()
        user.rdma_write(qp, mr.rkey, 0, b"before")
        platform.go_zombie()
        assert user.rdma_read(qp, mr.rkey, 0, 6) == b"before"
        user.rdma_write(qp, mr.rkey, 0, b"during")  # writes too

    def test_s3_blocks_one_sided_verbs(self):
        _, user, platform, mr, qp = self._gated()
        platform.suspend(SleepState.S3)
        with pytest.raises(RdmaError):
            user.rdma_read(qp, mr.rkey, 0, 1)

    def test_s5_blocks_one_sided_verbs(self):
        _, user, platform, mr, qp = self._gated()
        platform.suspend(SleepState.S5)
        with pytest.raises(RdmaError):
            user.rdma_write(qp, mr.rkey, 0, b"x")

    def test_suspended_initiator_cannot_post(self):
        fabric = Fabric()
        platform = build_platform("init", memory_bytes=1 * GiB)
        initiator = fabric.add_node("init", platform=platform)
        target = fabric.add_node("tgt")
        mr = target.register_mr(1 * MiB)
        qp = initiator.connect_qp("tgt")
        platform.go_zombie()
        with pytest.raises(RdmaError):
            initiator.rdma_read(qp, mr.rkey, 0, 1)

    def test_wake_restores_service(self):
        _, user, platform, mr, qp = self._gated()
        platform.suspend(SleepState.S3)
        platform.wake()
        user.rdma_write(qp, mr.rkey, 0, b"ok")


class TestRpc:
    def _endpoints(self, with_platform=False):
        fabric = Fabric()
        platform = None
        if with_platform:
            platform = build_platform("srv", memory_bytes=1 * GiB)
        server_node = fabric.add_node("srv", platform=platform)
        client_node = fabric.add_node("cli")
        server = RpcServer(server_node)
        client = RpcClient(client_node, server)
        return fabric, server, client, platform

    def test_call_round_trip(self):
        _, server, client, _ = self._endpoints()
        server.register("add", lambda a, b: a + b)
        assert client.call("add", 2, 3) == 5

    def test_kwargs_pass_through(self):
        _, server, client, _ = self._endpoints()
        server.register("fmt", lambda x, pad=0: str(x).rjust(pad))
        assert client.call("fmt", 7, pad=3) == "  7"

    def test_unknown_method(self):
        _, server, client, _ = self._endpoints()
        with pytest.raises(RpcError):
            client.call("nope")

    def test_duplicate_registration(self):
        _, server, _, _ = self._endpoints()
        server.register("m", lambda: None)
        with pytest.raises(RpcError):
            server.register("m", lambda: None)

    def test_zombie_server_times_out(self):
        _, server, client, platform = self._endpoints(with_platform=True)
        server.register("ping", lambda: "pong")
        platform.go_zombie()
        with pytest.raises(RpcTimeoutError):
            client.call("ping")

    def test_polling_accounted(self):
        _, server, client, _ = self._endpoints()
        server.register("ping", lambda: "pong")
        client.call("ping")
        assert client.polls >= 1
        assert client.time_spent_s > 0

    def test_call_timed_returns_elapsed(self):
        fabric, server, client, _ = self._endpoints()
        server.register("ping", lambda: "pong")
        result, elapsed = client.call_timed("ping")
        assert result == "pong"
        assert elapsed == pytest.approx(fabric.costs.rpc_time())

    def test_rpc_slower_than_one_sided(self):
        costs = RdmaCostModel()
        assert costs.rpc_time() > costs.transfer_time(PAGE_SIZE)


class TestCostModel:
    def test_transfer_time_grows_with_size(self):
        costs = RdmaCostModel()
        assert costs.transfer_time(1) < costs.transfer_time(1 * MiB)

    def test_ordering_local_rdma(self):
        costs = RdmaCostModel()
        assert costs.local_page_access_s < costs.transfer_time(PAGE_SIZE)

    def test_negative_size_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            RdmaCostModel().transfer_time(-1)

    def test_invalid_bandwidth_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            RdmaCostModel(bandwidth_bytes_per_s=0)


class _CountingRng:
    """A seeded stream that counts the uniforms drawn from it."""

    def __init__(self, seed: int):
        self._rng = DeterministicRng(seed)
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self._rng.random()


class TestMessageFaultInjector:
    def test_four_uniforms_per_message_whether_or_not_a_script_fires(self):
        injector = MessageFaultInjector(_CountingRng(5))
        injector.set_link("*", "*", LinkFaults(reply_loss=0.5))
        injector.script("a", "b", DUPLICATE, method="m")
        decisions = [injector.decide("a", "b", method)
                     for method in ("x", "m", "m", "y")]
        assert injector.rng.draws == 16
        assert [d.duplicate for d in decisions] == [False, True, False,
                                                    False]
        # The same draws, in the same order, as a script-free injector.
        plain = MessageFaultInjector(DeterministicRng(5))
        plain.set_link("*", "*", LinkFaults(reply_loss=0.5))
        assert [d.drop_reply for d in decisions] == [
            plain.decide("a", "b", method).drop_reply
            for method in ("x", "m", "m", "y")]

    def test_active_turns_false_once_the_last_one_shot_is_consumed(self):
        injector = MessageFaultInjector()
        injector.script("a", "b", REPLY_LOSS, method="m")
        injector.script("*", "b", DUPLICATE)
        assert injector.active
        assert injector.decide("a", "b", "x").duplicate
        assert injector.active
        assert injector.decide("a", "c", "m").kinds() == []  # no match
        assert injector.active
        assert injector.decide("a", "b", "m").drop_reply
        assert not injector.active
        assert injector.injected[REPLY_LOSS] == 1
        assert injector.injected[DUPLICATE] == 1
