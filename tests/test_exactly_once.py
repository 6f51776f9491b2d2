"""Exactly-once verb semantics and end-to-end deadline propagation.

The client stamps every logical call with one ``(client_id, seq)``
request id that all retries share; servers answer re-deliveries of
``dedup_required`` verbs from a bounded, epoch-aware dedup table instead
of re-executing.  The remaining deadline budget travels in the request,
beside the arguments: servers fast-fail work whose budget is already
spent and push the delivered remainder for nested RPCs to inherit.
"""

import pytest

from repro.core.protocol import Method
from repro.errors import (ConfigurationError, DeadlineExceededError,
                          RpcTimeoutError)
from repro.obs import Telemetry
from repro.rdma.fabric import (DUPLICATE, REORDER, REPLY_LOSS, Fabric,
                               LinkFaults)
from repro.rdma.rpc import RetryPolicy, RpcClient, RpcServer, is_retryable
from repro.sim.rng import DeterministicRng


def _channel(policy=None, timeout_s=1.0):
    fabric = Fabric()
    a = fabric.add_node("client")
    b = fabric.add_node("server")
    server = RpcServer(b)
    client = RpcClient(a, server, timeout_s=timeout_s, retry_policy=policy)
    return fabric, server, client


def _register_counter(server, verb, calls, idempotency="dedup_required"):
    def bump():
        calls.append(1)
        return len(calls)
    server.register(verb, bump, idempotency=idempotency)


class TestExactlyOnce:
    def test_reply_loss_retry_is_answered_from_dedup(self):
        policy = RetryPolicy(max_attempts=4, rng=DeterministicRng(7))
        fabric, server, client = _channel(policy)
        calls = []
        _register_counter(server, "bump", calls)
        fabric.message_faults.script("client", "server", REPLY_LOSS,
                                     method="bump")
        # First delivery executes (reply lost); the retry presents the
        # same request id and is answered from the dedup table.
        assert client.call("bump") == 1
        assert len(calls) == 1
        assert server.dedup_replays == 1
        assert client.retries == 1

    def test_wire_duplicate_executes_once(self):
        policy = RetryPolicy(max_attempts=2, rng=DeterministicRng(7))
        fabric, server, client = _channel(policy)
        calls = []
        _register_counter(server, "bump", calls)
        fabric.message_faults.script("client", "server", DUPLICATE,
                                     method="bump")
        assert client.call("bump") == 1
        assert len(calls) == 1
        assert server.dedup_replays == 1

    def test_reorder_re_presents_the_previous_request_under_its_own_id(self):
        # A stale retransmission of call 1 reaches the server ahead of
        # call 2, still carrying call 1's request id.
        fabric, server, client = _channel()
        bumps, plain = [], []
        _register_counter(server, "bump", bumps)
        server.register("plain", lambda: plain.append(1) or len(plain))
        assert client.call("bump") == 1
        fabric.message_faults.script("client", "server", REORDER)
        assert client.call("bump") == 2
        assert len(bumps) == 2  # the stale copy was answered from the table
        assert server.dedup_replays == 1
        client.call("plain")
        fabric.message_faults.script("client", "server", REORDER)
        client.call("plain")
        assert len(plain) == 3  # an unclassified verb re-runs it
        assert server.dedup_replays == 1
        assert fabric.message_faults.injected[REORDER] == 2

    def test_unclassified_verb_falls_back_to_at_least_once(self):
        # Verbs without an idempotency class get no dedup protection —
        # the wire duplicate re-executes.  This is the documented
        # fallback for ad-hoc fixture verbs, not a bug.
        policy = RetryPolicy(max_attempts=2, rng=DeterministicRng(7))
        fabric, server, client = _channel(policy)
        calls = []
        server.register("bump", lambda: calls.append(1) or len(calls))
        fabric.message_faults.script("client", "server", DUPLICATE,
                                     method="bump")
        client.call("bump")
        assert len(calls) == 2
        assert server.dedup_replays == 0

    def test_retryable_outcome_is_never_cached(self):
        # A timeout produced no response; the whole point of the retry
        # is to run the handler again, so nothing must be replayed.
        policy = RetryPolicy(max_attempts=4, rng=DeterministicRng(7))
        fabric, server, client = _channel(policy)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise RpcTimeoutError("response lost")
            return "ok"

        server.register("flaky", flaky, idempotency="dedup_required")
        assert client.call("flaky") == "ok"
        assert len(calls) == 2
        assert server.dedup_replays == 0

    def test_non_retryable_error_is_replayed_from_cache(self):
        fabric, server, client = _channel()
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("handler bug")

        server.register("boom", boom, idempotency="dedup_required")
        req_id = ("client#1", 1)
        with pytest.raises(ValueError):
            server.dispatch("boom", (), {}, req_id=req_id)
        with pytest.raises(ValueError):
            server.dispatch("boom", (), {}, req_id=req_id)
        assert len(calls) == 1  # the error is the response; replay it
        assert server.dedup_replays == 1

    def test_request_ids_are_fresh_per_logical_call(self):
        policy = RetryPolicy(max_attempts=2, rng=DeterministicRng(7))
        fabric, server, client = _channel(policy)
        calls = []
        _register_counter(server, "bump", calls)
        assert client.call("bump") == 1
        assert client.call("bump") == 2  # no false dedup across calls
        assert server.dedup_replays == 0
        assert len(server._dedup) == 2

    def test_dedup_table_is_a_bounded_lru(self):
        fabric, server, client = _channel()
        server.dedup_capacity = 3
        calls = []
        _register_counter(server, "bump", calls)
        for seq in range(1, 6):
            server.dispatch("bump", (), {}, req_id=("c#1", seq))
        assert len(server._dedup) == 3
        # The oldest ids were evicted; the newest survive.
        assert set(server._dedup) == {("bump", ("c#1", s)) for s in (3, 4, 5)}

    def test_epoch_advance_purges_stale_entries(self):
        fabric, server, client = _channel()
        server.register("work", lambda: None, idempotency="dedup_required")
        server.dispatch("work", (), {}, req_id=("c#1", 1), stamp=(None, 1))
        server.dispatch("work", (), {}, req_id=("c#1", 2), stamp=(None, 1))
        assert len(server._dedup) == 2
        # The rack moves to epoch 2: epoch-1 responses would be fenced on
        # replay anyway, so they are purged rather than kept warm.
        server.dispatch("work", (), {}, req_id=("c#1", 3), stamp=(None, 2))
        assert set(server._dedup) == {("work", ("c#1", 3))}

    def test_epoch_watermark_is_kept_per_rack(self):
        # A tenant homed away from its own rack is called by two racks,
        # each with its own epoch: one rack's advance must not purge the
        # other's cached replies.
        fabric, server, client = _channel()
        calls = []

        def work(who):
            calls.append(who)
            return who

        server.register("work", work, idempotency="dedup_required")
        from_a = {"req_id": ("a#1", 1), "stamp": ("rackA", 1)}
        assert server.dispatch("work", ("A",), {}, **from_a) == "A"
        server.dispatch("work", ("B",), {}, req_id=("b#1", 1),
                        stamp=("rackB", 3))
        assert ("work", ("a#1", 1)) in server._dedup
        # A's redelivery is answered from the cache, not re-executed.
        assert server.dispatch("work", ("A",), {}, **from_a) == "A"
        assert server.dedup_replays == 1
        assert calls == ["A", "B"]
        # A's own advance still purges A's stale entry, and only it.
        server.dispatch("work", ("A",), {}, req_id=("a#1", 2),
                        stamp=("rackA", 2))
        assert set(server._dedup) == {("work", ("b#1", 1)),
                                      ("work", ("a#1", 2))}


class TestRegistration:
    """``register`` is the only way to serve a verb: class and span
    come with it, for a rack's handlers and for a test's fakes alike."""

    def test_unregister_forgets_the_class_with_the_handler(self):
        fabric, server, client = _channel()
        calls = []
        _register_counter(server, "work", calls)
        server.unregister("work")
        server.register("work", lambda: calls.append(1))  # unclassified
        req_id = ("c#1", 1)
        server.dispatch("work", (), {}, req_id=req_id)
        server.dispatch("work", (), {}, req_id=req_id)
        assert len(calls) == 2
        assert server.dedup_replays == 0

    def test_bare_fake_of_a_protocol_verb_is_deduplicated_and_traced(self):
        # The tests/test_core_controller.py FakeAgent pattern: a plain
        # RpcServer, a bare handler, a dedup_required protocol verb.
        verb = Method.AS_GET_FREE_MEM.value
        tel = Telemetry(enabled=True)
        fabric = Fabric(telemetry=tel)
        server = RpcServer(fabric.add_node("server"))
        client = RpcClient(fabric.add_node("client"), server)
        calls = []
        server.register(verb, lambda: calls.append(1) or [])
        fabric.message_faults.script("client", "server", DUPLICATE,
                                     method=verb)
        assert client.call(verb) == []
        assert len(calls) == 1
        assert server.dedup_replays == 1
        assert len(tel.tracer.finished(f"serve.{verb}")) == 1

    def test_restating_a_protocol_verbs_class_is_refused(self):
        fabric, server, client = _channel()
        with pytest.raises(ConfigurationError):
            server.register(Method.GS_WAKE.value, lambda: None,
                            idempotency="dedup_required")
        assert Method.GS_WAKE.value not in server.handlers

    def test_unknown_class_for_an_ad_hoc_verb_is_refused(self):
        fabric, server, client = _channel()
        with pytest.raises(ConfigurationError):
            server.register("work", lambda: None, idempotency="best_effort")


class TestDeadlinePropagation:
    def test_spent_budget_fast_fails_before_the_handler(self):
        fabric, server, client = _channel()
        calls = []
        server.register("work", lambda: calls.append(1))
        with pytest.raises(DeadlineExceededError):
            server.dispatch("work", (), {}, budget=0.0)
        assert calls == []
        assert server.calls_served == 0  # never counted as served

    def test_deadline_exceeded_is_not_retryable(self):
        # Retrying deadline-dead work would only burn more budget.
        assert not is_retryable(DeadlineExceededError("budget spent"))

    def test_injected_latency_exhausts_the_budget_end_to_end(self):
        policy = RetryPolicy(max_attempts=3, deadline_s=1.5,
                             rng=DeterministicRng(7))
        fabric, server, client = _channel(policy)
        calls = []
        server.register("work", lambda: calls.append(1))
        # 2 s of injected latency against a 1.5 s budget: the request
        # arrives already dead and the server must not execute it.
        fabric.message_faults.set_link("client", "server",
                                       LinkFaults(extra_latency_s=2.0))
        with pytest.raises(DeadlineExceededError):
            client.call("work")
        assert calls == []

    def test_nested_rpc_inherits_the_delivered_budget(self):
        fabric = Fabric()
        edge = fabric.add_node("edge")
        mid = fabric.add_node("mid")
        leaf = fabric.add_node("leaf")
        server_mid, server_leaf = RpcServer(mid), RpcServer(leaf)
        inner = RpcClient(mid, server_leaf, timeout_s=1.0)
        seen = {}

        def leaf_work():
            seen["leaf"] = fabric.current_deadline()
            return "leaf-ok"

        def mid_work():
            seen["mid"] = fabric.current_deadline()
            return inner.call("leaf_work")

        server_leaf.register("leaf_work", leaf_work,
                             idempotency="dedup_required")
        server_mid.register("mid_work", mid_work,
                            idempotency="dedup_required")
        outer = RpcClient(edge, server_mid, timeout_s=1.0,
                          retry_policy=RetryPolicy(max_attempts=2,
                                                   deadline_s=4.0,
                                                   rng=DeterministicRng(7)))
        assert outer.call("mid_work") == "leaf-ok"
        # No sim time flows while a handler runs, so the mid-tier handler
        # sees the full delivered budget and forwards it unshrunk.
        assert seen["mid"] == pytest.approx(4.0)
        assert seen["leaf"] == pytest.approx(4.0)

    def test_nested_budget_shrinks_under_injected_latency(self):
        fabric = Fabric()
        edge = fabric.add_node("edge")
        mid = fabric.add_node("mid")
        leaf = fabric.add_node("leaf")
        server_mid, server_leaf = RpcServer(mid), RpcServer(leaf)
        inner = RpcClient(mid, server_leaf, timeout_s=1.0)
        seen = {}

        def leaf_work():
            seen["leaf"] = fabric.current_deadline()
            return "leaf-ok"

        server_leaf.register("leaf_work", leaf_work,
                             idempotency="dedup_required")
        server_mid.register("mid_work", lambda: inner.call("leaf_work"),
                            idempotency="dedup_required")
        outer = RpcClient(edge, server_mid, timeout_s=1.0,
                          retry_policy=RetryPolicy(max_attempts=2,
                                                   deadline_s=4.0,
                                                   rng=DeterministicRng(7)))
        fabric.message_faults.set_link("mid", "leaf",
                                       LinkFaults(extra_latency_s=1.0))
        assert outer.call("mid_work") == "leaf-ok"
        assert seen["leaf"] == pytest.approx(3.0)  # 4.0 minus 1.0 in flight

    def test_calls_without_a_deadline_stay_unbudgeted(self):
        fabric, server, client = _channel()
        seen = {}
        server.register("work",
                        lambda: seen.setdefault("budget",
                                                fabric.current_deadline()))
        client.call("work")
        assert seen["budget"] is None
