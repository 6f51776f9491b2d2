"""Trace propagation through the RPC layer: retries, breaker, failover.

These are the satellite-3 contract tests: one logical operation must stay
one connected span tree no matter what the fault layer does to it —
dropped responses and retries, a circuit breaker failing the call fast,
or a primary→secondary failover mid-operation.
"""

import pytest

from repro.errors import CircuitOpenError, RpcTimeoutError
from repro.obs import Telemetry
from repro.obs.selfcheck import (connected_subtree,
                                 run_failover_retry_scenario)
from repro.obs.tracing import span_forest_errors
from repro.rdma.fabric import Fabric
from repro.rdma.rpc import RetryPolicy, RpcClient, RpcServer
from repro.sim.rng import DeterministicRng


def _traced_channel(policy=None, verb="GS_ping", handler=None):
    """A minimal instrumented client/server pair serving one verb."""
    tel = Telemetry(enabled=True)
    fabric = Fabric(telemetry=tel)
    a = fabric.add_node("client")
    b = fabric.add_node("server")
    server = RpcServer(b)
    server.register(verb, handler or (lambda: "ok"))
    client = RpcClient(a, server, retry_policy=policy)
    return tel, fabric, server, client


class TestRetryPropagation:
    def test_retried_call_stays_one_connected_tree(self):
        drops = {"left": 2}

        def flaky():
            if drops["left"] > 0:
                drops["left"] -= 1
                raise RpcTimeoutError("response lost")
            return "ok"

        policy = RetryPolicy(max_attempts=4, rng=DeterministicRng(7))
        tel, _, _, client = _traced_channel(policy, handler=flaky)
        assert client.call("GS_ping") == "ok"

        (call,) = tel.tracer.finished("call.GS_ping")
        trace = tel.tracer.trace(call.trace_id)
        assert span_forest_errors(trace) == []
        attempts = [s for s in trace if s.name == "attempt.GS_ping"]
        serves = [s for s in trace if s.name == "serve.GS_ping"]
        assert len(attempts) == 3
        assert len(serves) == 3
        # Every attempt hangs off the logical call, every server-side
        # span off the specific attempt whose request reached it.
        assert {s.parent_id for s in attempts} == {call.span_id}
        assert ({s.parent_id for s in serves}
                == {s.span_id for s in attempts})
        assert call.tags["retries"] == 2
        assert tel.registry.value("rpc_retries_total", verb="GS_ping") == 2

    def test_failed_serve_spans_carry_error_status(self):
        def always_drop():
            raise RpcTimeoutError("response lost")

        policy = RetryPolicy(max_attempts=2, rng=DeterministicRng(7))
        tel, _, _, client = _traced_channel(policy, handler=always_drop)
        with pytest.raises(RpcTimeoutError):
            client.call("GS_ping")
        serves = tel.tracer.finished("serve.GS_ping")
        assert len(serves) == 2
        assert all(s.status == "error" for s in serves)
        (call,) = tel.tracer.finished("call.GS_ping")
        assert call.status == "error"
        assert tel.registry.value("rpc_failures_total", verb="GS_ping",
                                  outcome="timeout") == 1


class TestBreakerPropagation:
    def test_breaker_open_is_a_traced_fast_failure(self):
        policy = RetryPolicy.no_retry(failure_threshold=2, cooldown_s=30.0)
        tel, fabric, _, client = _traced_channel(policy)
        fabric.partition("server")
        for _ in range(2):
            with pytest.raises(RpcTimeoutError):
                client.call("GS_ping")
        with pytest.raises(CircuitOpenError):
            client.call("GS_ping")

        assert tel.registry.value("rpc_failures_total", verb="GS_ping",
                                  outcome="breaker_open") == 1
        fast = tel.tracer.finished("call.GS_ping")[-1]
        assert fast.status == "error"
        assert fast.tags["error"] == "CircuitOpenError"
        # Fail-fast means no attempt ever left the client: the call span
        # is a childless root, and the forest is still structurally sound.
        trace = tel.tracer.trace(fast.trace_id)
        assert [s.name for s in trace] == ["call.GS_ping"]
        assert span_forest_errors(tel.tracer.finished()) == []


class TestFailoverPropagation:
    def test_goto_zombie_survives_retries_and_failover_as_one_tree(self):
        tel, trace_id = run_failover_retry_scenario()
        trace = tel.tracer.trace(trace_id)
        assert span_forest_errors(trace) == []

        subtree = connected_subtree(trace, "call.GS_goto_zombie")
        names = [s.name for s in subtree]
        assert names.count("attempt.GS_goto_zombie") == 3
        assert names.count("serve.GS_goto_zombie") == 3
        serves = [s for s in subtree if s.name == "serve.GS_goto_zombie"]
        assert sum(1 for s in serves if s.status == "error") == 2
        # The surviving attempt was served by the promoted secondary.
        assert any(s.status == "ok" for s in serves)
        assert tel.registry.value("rpc_retries_total",
                                  verb="GS_goto_zombie") == 2
        assert tel.registry.value("rack_events_total", kind="failover") == 1

    def test_fenced_epoch_probe_leaves_a_tagged_span(self):
        tel, _ = run_failover_retry_scenario()
        fenced = [s for s in tel.tracer.finished()
                  if s.tags.get("fenced")]
        assert fenced, "stale-epoch probe left no fenced-tagged span"
        assert any(s.name.startswith("serve.") for s in fenced)
        assert tel.registry.value("rpc_failures_total", verb="heartbeat",
                                  outcome="fenced") >= 1


class TestDisabledTelemetry:
    def test_disabled_hub_records_nothing_on_the_rpc_path(self):
        policy = RetryPolicy(rng=DeterministicRng(7))
        fabric = Fabric()  # default: disabled telemetry
        a = fabric.add_node("client")
        b = fabric.add_node("server")
        server = RpcServer(b)
        server.register("GS_ping", lambda: "ok")
        client = RpcClient(a, server, retry_policy=policy)
        assert client.call("GS_ping") == "ok"
        tel = fabric.telemetry
        assert not tel.enabled
        assert tel.tracer.finished() == []
        assert tel.registry.families() == []
