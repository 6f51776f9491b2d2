"""Retry policy and per-channel circuit breaker, on simulated time only."""

import pytest

from repro.errors import (CircuitOpenError, RdmaError, RpcError,
                          RpcTimeoutError)
from repro.rdma.fabric import Fabric
from repro.rdma.rpc import (BreakerState, CircuitBreaker, RetryPolicy,
                            RpcClient, RpcServer, is_retryable)
from repro.sim.engine import Engine
from repro.sim.rng import DeterministicRng


def _channel(policy=None, timeout_s=1.0, engine=None):
    fabric = Fabric(engine=engine)
    a = fabric.add_node("client")
    b = fabric.add_node("server")
    server = RpcServer(b)
    client = RpcClient(a, server, timeout_s=timeout_s, retry_policy=policy)
    return fabric, server, client


class TestRetryability:
    def test_timeout_and_link_faults_retryable(self):
        assert is_retryable(RpcTimeoutError("poll deadline"))
        assert is_retryable(RdmaError("link down"))

    def test_protocol_errors_not_retryable(self):
        assert not is_retryable(RpcError("unknown method"))
        assert not is_retryable(ValueError("handler bug"))


class TestRetryLoop:
    def test_transient_partition_is_retried(self):
        policy = RetryPolicy(max_attempts=4, rng=DeterministicRng(7))
        fabric, server, client = _channel(policy)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                # Simulate the fabric dropping the response twice.
                raise RpcTimeoutError("response lost")
            return "ok"

        server.register("flaky", flaky)
        assert client.call("flaky") == "ok"
        assert len(calls) == 3
        assert client.retries == 2
        assert policy.stats.retries == 2
        assert policy.stats.calls == 1
        assert policy.stats.attempts == 3

    def test_gives_up_after_max_attempts(self):
        policy = RetryPolicy(max_attempts=3, rng=DeterministicRng(7))
        fabric, server, client = _channel(policy)
        fabric.partition("server")
        with pytest.raises(RpcTimeoutError):
            client.call("anything")
        assert policy.stats.attempts == 3
        assert policy.stats.giveups == 1

    def test_non_retryable_error_is_single_shot(self):
        policy = RetryPolicy(max_attempts=5, rng=DeterministicRng(7))
        fabric, server, client = _channel(policy)
        with pytest.raises(RpcError):
            client.call("no_such_method")
        assert policy.stats.attempts == 1
        # Protocol answers prove the channel works: breaker stays closed.
        assert client.breaker.state is BreakerState.CLOSED
        assert client.breaker.consecutive_failures == 0

    def test_deadline_bounds_total_simulated_time(self):
        # timeout 1 s/attempt, so the third attempt would push past 2.5 s.
        policy = RetryPolicy(max_attempts=10, deadline_s=2.5,
                             rng=DeterministicRng(7))
        fabric, server, client = _channel(policy)
        fabric.partition("server")
        with pytest.raises(RpcTimeoutError):
            client.call("anything")
        assert policy.stats.attempts <= 3
        assert policy.stats.deadline_exhausted == 1

    def test_backoff_is_deterministic_and_bounded(self):
        mk = lambda: RetryPolicy(base_backoff_s=0.010, backoff_multiplier=2.0,
                                 max_backoff_s=0.05, jitter_fraction=0.25,
                                 rng=DeterministicRng(42))
        a, b = mk(), mk()
        seq_a = [a.backoff_delay(i) for i in range(1, 8)]
        seq_b = [b.backoff_delay(i) for i in range(1, 8)]
        assert seq_a == seq_b  # same seed, same jitter
        for i, delay in enumerate(seq_a, start=1):
            raw = min(0.05, 0.010 * 2.0 ** (i - 1))
            assert raw * 0.75 <= delay <= raw * 1.25

    def test_no_retry_policy_is_single_attempt(self):
        policy = RetryPolicy.no_retry()
        fabric, server, client = _channel(policy)
        fabric.partition("server")
        with pytest.raises(RpcTimeoutError):
            client.call("anything")
        assert policy.stats.attempts == 1

    def test_client_without_a_policy_tries_once_behind_a_fabric_breaker(self):
        fabric, _, client = _channel(policy=None)
        threshold = client.breaker.failure_threshold
        fabric.partition("server")
        for _ in range(threshold):
            with pytest.raises(RpcTimeoutError):
                client.call("anything")
        stats = client.retry_policy.stats
        assert stats.calls == stats.attempts == threshold  # one per call
        assert client.breaker.state is BreakerState.OPEN
        fabric.heal("server")  # the fabric knows this breaker
        assert client.breaker.state is BreakerState.HALF_OPEN


class TestCircuitBreaker:
    def test_trips_after_threshold_and_fails_fast(self):
        engine = Engine()
        policy = RetryPolicy.no_retry(failure_threshold=3, cooldown_s=10.0)
        fabric, server, client = _channel(policy, engine=engine)
        fabric.partition("server")
        for _ in range(3):
            with pytest.raises(RpcTimeoutError):
                client.call("x")
        assert client.breaker.state is BreakerState.OPEN
        assert client.breaker.trips == 1
        served_before = client.calls_made
        with pytest.raises(CircuitOpenError):
            client.call("x")
        assert client.calls_made == served_before  # no fabric traffic
        assert client.breaker.fast_failures == 1

    def test_half_open_probe_success_closes(self):
        engine = Engine()
        policy = RetryPolicy.no_retry(failure_threshold=2, cooldown_s=5.0)
        fabric, server, client = _channel(policy, engine=engine)
        server.register("ping", lambda: "pong")
        fabric.partition("server")
        for _ in range(2):
            with pytest.raises(RpcTimeoutError):
                client.call("ping")
        assert client.breaker.state is BreakerState.OPEN

        # Cooldown passes on the *sim* clock; the channel heals meanwhile.
        fabric.heal("server")
        engine.schedule_at(6.0, lambda: None)
        engine.run()
        assert engine.now == 6.0
        assert client.call("ping") == "pong"
        assert client.breaker.state is BreakerState.CLOSED
        assert client.breaker.half_opens == 1
        assert client.breaker.closes == 1

    def test_heal_half_opens_without_waiting_out_cooldown(self):
        # Fabric.heal() is positive evidence the channel is back; the
        # breaker moves OPEN → HALF_OPEN immediately so the next call is
        # a probe, instead of fast-failing for the rest of the cooldown.
        engine = Engine()
        policy = RetryPolicy.no_retry(failure_threshold=2, cooldown_s=500.0)
        fabric, server, client = _channel(policy, engine=engine)
        server.register("ping", lambda: "pong")
        fabric.partition("server")
        for _ in range(2):
            with pytest.raises(RpcTimeoutError):
                client.call("ping")
        assert client.breaker.state is BreakerState.OPEN

        fabric.heal("server")  # no sim time passes at all
        assert client.breaker.state is BreakerState.HALF_OPEN
        assert client.call("ping") == "pong"
        assert client.breaker.state is BreakerState.CLOSED
        assert client.breaker.half_opens == 1
        assert client.breaker.closes == 1

    def test_heal_leaves_closed_and_half_open_breakers_alone(self):
        engine = Engine()
        policy = RetryPolicy.no_retry(failure_threshold=2, cooldown_s=5.0)
        fabric, server, client = _channel(policy, engine=engine)
        assert client.breaker.state is BreakerState.CLOSED
        fabric.heal("server")  # healing an unbroken channel: no-op
        assert client.breaker.state is BreakerState.CLOSED
        assert client.breaker.half_opens == 0

        fabric.partition("server")
        for _ in range(2):
            with pytest.raises(RpcTimeoutError):
                client.call("x")
        fabric.heal("server")
        fabric.heal("server")  # second heal must not double-count
        assert client.breaker.state is BreakerState.HALF_OPEN
        assert client.breaker.half_opens == 1

    def test_half_open_probe_failure_reopens(self):
        engine = Engine()
        policy = RetryPolicy.no_retry(failure_threshold=2, cooldown_s=5.0)
        fabric, server, client = _channel(policy, engine=engine)
        fabric.partition("server")
        for _ in range(2):
            with pytest.raises(RpcTimeoutError):
                client.call("x")
        engine.schedule_at(6.0, lambda: None)
        engine.run()
        with pytest.raises(RpcTimeoutError):
            client.call("x")  # the half-open probe, still partitioned
        assert client.breaker.state is BreakerState.OPEN
        assert client.breaker.trips == 2
        # The fresh OPEN stint starts at the probe time, not the old trip.
        assert client.breaker.opened_at == 6.0

    def test_retry_loop_stops_when_breaker_trips_midcall(self):
        engine = Engine()
        policy = RetryPolicy(max_attempts=10, deadline_s=None,
                             failure_threshold=2, cooldown_s=5.0,
                             rng=DeterministicRng(7))
        fabric, server, client = _channel(policy, engine=engine)
        fabric.partition("server")
        with pytest.raises(RpcTimeoutError):
            client.call("x")
        # Tripped on the 2nd failure; didn't burn the other 8 attempts.
        assert policy.stats.attempts == 2
        assert client.breaker.state is BreakerState.OPEN

    def test_policy_less_breaker_cools_down_on_the_fabric_engine(self,
                                                                monkeypatch):
        # A client built without a policy still has a breaker on its
        # fabric's clock: after cooldown_s of engine time the next call
        # is a half-open probe, and it succeeds once the daemon is back.
        fabric, server, client = _channel(policy=None)
        server.register("ping", lambda: "pong")
        breaker = client.breaker
        monkeypatch.setattr(server, "_daemon_runs", lambda: False)
        for _ in range(breaker.failure_threshold):
            with pytest.raises(RpcTimeoutError):
                client.call("ping")
        assert breaker.state is BreakerState.OPEN
        monkeypatch.undo()
        with pytest.raises(CircuitOpenError):
            client.call("ping")  # still cooling down
        fabric.engine.run(until=fabric.engine.now + breaker.cooldown_s)
        assert client.call("ping") == "pong"
        assert breaker.half_opens == 1
        assert breaker.state is BreakerState.CLOSED

    def test_breaker_is_per_channel_even_with_shared_policy(self):
        engine = Engine()
        policy = RetryPolicy.no_retry(failure_threshold=1)
        fabric = Fabric(engine=engine)
        n = fabric.add_node("client")
        s1 = RpcServer(fabric.add_node("s1"))
        s2 = RpcServer(fabric.add_node("s2"))
        s2.register("ping", lambda: "pong")
        c1 = RpcClient(n, s1, retry_policy=policy)
        c2 = RpcClient(n, s2, retry_policy=policy)
        fabric.partition("s1")
        with pytest.raises(RpcTimeoutError):
            c1.call("ping")
        assert c1.breaker.state is BreakerState.OPEN
        assert c2.breaker.state is BreakerState.CLOSED
        assert c2.call("ping") == "pong"  # unaffected channel

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(Fabric().clock, failure_threshold=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestClosedBreakerIsFree:
    """What a call may skip on a closed breaker must not change it.

    The round trip consults the breaker only while it is open, half-open
    or holding failures; each test here holds with every call consulting
    it, and must keep holding.
    """

    def _flaky_channel(self, answer):
        engine = Engine()
        policy = RetryPolicy(max_attempts=2, deadline_s=None,
                             failure_threshold=3, cooldown_s=5.0,
                             rng=DeterministicRng(7))
        fabric, server, client = _channel(policy, engine=engine)
        failures = [1]

        def flaky():
            if failures:
                failures.pop()
                raise RpcTimeoutError("response lost")
            return answer()

        server.register("flaky", flaky)
        server.register("down", lambda: _raise(RpcTimeoutError("lost")))
        return client

    @pytest.mark.parametrize("answer", [
        lambda: "ok",
        lambda: _raise(RpcError("rejected")),  # a protocol-level answer
    ], ids=["result", "non-retryable error"])
    def test_answer_after_a_failure_clears_it(self, answer):
        client = self._flaky_channel(answer)
        try:
            client.call("flaky")
        except RpcError:
            pass
        breaker = client.breaker
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0
        # failure_threshold - 1 = 2 more failures: one call, two attempts.
        with pytest.raises(RpcTimeoutError):
            client.call("down")
        assert breaker.consecutive_failures == 2
        assert breaker.state is BreakerState.CLOSED
        assert breaker.trips == 0

    def test_half_open_success_counts_one_close(self):
        engine = Engine()
        policy = RetryPolicy.no_retry(failure_threshold=2, cooldown_s=500.0)
        fabric, server, client = _channel(policy, engine=engine)
        server.register("ping", lambda: "pong")
        fabric.partition("server")
        for _ in range(2):
            with pytest.raises(RpcTimeoutError):
                client.call("ping")
        fabric.heal("server")
        assert client.breaker.state is BreakerState.HALF_OPEN
        for _ in range(3):
            assert client.call("ping") == "pong"
        assert client.breaker.state is BreakerState.CLOSED
        assert client.breaker.closes == 1

    def test_closed_breaker_never_holds_an_open_time(self):
        engine = Engine()
        policy = RetryPolicy.no_retry(failure_threshold=2, cooldown_s=5.0)
        fabric, server, client = _channel(policy, engine=engine)
        server.register("ping", lambda: "pong")
        breaker = client.breaker
        seen = []

        def step(action):
            try:
                action()
            except RpcError:
                pass
            seen.append(breaker.state)
            if breaker.state is BreakerState.CLOSED:
                assert breaker.opened_at is None
            else:
                assert breaker.opened_at is not None

        step(lambda: client.call("ping"))
        step(lambda: fabric.partition("server"))
        step(lambda: client.call("ping"))       # one failure, still closed
        step(lambda: client.call("ping"))       # trips
        step(lambda: client.call("ping"))       # fast failure
        step(lambda: engine.run(until=6.0))
        step(lambda: client.call("ping"))       # half-open probe fails
        step(lambda: fabric.heal("server"))
        step(lambda: client.call("ping"))       # half-open probe closes
        step(lambda: client.call("ping"))
        assert seen == [
            BreakerState.CLOSED, BreakerState.CLOSED, BreakerState.CLOSED,
            BreakerState.OPEN, BreakerState.OPEN, BreakerState.OPEN,
            BreakerState.OPEN, BreakerState.HALF_OPEN, BreakerState.CLOSED,
            BreakerState.CLOSED]


def _raise(exc):
    raise exc
