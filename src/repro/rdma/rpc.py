"""RPC over RDMA with client-side polling, retries and circuit breaking.

The paper's control plane (remote-mem-mgr ↔ global-mem-ctr) runs RPC over
RDMA, with clients *polling* for results because inbound RDMA operations are
cheaper than outbound ones.  Unlike one-sided verbs, an RPC needs the server
CPU to dispatch the handler, so a zombie server cannot answer — this module
enforces that, which is exactly why controllers stay in S0.

Failure semantics: a transient fault (partition, suspended server) surfaces
as :class:`RpcTimeoutError`, and an :class:`RpcClient` built with a
:class:`RetryPolicy` retries it under bounded exponential backoff with
deterministic jitter, a per-call deadline, and a per-channel circuit
breaker.  All waiting is *simulated* time (accounted in ``time_spent_s``),
never a wall-clock sleep, so fault tests stay deterministic.

A closed breaker is free: a call consults it only while it is open or
half-open, or has consecutive failures to clear.  Otherwise ``allow()``
would return ``True`` and ``record_success()`` would write back what is
already there (a closed breaker never holds an ``opened_at``).
"""

from __future__ import annotations

import enum
import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import (CircuitOpenError, ConfigurationError,
                          DeadlineExceededError, FencingError, RpcError,
                          RpcTimeoutError)
from repro.obs.tracing import WIRE_CONTEXT_KEY
from repro.rdma.fabric import RdmaNode
from repro.sim.rng import DeterministicRng

Handler = Callable[..., Any]
Clock = Callable[[], float]

#: Metadata key carrying the logical request id ``(client_id, seq)``.
#: Stamped once per *logical* call (not per attempt): every retry and
#: every injected duplicate of that call presents the same id, which is
#: what lets the server deduplicate re-deliveries of mutating verbs.
REQUEST_ID_KEY = "__req_id__"

#: Metadata key carrying the caller's remaining deadline budget in
#: simulated seconds.  Servers fast-fail non-positive budgets and push
#: the delivered budget onto the fabric's deadline stack so nested
#: downstream RPCs inherit the shrunk remainder.
DEADLINE_KEY = "__deadline__"

#: Mirrors :data:`repro.core.protocol.DEDUP_REQUIRED` (kept as a local
#: literal so the transport layer never imports the protocol layer).
_DEDUP_REQUIRED = "dedup_required"

#: Deterministic channel numbering (same construction order, same ids —
#: the same trick the buffer-id counter uses).
_client_ids = itertools.count(1)


def is_retryable(exc: BaseException) -> bool:
    """Faults worth retrying: timeouts and fabric-level (link) failures.

    Protocol/handler errors (unknown method, controller rejections,
    fencing) and a suspended *client* CPU are deterministic — retrying
    cannot help, so they propagate immediately.
    """
    from repro.errors import RdmaError
    if isinstance(exc, RpcTimeoutError):
        return True
    return isinstance(exc, RdmaError) and not isinstance(exc, RpcError)


class BreakerState(enum.Enum):
    """Classic three-state circuit breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: The round trip's one breaker test reads a module global, not the enum.
_CLOSED = BreakerState.CLOSED


class CircuitBreaker:
    """Per-channel failure gate.

    Trips ``OPEN`` after ``failure_threshold`` *consecutive* retryable
    failures; while open, calls fail fast with :class:`CircuitOpenError`
    (no fabric traffic, no polling cost).  After ``cooldown_s`` of
    simulated time it half-opens and lets one probe through: success
    closes the breaker, failure re-opens it for another cooldown.
    """

    def __init__(self, failure_threshold: int = 5, cooldown_s: float = 30.0,
                 clock: Optional[Clock] = None):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.clock: Clock = clock or (lambda: 0.0)
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0
        self.fast_failures = 0
        self.half_opens = 0
        self.closes = 0

    def allow(self) -> bool:
        """Whether a call may proceed right now (may half-open)."""
        if self.state is BreakerState.OPEN:
            if self.clock() - self.opened_at >= self.cooldown_s:
                self.state = BreakerState.HALF_OPEN
                self.half_opens += 1
                return True
            self.fast_failures += 1
            return False
        return True

    def record_success(self) -> None:
        if self.state is not BreakerState.CLOSED:
            self.closes += 1
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = None

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if (self.state is BreakerState.HALF_OPEN
                or self.consecutive_failures >= self.failure_threshold):
            if self.state is not BreakerState.OPEN:
                self.trips += 1
            self.state = BreakerState.OPEN
            self.opened_at = self.clock()

    def notify_healed(self) -> None:
        """The fabric healed this breaker's server: half-open immediately.

        Without this, a healed host stays unreachable behind an open
        breaker for the rest of the cooldown even though the link is
        back.  Moving straight to ``HALF_OPEN`` turns the next call into
        a live probe: success closes the breaker, failure re-opens it
        for a fresh cooldown.  A no-op unless the breaker is ``OPEN``
        (``allow`` skips its own half-open transition in that case, so
        the probe is not double-counted).
        """
        if self.state is BreakerState.OPEN:
            self.state = BreakerState.HALF_OPEN
            self.half_opens += 1


@dataclass
class RetryStats:
    """Aggregate retry counters for one policy (shared across channels)."""

    calls: int = 0
    attempts: int = 0
    retries: int = 0
    deadline_exhausted: int = 0
    giveups: int = 0


@dataclass
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``rng`` must be a :class:`~repro.sim.rng.DeterministicRng` (or fork)
    so whole fault-injection experiments replay bit-identically; ``clock``
    should read the sim engine's clock so circuit-breaker cooldowns follow
    simulated — not wall-clock — time.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.010
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 1.0
    #: Simulated-seconds budget per logical call (timeouts + backoff);
    #: ``None`` disables the deadline.
    deadline_s: Optional[float] = 8.0
    #: Backoff is scaled by ``1 ± jitter_fraction`` uniformly.
    jitter_fraction: float = 0.25
    rng: DeterministicRng = field(default_factory=lambda: DeterministicRng(0))
    failure_threshold: int = 5
    cooldown_s: float = 30.0
    clock: Optional[Clock] = None
    stats: RetryStats = field(default_factory=RetryStats)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    @classmethod
    def no_retry(cls, clock: Optional[Clock] = None,
                 failure_threshold: int = 5,
                 cooldown_s: float = 30.0) -> "RetryPolicy":
        """Single attempt, breaker only — for heartbeat/monitoring paths
        whose own period is the retry loop."""
        return cls(max_attempts=1, deadline_s=None, clock=clock,
                   failure_threshold=failure_threshold,
                   cooldown_s=cooldown_s)

    def make_breaker(self) -> CircuitBreaker:
        """A fresh per-channel breaker sharing this policy's clock."""
        return CircuitBreaker(failure_threshold=self.failure_threshold,
                              cooldown_s=self.cooldown_s, clock=self.clock)

    def backoff_delay(self, attempt: int) -> float:
        """Simulated wait before retry number ``attempt`` (1-based)."""
        raw = self.base_backoff_s * (self.backoff_multiplier ** (attempt - 1))
        delay = min(self.max_backoff_s, raw)
        if self.jitter_fraction > 0.0:
            delay *= 1.0 + self.rng.uniform(-self.jitter_fraction,
                                            self.jitter_fraction)
        return max(0.0, delay)


class RpcServer:
    """A dispatch table served from one fabric node's daemon.

    Beyond dispatch, the server owns the *exactly-once* half of the RPC
    plane: :meth:`register` records each verb's idempotency class (a
    protocol verb's comes from its ``Method`` row), and for
    ``dedup_required`` verbs a bounded, epoch-aware dedup table keyed by
    the client-stamped request id replays the cached response instead of
    re-executing when the same logical request is delivered again (wire
    duplicate, or a retry after a lost reply).
    """

    #: Upper bound on cached responses; oldest entries are evicted first.
    dedup_capacity = 1024

    def __init__(self, node: RdmaNode):
        self.node = node
        self.handlers: Dict[str, Handler] = {}
        self.calls_served = 0
        #: Idempotency class per verb, recorded by :meth:`register`.
        self.idempotency: Dict[str, str] = {}
        #: ``(method, req_id) -> (status, payload, stamp)`` where status
        #: is ``"ok"``/``"error"`` and stamp is the request's ``(rack,
        #: epoch)``, or ``None`` if it carried no epoch.  Only *answered*
        #: requests live here; retryable failures (timeouts) never
        #: produced a response, so caching them would wrongly suppress
        #: the re-execution a retry is asking for.
        self._dedup: "OrderedDict[tuple, tuple]" = OrderedDict()
        #: The highest fencing epoch seen, per stamping rack.
        self._dedup_watermarks: Dict[Optional[str], int] = {}
        self.dedup_replays = 0
        #: verb -> (``rpc_served_total`` child, ``serve.<verb>`` span
        #: name), resolved on the verb's first traced dispatch.
        self._served: Dict[str, tuple] = {}

    def register(self, method: str, handler: Handler,
                 idempotency: Optional[str] = None) -> None:
        """Serve ``method`` with ``handler`` — the only way to serve a verb.

        A protocol verb takes its delivery class from its
        :class:`~repro.core.protocol.Method` row, so it cannot be served
        under any other; ``idempotency`` classifies ad-hoc (fixture)
        verbs only, and an ad-hoc verb registered without it stays
        unclassified and is never deduplicated.  With telemetry on, every
        handler is served inside a ``serve.<verb>`` span (see
        :meth:`_serve_traced`).
        """
        if method in self.handlers:
            raise RpcError(f"{self.node.name}: duplicate RPC method {method!r}")
        # Runtime import: the transport layer must not depend on the
        # protocol layer at module scope.
        from repro.core.protocol import IDEMPOTENCY_CLASSES, Method
        try:
            declared = Method(method).idempotency
        except ValueError:
            declared = None  # an ad-hoc verb
        if idempotency is None:
            idempotency = declared
        elif declared is not None:
            raise ConfigurationError(
                f"{self.node.name}: {method!r} is a protocol verb; its "
                f"class {declared!r} comes from its Method row and cannot "
                "be restated at registration"
            )
        elif idempotency not in IDEMPOTENCY_CLASSES:
            raise ConfigurationError(
                f"{self.node.name}: verb {method!r} declares unknown "
                f"idempotency class {idempotency!r}"
            )
        if idempotency is not None:
            self.idempotency[method] = idempotency
        self.handlers[method] = handler

    def unregister(self, method: str) -> None:
        if method not in self.handlers:
            raise RpcError(f"{self.node.name}: unknown RPC method {method!r}")
        del self.handlers[method]
        self.idempotency.pop(method, None)

    def _serve_traced(self, tel, verb: str, handler: Handler, ctx,
                      args: tuple, kwargs: dict) -> Any:
        """Run ``handler`` inside a server-side ``serve.<verb>`` span.

        The span adopts the caller's propagated wire context as its
        parent, so the server side of an RPC hangs off the exact attempt
        that carried it — across retries and across a failover to a
        promoted secondary.  A :class:`~repro.errors.FencingError` from
        the handler tags the span ``fenced`` (the epoch-stale branch is
        an *outcome* worth seeing in a timeline, not just an exception).
        """
        served = self._served.get(verb)
        if served is None:
            served = self._served[verb] = (
                tel.registry.counter(
                    "rpc_served_total", "Server-side handler invocations.",
                    verb=verb, node=self.node.name),
                f"serve.{verb}")
        counter, span_name = served
        tracer = tel.tracer
        tracer.push_wire_context(ctx)
        try:
            counter.inc()
            with tracer.span(span_name, parent=ctx,
                             verb=verb, node=self.node.name) as span:
                if "epoch" in kwargs:
                    span.set_tag("epoch", kwargs["epoch"])
                try:
                    return handler(*args, **kwargs)
                except FencingError:
                    span.set_tag("fenced", True)
                    raise
        finally:
            tracer.pop_wire_context()

    def _dedup_lookup(self, method: str, req_id: tuple) -> Optional[tuple]:
        """Cached ``(status, payload)`` for a request id, or ``None``."""
        entry = self._dedup.get((method, req_id))
        if entry is None:
            return None
        self._dedup.move_to_end((method, req_id))
        return entry[:2]

    def _dedup_store(self, method: str, req_id: tuple, status: str,
                     payload: Any, stamp: Optional[tuple]) -> None:
        """Remember a request's answered outcome; bounded LRU eviction."""
        self._dedup[(method, req_id)] = (status, payload, stamp)
        self._dedup.move_to_end((method, req_id))
        while len(self._dedup) > self.dedup_capacity:
            self._dedup.popitem(last=False)

    def _dedup_advance_epoch(self, rack: Optional[str], epoch: int) -> None:
        """Purge ``rack``'s entries stamped with a now-stale epoch.

        Once the rack has moved to epoch ``E``, a retry of an epoch
        ``< E`` request would be fenced by the handler anyway — there is
        no response left worth replaying, so the entries only waste
        capacity.  Epochs are per rack: an agent served by two racks (a
        tenant homed away from its own rack) keeps the other rack's
        entries, which that rack may still replay.
        """
        if epoch <= self._dedup_watermarks.get(rack, 0):
            return
        self._dedup_watermarks[rack] = epoch
        stale = [key for key, (_, _, stamp) in self._dedup.items()
                 if stamp is not None and stamp[0] == rack
                 and stamp[1] < epoch]
        for key in stale:
            del self._dedup[key]

    def dispatch(self, method: str, args: tuple, kwargs: dict) -> Any:
        """Server-side dispatch; requires a live CPU.

        The transport strips the metadata keys (trace context, request
        id, deadline budget) before the handler sees the arguments —
        handlers keep their verb signatures.  In order, dispatch then:

        1. replays the cached response for a re-delivered
           ``dedup_required`` request (exactly-once semantics);
        2. fast-fails with :class:`~repro.errors.DeadlineExceededError`
           if the delivered budget is already spent — the handler never
           runs, so no state is mutated for work nobody is waiting on;
        3. runs the handler with the trace context active and the
           delivered budget pushed on the fabric's deadline stack, so
           nested downstream RPCs inherit the shrunk remainder;
        4. caches the outcome (result *or* non-retryable error) for
           future duplicates of ``dedup_required`` requests.  Retryable
           outcomes are never cached: no response formed, and the whole
           point of the client's retry is to re-execute.
        """
        ctx = kwargs.pop(WIRE_CONTEXT_KEY, None)
        req_id = kwargs.pop(REQUEST_ID_KEY, None)
        budget = kwargs.pop(DEADLINE_KEY, None)
        node = self.node
        if not node.cpu_alive:
            raise RpcTimeoutError(
                f"{node.name}: server suspended, RPC daemon not running"
            )
        handler = self.handlers.get(method)
        if handler is None:
            raise RpcError(f"{node.name}: unknown RPC method {method!r}")
        fabric = node.fabric
        tel = fabric.telemetry
        traced = tel.enabled  # the server side's one traced-or-not decision
        stamp = None
        dedup = (req_id is not None
                 and self.idempotency.get(method) == _DEDUP_REQUIRED)
        if dedup:
            epoch = kwargs.get("epoch")
            if isinstance(epoch, int):
                stamp = (kwargs.get("rack"), epoch)
                self._dedup_advance_epoch(*stamp)
            hit = self._dedup_lookup(method, req_id)
            if hit is not None:
                self.dedup_replays += 1
                if traced:
                    tel.registry.counter(
                        "rpc_dedup_replays_total",
                        "Re-delivered requests answered from the dedup "
                        "table instead of re-executed.",
                        verb=method, node=node.name).inc()
                status, payload = hit
                if status == "error":
                    raise payload
                return payload
        if budget is not None and budget <= 0.0:
            if traced:
                tel.registry.counter(
                    "rpc_deadline_rejections_total",
                    "Requests fast-failed because their propagated "
                    "deadline budget was already spent.",
                    verb=method, node=node.name).inc()
            raise DeadlineExceededError(
                f"{node.name}: RPC {method!r} arrived with "
                f"{budget:.6f}s of deadline budget left; fast-failing"
            )
        self.calls_served += 1
        deadlines = fabric.deadlines
        deadlines.append(budget)
        try:
            if traced:
                result = self._serve_traced(tel, method, handler, ctx,
                                            args, kwargs)
            else:
                result = handler(*args, **kwargs)
        # Any outcome the handler produced *is* the response; cache it
        # for dedup before letting it propagate.  Retryable faults mean
        # no response formed, so they are deliberately not cached.
        except Exception as exc:  # noqa: BLE001
            if dedup and not is_retryable(exc):
                self._dedup_store(method, req_id, "error", exc, stamp)
            raise
        finally:
            deadlines.pop()
        if dedup:
            self._dedup_store(method, req_id, "ok", result, stamp)
        return result


class _ChannelVerb:
    """One channel's traced-call instruments for one verb.

    Resolved on the verb's first traced call, so a traced call does no
    registry lookup and formats no span name.  The latency histogram is
    resolved on the first call that succeeds, so a verb that never
    succeeded exports no ``rpc_call_seconds`` series.
    """

    __slots__ = ("calls", "seconds", "call_span", "attempt_span")

    def __init__(self, registry, verb: str):
        self.calls = registry.counter(
            "rpc_calls_total", "Logical RPC calls issued (before retries).",
            verb=verb)
        self.seconds = None
        self.call_span = f"call.{verb}"
        self.attempt_span = f"attempt.{verb}"


class RpcClient:
    """Client endpoint: sends a request, then polls for the response.

    With a :class:`RetryPolicy` attached the client owns one circuit
    breaker (the policy may be shared; the breaker never is) and retries
    transient faults under the policy's backoff and deadline.  Without a
    policy the client is a bare single-shot channel (unit-test mode).
    """

    def __init__(self, node: RdmaNode, server: RpcServer,
                 timeout_s: float = 1.0,
                 retry_policy: Optional[RetryPolicy] = None):
        self.node = node
        self.server = server
        self.timeout_s = timeout_s
        self.retry_policy = retry_policy
        self.breaker: Optional[CircuitBreaker] = (
            retry_policy.make_breaker() if retry_policy is not None else None
        )
        if self.breaker is not None:
            node.fabric.register_breaker(server.node.name, self.breaker)
        self.calls_made = 0
        self.polls = 0
        self.retries = 0
        self.time_spent_s = 0.0
        #: Exactly-once bookkeeping: one request id per *logical* call,
        #: shared by all its retries (and any injected duplicates).
        self.client_id = f"{node.name}#{next(_client_ids)}"
        self._seq = itertools.count(1)
        self._req_id: Optional[tuple] = None
        self._budget_left: Optional[float] = None
        #: Last delivered request, kept so an injected *reorder* can
        #: re-present it to the server as a stale retransmission.
        self._last_request: Optional[tuple] = None
        self._verbs: Dict[str, _ChannelVerb] = {}
        self._qp = node.connect_qp(server.node.name)

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke ``method`` on the server; returns its result.

        Raises :class:`RpcTimeoutError` if the server CPU is down (the
        client's polls never observe a response) and every configured
        retry attempt was exhausted.
        """
        # The client side's one traced-or-not decision per logical call
        # (:meth:`call_timed` is the same entry point, keeping the time).
        tel = self.node.fabric.telemetry
        if tel.enabled:
            return self._call_traced(tel, method, args, kwargs)[0]
        return self._call_with_retries(method, args, kwargs)[0]

    def call_timed(self, method: str, *args: Any,
                   **kwargs: Any) -> Tuple[Any, float]:
        """Like :meth:`call` but also returns the simulated elapsed time."""
        tel = self.node.fabric.telemetry
        if tel.enabled:
            return self._call_traced(tel, method, args, kwargs)
        return self._call_with_retries(method, args, kwargs)

    def _call_traced(self, tel, method: str, args: tuple,
                     kwargs: dict) -> Tuple[Any, float]:
        """The retry loop inside a ``call.<verb>`` span, with its metrics."""
        registry = tel.registry
        verb = self._verbs.get(method)
        if verb is None:
            verb = self._verbs[method] = _ChannelVerb(registry, method)
        verb.calls.inc()
        spent_before = self.time_spent_s
        retries_before = self.retries
        with tel.tracer.span(verb.call_span, verb=method,
                             node=self.node.name,
                             target=self.server.node.name) as span:
            if "epoch" in kwargs:
                span.set_tag("epoch", kwargs["epoch"])
            try:
                result, elapsed = self._call_with_retries(
                    method, args, kwargs, traced=True)
            except BaseException as exc:
                if isinstance(exc, CircuitOpenError):
                    outcome = "breaker_open"
                elif isinstance(exc, RpcTimeoutError):
                    outcome = "timeout"
                elif isinstance(exc, FencingError):
                    outcome = "fenced"
                    span.set_tag("fenced", True)
                else:
                    outcome = "error"
                registry.counter(
                    "rpc_failures_total", "Logical RPC calls that raised.",
                    verb=method, outcome=outcome).inc()
                self._note_retries(registry, span, method,
                                   self.retries - retries_before)
                span.end_s = span.start_s + (self.time_spent_s - spent_before)
                raise
            logical = self.time_spent_s - spent_before
            self._note_retries(registry, span, method,
                               self.retries - retries_before)
            if verb.seconds is None:
                verb.seconds = registry.histogram(
                    "rpc_call_seconds",
                    "Logical RPC latency: attempts, timeouts and backoff.",
                    verb=method)
            verb.seconds.observe(logical)
            # Simulated time does not flow while the handler runs, so the
            # span takes its width from the cost model, not the clock.
            span.end_s = span.start_s + logical
        return result, elapsed

    def _note_retries(self, registry, span, method: str, retried: int) -> None:
        if retried:
            span.set_tag("retries", retried)
            registry.counter("rpc_retries_total",
                             "Retry attempts beyond the first.",
                             verb=method).inc(retried)

    def _call_with_retries(self, method: str, args: tuple, kwargs: dict,
                           traced: bool = False) -> Tuple[Any, float]:
        """The retry loop (single attempt without a policy).

        Each logical call gets one ``(client_id, seq)`` request id here —
        all its retries present the same id, which is what the server's
        dedup table keys on.  The effective deadline is the policy's
        budget capped by any budget this call *inherited* (when it is a
        nested RPC issued from inside a handler, the fabric's deadline
        stack holds the remaining budget the parent request delivered).
        ``traced`` (decided once, by the caller) wraps every wire round
        in its ``attempt.<verb>`` span.
        """
        policy = self.retry_policy
        deadlines = self.node.fabric.deadlines
        inherited = deadlines[-1] if deadlines else None
        self._req_id = (self.client_id, next(self._seq))
        attempt_once = self._attempt_traced if traced else self._attempt
        if policy is None:
            self._budget_left = inherited
            return attempt_once(method, args, kwargs)
        deadline = policy.deadline_s
        if inherited is not None:
            deadline = inherited if deadline is None else min(deadline,
                                                              inherited)
        stats = policy.stats
        breaker = self.breaker
        stats.calls += 1
        spent = 0.0
        attempt = 0
        while True:
            self._budget_left = None if deadline is None else deadline - spent
            # A closed breaker always allows (see the module docstring).
            if breaker.state is not _CLOSED and not breaker.allow():
                raise CircuitOpenError(
                    f"RPC {method!r} to {self.server.node.name}: circuit "
                    f"open (cooldown {breaker.cooldown_s}s)"
                )
            attempt += 1
            stats.attempts += 1
            try:
                result, elapsed = attempt_once(method, args, kwargs)
            # Handlers may raise anything; the blind catch is deliberate —
            # non-retryable exceptions are re-raised right below, after
            # informing the breaker that the channel itself answered.
            except Exception as exc:  # noqa: BLE001
                if not is_retryable(exc):
                    # Protocol-level answer: the channel itself works.
                    if (breaker.state is not _CLOSED
                            or breaker.consecutive_failures):
                        breaker.record_success()
                    raise
                breaker.record_failure()
                spent += self.timeout_s
                delay = policy.backoff_delay(attempt)
                out_of_attempts = attempt >= policy.max_attempts
                out_of_time = (deadline is not None
                               and spent + delay > deadline)
                tripped = breaker.state is BreakerState.OPEN
                if out_of_attempts or out_of_time or tripped:
                    if out_of_time:
                        stats.deadline_exhausted += 1
                    stats.giveups += 1
                    raise
                stats.retries += 1
                self.retries += 1
                self.time_spent_s += delay
                spent += delay
                continue
            if breaker.state is not _CLOSED or breaker.consecutive_failures:
                breaker.record_success()
            return result, elapsed

    def _attempt_traced(self, method: str, args: tuple,
                        kwargs: dict) -> Tuple[Any, float]:
        """One wire round (:meth:`_attempt`) as its own span.

        The trace context is (re-)injected into the request metadata per
        attempt — the server strips it on dispatch, so a retried request
        must carry it again, and each server-side span then parents to
        the attempt that actually reached it.
        """
        tracer = self.node.fabric.telemetry.tracer
        with tracer.span(self._verbs[method].attempt_span, verb=method,
                         node=self.node.name) as span:
            # The attempt is the innermost open span: the server side
            # parents to it.
            kwargs[WIRE_CONTEXT_KEY] = span.context
            try:
                result, elapsed = self._attempt(method, args, kwargs)
            except RpcTimeoutError:
                span.end_s = span.start_s + self.timeout_s
                raise
            span.end_s = span.start_s + elapsed
            return result, elapsed

    def _burn_timeout(self, method: str, reason: str) -> None:
        """Poll fruitlessly for a full timeout, then raise (retryable)."""
        self.polls += self.node.fabric.costs.polls(self.timeout_s)
        self.time_spent_s += self.timeout_s
        raise RpcTimeoutError(
            f"RPC {method!r} to {self.server.node.name} timed out after "
            f"{self.timeout_s}s ({reason})"
        )

    def _redeliver(self, request: tuple) -> None:
        """Deliver a duplicate/stale copy of a request to the server.

        Nobody is polling for this copy's response — it is wire noise —
        so whatever the server answers (including protocol errors and
        fencing) is dropped on the floor.  Exactly-once semantics mean
        the delivery itself must be harmless; MemSan's duplicate-
        execution invariant checks that it was.
        """
        method, dup_args, dup_kwargs = request
        try:
            self.server.dispatch(method, dup_args, dict(dup_kwargs))
        # The response to an unsolicited copy has no reader; any error
        # it carries was already (or will be) delivered to the caller
        # via the copy that is actually awaited.
        except Exception:  # noqa: BLE001
            pass

    def _attempt(self, method: str, args: tuple,
                 kwargs: dict) -> Tuple[Any, float]:
        """The wire-level request/poll round.

        Consults the fabric's message-fault injector for this link: a
        dropped request never reaches dispatch, a dropped reply executes
        server-side but times out client-side, a duplicate delivers the
        same request id twice, a reorder re-presents the *previous*
        request first (a stale retransmission), and extra latency is
        charged to the clock and deducted from the delivered deadline
        budget.
        """
        node = self.node
        fabric = node.fabric
        if not node.cpu_alive:
            raise RpcError(f"{node.name}: client CPU suspended")
        partitioned = fabric.partitioned
        if node.name in partitioned:
            fabric.require_reachable(node.name)  # raises
        server = self.server
        self.calls_made += 1
        if server.node.name in partitioned or not server.node.cpu_alive:
            # The request lands in the server's receive ring, but no daemon
            # runs; the client polls until its deadline passes.
            self._burn_timeout(method, "server suspended")
        decision = None
        extra_latency = 0.0
        injector = fabric.message_faults
        if injector.active:
            decision = injector.decide(node.name, server.node.name, method)
            for kind in decision.kinds():
                fabric.telemetry.registry.counter(
                    "rpc_injected_faults_total",
                    "Message faults injected by the adversarial fabric.",
                    kind=kind).inc()
            extra_latency = decision.extra_latency_s
        if fabric.racks:
            # Cross-rack federation surcharge: charged per attempt (every
            # attempt is a fresh crossing of the inter-rack link) and
            # folded into the latency so the delivered deadline budget
            # shrinks too.
            extra_latency += fabric.charge_cross_rack(
                node.name, server.node.name, rpcs=1)
        # Stamp the exactly-once / deadline metadata (re-stamped per
        # attempt: dispatch pops it, like the trace context).
        if self._req_id is not None:
            kwargs[REQUEST_ID_KEY] = self._req_id
        if self._budget_left is not None:
            kwargs[DEADLINE_KEY] = self._budget_left - extra_latency
        if decision is not None:
            if decision.drop_request:
                self._burn_timeout(method, "request lost")
            if decision.reorder and self._last_request:
                # The network delivers a stale retransmission of the
                # previous request ahead of this one.
                self._redeliver(self._last_request)
        # The one copy: dispatch strips the metadata from the dict it is
        # handed, a later reorder must re-present it intact.
        delivered = (method, args, dict(kwargs))
        self._last_request = delivered
        result = server.dispatch(method, args, kwargs)
        if decision is not None:
            if decision.duplicate:
                self._redeliver(delivered)
            if decision.drop_reply:
                self._burn_timeout(method, "reply lost")
        costs = fabric.costs
        if extra_latency:
            elapsed = costs.rpc_time() + extra_latency
            polls = costs.polls(elapsed)
        else:
            elapsed, polls = costs.rpc_round
        self.polls += polls
        self.time_spent_s += elapsed
        stats = fabric.stats
        stats.rpcs += 1
        stats.busy_seconds += elapsed
        return result, elapsed

    def close(self) -> None:
        self.node.pd.destroy_qp(self._qp.qp_num)
