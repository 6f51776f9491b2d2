"""Causal tracing: spans, parent/child links, and RPC-metadata propagation.

A **span** is one timed operation (an RPC call, one retry attempt, a
server-side handler run, a migration phase).  Spans form trees: the
tracer keeps a stack of open spans, so a span started while another is
open becomes its child, and the *root* of each tree mints a fresh
``trace_id`` every descendant inherits.

Crossing the fabric works like real distributed tracing rather than by
leaning on the shared process: :class:`~repro.rdma.rpc.RpcClient`
injects the current span context into the call's metadata
(:data:`WIRE_CONTEXT_KEY`), transport-level ``dispatch`` strips it and
activates it as the **wire context**, and the server-side span adopts it
as its parent.  Retries re-inject per attempt and a promoted secondary
serves under the same propagated context, which is what keeps one
logical operation a single connected tree across retries, circuit
breaking and failover.

The tracer also records **timeline samples** (named numeric series with
explicit timestamps) so slow simulations — the DC energy timeline behind
Fig. 10 — export as Chrome-trace counter tracks next to the spans.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, Iterable, List, NamedTuple,
                    Optional, Tuple, Union)

from repro.errors import ConfigurationError

Clock = Callable[[], float]

#: Metadata key RPC clients inject and ``dispatch`` strips.  Handlers
#: never see it; dispatch activates it as the tracer's wire context.
WIRE_CONTEXT_KEY = "__obs_ctx__"

#: (trace_id, span_id) as carried on the wire.
SpanContext = Tuple[int, int]


@dataclass(slots=True)
class Span:
    """One finished (or still-open) operation, and its own context manager.

    ``__exit__`` closes the span, records an unhandled exception as
    ``status="error"`` + an ``error`` tag, and never swallows it.
    """

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    end_s: Optional[float] = None
    tags: Dict[str, object] = field(default_factory=dict)
    status: str = "ok"
    recorded: bool = field(default=False, repr=False, compare=False)
    #: The tracer that opened the span (``None`` for a hand-built one).
    tracer: Optional["Tracer"] = field(default=None, repr=False,
                                       compare=False)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def context(self) -> SpanContext:
        return (self.trace_id, self.span_id)

    def set_tag(self, key: str, value: object) -> None:
        self.tags[key] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.status = "error"
            self.tags.setdefault("error", type(exc).__name__)
        self.tracer.finish(self)  # type: ignore[union-attr]
        return False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.tags.items()))
        return (f"[{self.start_s:.6f}+{self.duration_s:.6f}s] {self.name} "
                f"({self.status}) {extras}".rstrip())


class SpanRef(NamedTuple):
    """A span's tree links and name: all :func:`span_forest_errors` reads."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str


class _NullSpan:
    """Shared no-op span handed out by a disabled tracer."""

    __slots__ = ()
    context: Optional[SpanContext] = None

    def set_tag(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


@dataclass(frozen=True)
class TimelineSample:
    """One point of a named counter track (Chrome-trace ``ph: C``)."""

    name: str
    track: str
    time_s: float
    value: float


class Tracer:
    """Span factory, open-span stack, and finished-span ring buffer.

    ``spans`` and ``samples`` are rings of ``max_spans`` entries each;
    the oldest entry goes first, counted in ``dropped`` (spans) and
    ``dropped_samples``.
    """

    def __init__(self, enabled: bool = True, clock: Optional[Clock] = None,
                 max_spans: int = 100_000):
        if max_spans < 1:
            raise ConfigurationError(
                f"max_spans must be >= 1, got {max_spans}")
        self.enabled = enabled
        self.clock: Clock = clock or (lambda: 0.0)
        self.spans: Deque[Span] = deque()
        self.samples: Deque[TimelineSample] = deque()
        self.max_spans = max_spans
        self.dropped = 0
        self.dropped_samples = 0
        self._stack: List[Span] = []
        self._wire: List[Optional[SpanContext]] = []
        self._ids = itertools.count(1)

    # -- context ----------------------------------------------------------
    def current_context(self) -> Optional[SpanContext]:
        """The innermost open span's context (what a client injects)."""
        if not self._stack:
            return None
        return self._stack[-1].context

    def push_wire_context(self, ctx: Optional[SpanContext]) -> None:
        """Transport layer: a propagated context arrived with a request."""
        self._wire.append(ctx)

    def pop_wire_context(self) -> None:
        if self._wire:
            self._wire.pop()

    def wire_context(self) -> Optional[SpanContext]:
        """The innermost propagated-over-RPC context, if any."""
        if not self._wire:
            return None
        return self._wire[-1]

    # -- spans ------------------------------------------------------------
    def span(self, name: str, parent: Optional[SpanContext] = None,
             **tags) -> Span:
        """Open a span (use as a context manager).

        ``parent`` defaults to the innermost open span; pass an explicit
        context (e.g. the wire context) to attach across the fabric, or
        rely on the stack for same-process nesting.  A span with no
        parent roots a new trace.  The span keeps ``tags`` itself: the
        keyword dict is fresh per call, so nobody else holds it.
        """
        if not self.enabled:
            return NULL_SPAN  # type: ignore[return-value]
        span_id = next(self._ids)
        if parent is not None:
            trace_id, parent_id = parent[0], parent[1]
        elif self._stack:
            top = self._stack[-1]
            trace_id, parent_id = top.trace_id, top.span_id
        else:
            trace_id, parent_id = next(self._ids), None
        span = Span(trace_id, span_id, parent_id, name, self.clock(),
                    tags=tags, tracer=self)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close a span; out-of-order finishes close the inner spans too.

        A span whose ``end_s`` was set explicitly (sim time does not flow
        while a handler runs, so RPC spans take their width from the cost
        model) keeps it; anything else closes at the current clock.
        """
        if span.recorded:
            return
        stack = self._stack
        while stack:
            top = stack.pop()
            if top.end_s is None:
                top.end_s = self.clock()
            self._record(top)
            if top is span:
                return
        # Span was not on the stack (already force-finished): record anyway.
        if span.end_s is None:
            span.end_s = self.clock()
        self._record(span)

    def _record(self, span: Span) -> None:
        span.recorded = True
        if len(self.spans) >= self.max_spans:
            self.spans.popleft()
            self.dropped += 1
        self.spans.append(span)

    # -- timeline samples --------------------------------------------------
    def sample(self, name: str, value: float, track: str = "main",
               time_s: Optional[float] = None) -> None:
        """Record one counter-track point (no-op when disabled)."""
        if not self.enabled:
            return
        when = self.clock() if time_s is None else time_s
        if len(self.samples) >= self.max_spans:
            self.samples.popleft()
            self.dropped_samples += 1
        self.samples.append(TimelineSample(name=name, track=track,
                                           time_s=when, value=value))

    # -- queries -----------------------------------------------------------
    def finished(self, name: Optional[str] = None) -> List[Span]:
        if name is None:
            return list(self.spans)
        return [s for s in self.spans if s.name == name]

    def trace(self, trace_id: int) -> List[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def slowest(self, n: int = 10) -> List[Span]:
        return sorted(self.spans, key=lambda s: -s.duration_s)[:n]


def span_forest_errors(spans: Iterable[Union[Span, SpanRef]]) -> List[str]:
    """Structural validation: every parent must exist in its own trace.

    Returns human-readable problems (empty list = every trace is a
    connected tree rooted at exactly one parentless span).  Spans whose
    parents fell out of the ring buffer are reported — a trace you can
    no longer walk to its root is a finding, not background noise.
    """
    by_trace: Dict[int, Dict[int, Union[Span, SpanRef]]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, {})[span.span_id] = span
    problems: List[str] = []
    for trace_id, members in sorted(by_trace.items()):
        roots = [s for s in members.values() if s.parent_id is None]
        if len(roots) != 1:
            problems.append(
                f"trace {trace_id}: {len(roots)} roots "
                f"({[s.name for s in roots]!r}), expected exactly 1"
            )
        for span in members.values():
            if span.parent_id is not None and span.parent_id not in members:
                problems.append(
                    f"trace {trace_id}: span {span.name!r} "
                    f"({span.span_id}) has dangling parent {span.parent_id}"
                )
    return problems
