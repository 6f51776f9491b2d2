"""ZomTrace: the rack-wide observability subsystem.

Three layers, all simulation-time aware:

- :mod:`repro.obs.metrics` — a registry of counters, gauges and
  histograms with labels, snapshot/delta semantics and a no-op fast path
  when disabled;
- :mod:`repro.obs.tracing` — causal spans: every RPC call, server-side
  handler, migration phase and recovery action becomes a span linked to
  its parent, with the context propagated through RPC metadata in
  :mod:`repro.rdma.rpc` so one trace follows a verb across retries,
  circuit breaking and a primary→secondary failover;
- :mod:`repro.obs.export` — Prometheus text format and
  Chrome-trace/Perfetto JSON exporters, plus validators the self-check
  gate (``python -m repro.obs --self-check``) runs in CI.

The :class:`Telemetry` hub bundles one registry and one tracer behind a
single ``enabled`` flag and a single clock.  A :class:`~repro.rdma.fabric.
Fabric` always carries a (disabled) hub, so instrumented code reaches its
telemetry through objects it already holds — no global state, and a
disabled hub costs one attribute read and one branch per instrumented
operation.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "Telemetry", "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "Tracer", "Span",
    "NULL_COUNTER", "NULL_GAUGE", "NULL_HISTOGRAM",
]

Clock = Callable[[], float]


class Telemetry:
    """One registry + one tracer behind a shared clock and enable flag.

    ``enabled`` is fixed at construction: a disabled hub hands out no-op
    instruments and never records a span, so instrumented hot paths pay
    only the ``if tel.enabled`` branch.  The clock (usually a rack
    engine's ``lambda: engine.now``) may be bound late because racks
    build their engine after their fabric.
    """

    def __init__(self, enabled: bool = True, clock: Optional[Clock] = None,
                 max_spans: int = 100_000):
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(enabled=enabled, max_spans=max_spans)
        self.bind_clock(clock or (lambda: 0.0))

    def now(self) -> float:
        """Current simulated time according to the bound clock."""
        return self._clock()

    def bind_clock(self, clock: Clock) -> None:
        """(Re)bind the simulated-time source (idempotent, last wins).

        The tracer and the registry get the clock itself, not a
        forwarder, so a span start reads it in one call.
        """
        self._clock = self.tracer.clock = self.registry.clock = clock

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return (f"Telemetry({state}, {len(self.registry.families())} metric "
                f"families, {len(self.tracer.spans)} spans)")
