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
single ``enabled`` flag; the fabric that carries it supplies the clock.
A :class:`~repro.rdma.fabric.Fabric` always carries a (disabled) hub, so
instrumented code reaches its telemetry through objects it already holds
— no global state, and a disabled hub costs one attribute read and one
branch per instrumented operation.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "Telemetry", "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "Tracer", "Span",
    "NULL_COUNTER", "NULL_GAUGE", "NULL_HISTOGRAM",
]


def _no_fabric_clock() -> float:
    raise ConfigurationError(
        "this Telemetry hub is carried by no Fabric, so it has no simulated "
        "clock; pass it to Fabric(telemetry=...), Rack or Federation")


class Telemetry:
    """One registry + one tracer behind a shared enable flag.

    ``enabled`` is fixed at construction: a disabled hub hands out no-op
    instruments and never records a span, so instrumented hot paths pay
    only the ``if tel.enabled`` branch.  A hub has no clock of its own:
    the :class:`~repro.rdma.fabric.Fabric` that carries it hands its
    tracer the fabric engine's clock.  Until then, opening a span raises
    :class:`~repro.errors.ConfigurationError` rather than stamp a
    made-up time.
    """

    def __init__(self, enabled: bool = True, max_spans: int = 100_000):
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(_no_fabric_clock, enabled=enabled,
                             max_spans=max_spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return (f"Telemetry({state}, {len(self.registry.families())} metric "
                f"families, {len(self.tracer.spans)} spans)")
