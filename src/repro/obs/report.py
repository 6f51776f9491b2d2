"""Per-run report: the data behind ``python -m repro.obs``.

:func:`report_data` reads one :class:`~repro.obs.Telemetry` hub into a
JSON-serializable dict, and that dict *is* the report:

- per-verb RPC rows: completed calls with their p50/p90/p99 (from the
  ``rpc_call_seconds`` histograms), retries, and failed calls summed
  over every ``outcome``,
- the top-N slowest finished spans with their trace lineage,
- Sz residency (completed stays with their mean/p50/max dwell, hosts in
  the zombie state now, transitions),
- a census of the registry's families and the tracer's buffers.

:func:`render_report` prints that dict through :mod:`repro.tables`;
``python -m repro.obs --format json`` prints it with
:func:`repro.tables.dumps`.  The exporters remain the feed for scrapers.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.tables import Table, to_text
from repro.units import fmt_time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Telemetry


def _verb_rows(registry: MetricsRegistry) -> List[dict]:
    """One dict per verb that issued a call.

    The verb set is ``rpc_calls_total``'s, so a verb whose every call
    failed still gets a row (quantiles ``None``); ``errors`` sums
    ``rpc_failures_total`` over its ``outcome`` label.
    """
    failures = registry.labels_for("rpc_failures_total")
    rows: List[dict] = []
    for labels in registry.labels_for("rpc_calls_total"):
        verb = labels["verb"]
        hist = registry.get("rpc_call_seconds", verb=verb)
        done = hist.count if isinstance(hist, Histogram) else 0
        rows.append({
            "verb": verb,
            "calls": done,
            "p50_s": hist.quantile(0.5) if done else None,
            "p90_s": hist.quantile(0.9) if done else None,
            "p99_s": hist.quantile(0.99) if done else None,
            "retries": int(registry.value("rpc_retries_total", verb=verb)),
            "errors": sum(int(registry.value("rpc_failures_total", **series))
                          for series in failures if series["verb"] == verb),
        })
    return rows


def report_data(telemetry: "Telemetry", top_n: int = 10) -> dict:
    """The per-run report as one JSON-serializable dict."""
    registry = telemetry.registry
    tracer = telemetry.tracer
    if not telemetry.enabled:
        return {"enabled": False}
    dwell = registry.get("sz_dwell_seconds")
    stays = dwell.count if isinstance(dwell, Histogram) else 0
    current = registry.get("zombie_hosts")
    return {
        "enabled": True,
        "top_n": top_n,
        "verbs": _verb_rows(registry),
        "slowest_spans": [
            {"name": span.name, "duration_s": span.duration_s,
             "trace_id": span.trace_id, "span_id": span.span_id,
             "parent_id": span.parent_id, "status": span.status,
             "node": span.tags.get("node")}
            for span in tracer.slowest(top_n)
        ],
        "sz_residency": {
            "completed_stays": stays,
            "mean_dwell_s": dwell.mean if stays else None,
            "p50_dwell_s": dwell.quantile(0.5) if stays else None,
            "max_dwell_s": dwell.max if stays else None,
            "hosts_in_sz": (int(current.value)  # type: ignore[union-attr]
                            if current is not None else None),
            "entered": int(registry.value("sz_transitions_total",
                                          direction="enter")),
            "exited": int(registry.value("sz_transitions_total",
                                         direction="exit")),
        },
        "registry": {
            "families": [
                {"name": family.name, "kind": family.kind,
                 "series": len(family.children)}
                for family in registry.families()
            ],
            "spans_recorded": len(tracer.spans),
            "timeline_samples": len(tracer.samples),
            "spans_dropped": tracer.dropped,
            "samples_dropped": tracer.dropped_samples,
        },
    }


def _time(seconds: Optional[float]) -> Optional[str]:
    return None if seconds is None else fmt_time(seconds)


def _sz_lines(sz: dict) -> List[str]:
    lines: List[str] = []
    if sz["completed_stays"]:
        lines.append(
            f"completed Sz stays: {sz['completed_stays']} "
            f"(mean {fmt_time(sz['mean_dwell_s'])}, "
            f"p50 {fmt_time(sz['p50_dwell_s'])}, "
            f"max {fmt_time(sz['max_dwell_s'])})")
    if sz["hosts_in_sz"] is not None:
        lines.append(f"hosts in Sz now: {sz['hosts_in_sz']}")
    if sz["entered"] or sz["exited"]:
        lines.append(f"transitions: {sz['entered']} enter / "
                     f"{sz['exited']} exit")
    return lines


def render_report(data: dict) -> str:
    """The plain-text report, from :func:`report_data`'s dict alone."""
    banner = "=" * 72 + "\nZomTrace run report\n" + "=" * 72 + "\n"
    if not data["enabled"]:
        return (banner
                + "telemetry was DISABLED for this run; nothing recorded\n")
    registry = data["registry"]
    tables = [
        Table("Per-verb RPC latency",
              ("verb", "calls", "p50", "p90", "p99", "retries", "errors"),
              [(row["verb"], row["calls"], _time(row["p50_s"]),
                _time(row["p90_s"]), _time(row["p99_s"]), row["retries"],
                row["errors"]) for row in data["verbs"]],
              empty="(no RPC calls recorded)"),
        Table(f"Top {data['top_n']} slowest spans",
              ("span", "node", "duration", "trace", "span id", "parent",
               "status"),
              [(span["name"], span["node"], fmt_time(span["duration_s"]),
                span["trace_id"], span["span_id"], span["parent_id"],
                span["status"]) for span in data["slowest_spans"]],
              empty="(no finished spans)"),
        Table("Sz residency", (),
              [(line,) for line in _sz_lines(data["sz_residency"])],
              empty="(no Sz activity recorded)"),
        Table("Registry census", ("family", "kind", "series"),
              [(family["name"], family["kind"], family["series"])
               for family in registry["families"]],
              empty="(empty)"),
    ]
    footer = (f"  spans recorded: {registry['spans_recorded']}"
              f" | timeline samples: {registry['timeline_samples']}"
              f" | dropped by the ring buffer: {registry['spans_dropped']}\n")
    return (banner + "\n" + "\n".join(to_text(table) for table in tables)
            + footer)
