"""Exporters: Prometheus text exposition and Chrome-trace/Perfetto JSON.

Both formats are produced from the in-memory registry/tracer with no
third-party dependencies:

- :func:`to_prometheus_text` renders ``# HELP`` / ``# TYPE`` headers and
  one sample line per series; histograms render cumulative ``le``
  buckets plus ``_sum`` and ``_count``, exactly as a Prometheus scrape
  would see them.
- :func:`to_chrome_trace` renders the JSON object format
  (``{"traceEvents": [...]}``) with ``ph: "X"`` complete events for
  spans and ``ph: "C"`` counter events for timeline samples; the file
  loads in ``chrome://tracing`` and https://ui.perfetto.dev.  Simulated
  seconds become microseconds (the trace-viewer unit); span trees map to
  one pid per trace and one tid per node so flows read left-to-right.
  :func:`iter_chrome_trace` streams the same text one event per line,
  so exporting costs the output text, not a document of dicts.

The paired validators (:func:`validate_prometheus_text`,
:func:`validate_chrome_trace`) re-parse exporter output and are what the
``--self-check`` CI gate runs: an exporter regression fails the build
before a human ever stares at a blank Perfetto screen.  A malformed
document is reported as problems, never raised.
"""

from __future__ import annotations

import json
import math
import re
import sys
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.obs.metrics import (LABEL_NAME_RE, Histogram, MetricsRegistry,
                               format_labels)
from repro.obs.tracing import SpanRef, Tracer, span_forest_errors
from repro.units import metric_unit

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+(inf)?$"
)
#: One ``name="value"`` pair of a sample's label set, and its separator.
_LABEL_PAIR_RE = re.compile(r'([^=,]*)="[^"]*"(?:,|$)')


def _label_problem(labels: str) -> Optional[str]:
    """What is wrong with a sample's ``{...}`` label text, if anything."""
    inner, pos = labels[1:-1], 0
    while pos < len(inner):
        pair = _LABEL_PAIR_RE.match(inner, pos)
        if pair is None:
            return f"malformed labels {labels!r}"
        if not LABEL_NAME_RE.match(pair.group(1)):
            return f"invalid label name {pair.group(1)!r}"
        pos = pair.end()
    return None


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        unit = metric_unit(family.name)
        if unit is not None:
            # Derived from the ZL014 suffix contract (repro.units.
            # METRIC_UNIT_SUFFIXES): the exporter and the static checker
            # agree on what each metric carries by construction.
            lines.append(f"# UNIT {family.name} {unit}")
        for key, child in family.series():
            labels = format_labels(key)
            if isinstance(child, Histogram):
                for bound, cumulative in child.cumulative_buckets():
                    le = "+Inf" if bound == math.inf else _fmt(bound)
                    if key:
                        inner = labels[1:-1] + f',le="{le}"'
                    else:
                        inner = f'le="{le}"'
                    lines.append(
                        f"{family.name}_bucket{{{inner}}} {cumulative}"
                    )
                lines.append(f"{family.name}_sum{labels} {_fmt(child.sum)}")
                lines.append(f"{family.name}_count{labels} {child.count}")
            else:
                value = child.value  # type: ignore[union-attr]
                lines.append(f"{family.name}{labels} {_fmt(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def validate_prometheus_text(text: str) -> List[str]:
    """Structural re-parse of exporter output; returns problems found."""
    problems: List[str] = []
    typed: Dict[str, str] = {}
    seen_samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE ") \
                or line.startswith("# UNIT "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                problems.append(f"line {lineno}: malformed comment {line!r}")
            elif parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "histogram"):
                    problems.append(
                        f"line {lineno}: unknown TYPE {parts[3]!r}"
                    )
                typed[parts[2]] = parts[3]
            elif parts[1] == "UNIT":
                declared = metric_unit(parts[2])
                stated = parts[3] if len(parts) > 3 else None
                if stated != declared:
                    problems.append(
                        f"line {lineno}: UNIT {stated!r} disagrees with "
                        f"the {parts[2]!r} suffix contract ({declared!r})"
                    )
            continue
        if line.startswith("#"):
            problems.append(f"line {lineno}: unexpected comment {line!r}")
            continue
        sample = _SAMPLE_RE.match(line)
        if not sample:
            problems.append(f"line {lineno}: malformed sample {line!r}")
            continue
        if sample.group(1):
            problem = _label_problem(sample.group(1))
            if problem is not None:
                problems.append(f"line {lineno}: {problem}")
                continue
        seen_samples += 1
        name = line.split("{", 1)[0].split(" ", 1)[0]
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            problems.append(
                f"line {lineno}: sample {name!r} has no TYPE header"
            )
    if seen_samples == 0:
        problems.append("no samples at all")
    return problems


#: CPython's C encoder: it serves ``encode`` whenever ``indent`` is None.
#: Sorted keys make every event's text, and so the export, byte-stable.
_encode = json.JSONEncoder(sort_keys=True).encode


def _thread_name(pid: int, tid: int, name: str) -> str:
    return _encode({"name": "thread_name", "ph": "M", "pid": pid,
                    "tid": tid, "args": {"name": name}})


def iter_chrome_trace(tracer: Tracer,
                      registry: Optional[MetricsRegistry] = None,
                      label: str = "zomtrace") -> Iterator[str]:
    """Yield the Chrome-trace JSON text in chunks, one event per line.

    Only one encoded event is alive at a time.  A ``thread_name``
    metadata event names each (pid, tid) lane just before the lane's
    first span, so a lane no span uses is never named; the counter
    lane ``(0, 0)`` is always named first.  The tracer must not record
    while the generator is suspended.
    """
    other: Dict[str, object] = {"exporter": label}
    if registry is not None:
        other["metric_families"] = len(registry.families())
    # The document's keys, in the sorted order the encoder would use.
    yield (f'{{"displayTimeUnit": "ms", "otherData": {_encode(other)}, '
           f'"traceEvents": [\n{_thread_name(0, 0, "timeline")}')
    node_tids: Dict[str, int] = {}
    lanes: Set[Tuple[int, int]] = set()
    for span in tracer.spans:
        if span.end_s is None:
            continue
        node = span.tags.get("node")
        key = str(node) if node is not None else "?"
        tid = node_tids.setdefault(key, len(node_tids) + 1)
        lane = (span.trace_id, tid)
        if lane not in lanes:
            lanes.add(lane)
            yield ",\n" + _thread_name(span.trace_id, tid, key)
        args = dict(span.tags)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.status != "ok":
            args["status"] = span.status
        yield ",\n" + _encode({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": span.start_s * 1e6,
            "dur": span.duration_s * 1e6,
            "pid": span.trace_id,
            "tid": tid,
            "args": args,
        })
    for sample in tracer.samples:
        yield ",\n" + _encode({
            "name": sample.name,
            "cat": "timeline",
            "ph": "C",
            "ts": sample.time_s * 1e6,
            "pid": 0,
            "tid": 0,
            "args": {sample.track: sample.value},
        })
    yield "\n]}\n"


def to_chrome_trace(tracer: Tracer,
                    registry: Optional[MetricsRegistry] = None,
                    label: str = "zomtrace") -> str:
    """Render finished spans + timeline samples as Chrome-trace JSON."""
    return "".join(iter_chrome_trace(tracer, registry, label))


class _Flagged(NamedTuple):
    """What the parse hook made of an event with problems.

    Each problem is its message minus the ``event <i>`` prefix, which
    only the walk over ``traceEvents`` knows.
    """

    span: Optional[SpanRef]
    problems: Tuple[str, ...]


#: What the parse hook returns for a well-formed M or C event (``json``
#: itself never yields a tuple, so this cannot be a parsed value).
_CLEAN = ()


def _reduce_event(obj: dict) -> object:
    """``json.loads`` object hook: one event dict to the little it needs.

    A clean X event becomes its :class:`SpanRef`, a clean M or C event
    :data:`_CLEAN`, anything else a :class:`_Flagged`.  JSON objects
    close innermost first, so ``args`` is already parsed here; objects
    without ``ph`` (``args``, ``otherData``, the document) pass through.
    """
    if "ph" not in obj:
        return obj
    ph = obj["ph"]
    if ph not in ("X", "C", "M"):
        return _Flagged(None, (f": unknown phase {ph!r}",))
    if "name" not in obj or "pid" not in obj:
        return _Flagged(None, (": missing name/pid",))
    name = obj["name"]
    if ph == "M":
        return _CLEAN
    if ph == "C":
        if obj.get("args"):
            return _CLEAN
        return _Flagged(None, (f" ({name}): counter w/o args",))
    if type(name) is str:
        name = sys.intern(name)  # a few dozen names across every span
    problems: List[str] = []
    dur = obj.get("dur")
    if "dur" in obj and type(dur) not in (int, float):
        problems.append(f" ({name}): non-numeric dur {dur!r}")
    elif "dur" not in obj or dur < 0:
        problems.append(f" ({name}): missing/negative dur")
    args = obj.get("args")
    if not isinstance(args, dict) or "span_id" not in args:
        problems.append(f" ({name}): no span_id")
        return _Flagged(None, tuple(problems))
    span = SpanRef(obj["pid"], args["span_id"], args.get("parent_id"), name)
    if (type(span.trace_id) is not int or type(span.span_id) is not int
            or span.parent_id is not None and type(span.parent_id) is not int):
        problems.append(f" ({name}): non-integer pid/span_id/parent_id")
        return _Flagged(None, tuple(problems))
    return _Flagged(span, tuple(problems)) if problems else span


def validate_chrome_trace(text: str) -> List[str]:
    """Re-parse Chrome-trace JSON and check event + span-tree structure.

    The parse hook shrinks each event as it is read, so the document is
    never held whole: besides ``text``, memory is one small record per
    event.
    """
    try:
        doc = json.loads(text, object_hook=_reduce_event)
    except json.JSONDecodeError as exc:
        return [f"not valid JSON: {exc}"]
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["missing traceEvents key"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    problems: List[str] = []
    spans: List[SpanRef] = []
    for i, event in enumerate(events):
        kind = type(event)
        if kind is SpanRef:
            spans.append(event)
        elif kind is _Flagged:
            problems.extend(f"event {i}{problem}"
                            for problem in event.problems)
            if event.span is not None:
                spans.append(event.span)
        elif kind is dict:
            problems.append(f"event {i}: unknown phase None")
        elif event is not _CLEAN:
            problems.append(f"event {i}: not an object ({kind.__name__})")
    problems.extend(span_forest_errors(spans))
    return problems
