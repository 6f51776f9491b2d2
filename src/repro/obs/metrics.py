"""The ZomTrace metrics registry: counters, gauges, sim-time histograms.

Design points, in decreasing order of importance:

- **zero overhead when disabled** — a disabled registry returns shared
  no-op instruments (:data:`NULL_COUNTER` and friends), so callers may
  cache them and call ``inc()``/``observe()`` unconditionally;
- **labels** — instruments are grouped into families; a family plus one
  concrete label set is one child instrument
  (``registry.counter("rpc_calls_total", verb="GS_wake")``);
- **snapshot/delta** — :meth:`MetricsRegistry.snapshot` flattens the
  registry into a plain ``{series_name: value}`` dict and
  :meth:`MetricsRegistry.delta` diffs two snapshots, which is how
  benchmarks assert on *measured* behaviour instead of return values;
- **sim-time histograms** — histogram observations are simulated
  seconds (or any float); bucket bounds default to a log-spaced latency
  ladder from 1 µs to 5 min, and quantiles are estimated from bucket
  counts so memory stays bounded no matter how many observations.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

LabelKey = Tuple[Tuple[str, str], ...]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Log-spaced seconds ladder: 1 µs .. 5 min.  Covers one-sided verbs
#: (µs), RPC round trips (tens of µs), fault paths (ms), backoff and
#: recovery (s), and Sz dwell times (minutes).
DEFAULT_BUCKETS = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 300.0,
)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_labels(key: LabelKey) -> str:
    """``{a="1",b="x"}`` (empty string for the unlabelled child)."""
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter increment must be >= 0, got {amount}"
            )
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Bucketed distribution with count/sum/min/max and quantile estimates.

    Memory is O(len(buckets)) regardless of observation count: quantiles
    are interpolated from cumulative bucket counts, which is exactly the
    Prometheus ``histogram_quantile`` contract.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ConfigurationError("duplicate histogram bucket bounds")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        if math.isnan(value):
            raise ConfigurationError("histogram observation is NaN")
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # The first bound >= value; past the last bound is +Inf.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 < q <= 1) from bucket counts.

        Linear interpolation inside the winning bucket; the lowest
        bucket interpolates from 0 and the overflow bucket returns the
        observed maximum (the honest upper bound we still have).  The
        estimate is clamped to the observed ``[min, max]``: a bucket's
        bounds are wider than the data that fell in it.
        """
        if not 0.0 < q <= 1.0:
            raise ConfigurationError(f"quantile out of (0, 1]: {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        estimate = self.max
        for i, bucket_count in enumerate(self.bucket_counts[:-1]):
            if bucket_count and cumulative + bucket_count >= rank:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (self.bounds[i] - lower) * fraction
                break
            cumulative += bucket_count
        return min(max(estimate, self.min), self.max)  # type: ignore[type-var]

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` rows, +Inf last."""
        rows: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            running += bucket_count
            rows.append((bound, running))
        rows.append((float("inf"), running + self.bucket_counts[-1]))
        return rows


class _NullCounter(Counter):
    """Shared do-nothing counter handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricFamily:
    """One metric name: its kind, help text, and per-label children."""

    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.children: Dict[LabelKey, object] = {}

    def series(self) -> List[Tuple[LabelKey, object]]:
        return sorted(self.children.items())


class MetricsRegistry:
    """The rack's metric namespace.

    One registry per :class:`~repro.obs.Telemetry` hub.  Instruments are
    created (or fetched) with :meth:`counter` / :meth:`gauge` /
    :meth:`histogram`; asking twice with the same name and labels returns
    the same child, so call sites may either cache the instrument or
    re-resolve it every time.  A label set seen before costs one dict
    lookup keyed on its spelling (``(kind, name, *labels.items())``);
    only a new one is validated, normalised and filed by :meth:`_child`.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families: Dict[str, MetricFamily] = {}
        #: Spelling -> child, for spellings whose label values are all
        #: ``str`` (``1``, ``1.0`` and ``True`` hash alike but label
        #: differently) and whose family already has its help text.
        self._spellings: Dict[tuple, object] = {}

    # -- instrument access -------------------------------------------------
    def counter(self, name: str, help: str = "", **labels) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        child = self._spellings.get(("counter", name, *labels.items()))
        if child is None:
            child = self._child(name, "counter", help, labels, Counter)
        return child  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        child = self._spellings.get(("gauge", name, *labels.items()))
        if child is None:
            child = self._child(name, "gauge", help, labels, Gauge)
        return child  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        child = self._spellings.get(("histogram", name, *labels.items()))
        if child is None:
            child = self._child(name, "histogram", help, labels,
                                lambda: Histogram(buckets))
        return child  # type: ignore[return-value]

    def _child(self, name: str, kind: str, help_text: str,
               labels: Dict[str, object], factory) -> object:
        family = self._families.get(name)
        if family is None:
            if not _NAME_RE.match(name):
                raise ConfigurationError(f"invalid metric name {name!r}")
        elif family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as {family.kind}, "
                f"requested as {kind}"
            )
        key = _label_key(labels)
        child = None if family is None else family.children.get(key)
        if child is None:
            # A family's first label set does not vouch for the next.
            for label in labels:
                if not LABEL_NAME_RE.match(label):
                    raise ConfigurationError(
                        f"invalid label name {label!r} on metric {name!r}"
                    )
            if family is None:
                family = MetricFamily(name, kind, help_text)
                self._families[name] = family
            child = factory()
            family.children[key] = child
        if help_text and not family.help:
            family.help = help_text
        if family.help and all(type(v) is str for v in labels.values()):
            self._spellings[(kind, name, *labels.items())] = child
        return child

    # -- introspection -----------------------------------------------------
    def families(self) -> List[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str, **labels) -> Optional[object]:
        """The existing child for ``name``+labels, or None (never creates)."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.children.get(_label_key(labels))

    def value(self, name: str, **labels) -> float:
        """Convenience: the child's scalar value (0.0 when absent)."""
        child = self.get(name, **labels)
        if child is None:
            return 0.0
        if isinstance(child, Histogram):
            return float(child.count)
        return float(child.value)  # type: ignore[union-attr]

    def labels_for(self, name: str) -> List[Dict[str, str]]:
        """Every label set recorded under ``name``."""
        family = self._families.get(name)
        if family is None:
            return []
        return [dict(key) for key, _ in family.series()]

    # -- snapshot / delta --------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flatten every series into ``{name{labels}: value}``.

        Histograms contribute ``_count`` and ``_sum`` series, which is
        what delta-based assertions almost always want.
        """
        out: Dict[str, float] = {}
        for family in self.families():
            for key, child in family.series():
                suffix = format_labels(key)
                if isinstance(child, Histogram):
                    out[f"{family.name}_count{suffix}"] = float(child.count)
                    out[f"{family.name}_sum{suffix}"] = child.sum
                else:
                    out[f"{family.name}{suffix}"] = float(child.value)  # type: ignore[union-attr]
        return out

    @staticmethod
    def delta(before: Dict[str, float],
              after: Dict[str, float]) -> Dict[str, float]:
        """``after - before`` for every series, dropping exact zeros.

        Series absent from ``before`` count from 0, so a delta across an
        operation reports everything the operation touched.
        """
        out: Dict[str, float] = {}
        for name, value in after.items():
            change = value - before.get(name, 0.0)
            if change != 0.0:
                out[name] = change
        return out
