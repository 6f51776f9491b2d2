"""Units and constants shared across the library.

All memory sizes are plain ``int`` bytes, all times are ``float`` seconds and
all energies are ``float`` joules unless a name says otherwise.  Helper
constants keep call sites readable (``4 * GiB`` instead of ``4294967296``).

These conventions are *enforced*, not just documented: the ZomDim passes
(``repro.lint.dimensions``, rules ZL012-ZL014, see ``docs/FLOWCHECK.md``)
statically infer a dimension for every value from the declarative tables
below (:data:`UNIT_DIMENSIONS`, :data:`UNIT_CONVERSIONS`,
:data:`METRIC_UNIT_SUFFIXES`) plus naming conventions, and flag
mixed-dimension arithmetic across the whole call graph.  Convert between
dimensions only through the blessed helpers (:func:`bytes_to_gib`,
:func:`pages_to_bytes`, :func:`joules_to_kwh`, :func:`watts_x_seconds`,
:func:`pages`) so the analyzer sees one conversion point per dimension
pair.
"""

from __future__ import annotations

# --- memory sizes -----------------------------------------------------------
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

#: The x86 base page size used throughout the paging model.
PAGE_SIZE = 4 * KiB

#: Rack-wide remote-memory buffer size (the paper's ``BUFF_SIZE``).  The value
#: is uniform across the entire rack; 64 MiB keeps the buffer database small
#: while remaining fine-grained enough for reclaim.
DEFAULT_BUFF_SIZE = 64 * MiB

# --- time -------------------------------------------------------------------
NANOSECOND = 1e-9
MICROSECOND = 1e-6
MILLISECOND = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR

# --- energy / power ---------------------------------------------------------
JOULE = 1.0
WATT = 1.0  # J/s
KILOWATT = 1e3
#: 1 kWh in joules.
KILOWATT_HOUR = 3.6e6

# --- ZomDim declarative annotation tables -----------------------------------
# Parsed statically by ``repro.lint.dimensions`` (keep them literal dicts of
# strings).  A tree under analysis may ship its own ``units.py`` with these
# names to override the defaults; this file is the source of truth for the
# real tree.

#: Dimension of each module-level constant above.
UNIT_DIMENSIONS = {
    "KiB": "bytes", "MiB": "bytes", "GiB": "bytes", "TiB": "bytes",
    "PAGE_SIZE": "bytes", "DEFAULT_BUFF_SIZE": "bytes",
    "NANOSECOND": "seconds", "MICROSECOND": "seconds",
    "MILLISECOND": "seconds", "SECOND": "seconds", "MINUTE": "seconds",
    "HOUR": "seconds", "DAY": "seconds",
    "JOULE": "joules", "KILOWATT_HOUR": "joules",
    "WATT": "watts", "KILOWATT": "watts",
}

#: Signatures of the blessed conversion helpers: name -> (parameter
#: dimensions in order, return dimension).  ``None`` means unconstrained.
UNIT_CONVERSIONS = {
    "pages": (("bytes",), "pages"),
    "buffers_for": (("bytes", "bytes"), None),
    "bytes_to_gib": (("bytes",), "gib"),
    "pages_to_bytes": (("pages",), "bytes"),
    "joules_to_kwh": (("joules",), "kwh"),
    "watts_x_seconds": (("watts", "seconds"), "joules"),
    "fmt_size": (("bytes",), None),
    "fmt_time": (("seconds",), None),
}

#: Metric-name suffix -> dimension of every value fed to the instrument
#: (ZL014 unit contracts; longest suffix wins).  The Prometheus exporter
#: derives ``# UNIT`` metadata from the same table.
METRIC_UNIT_SUFFIXES = {
    "_joules_total": "joules", "_joules": "joules",
    "_watts": "watts",
    "_bytes_total": "bytes", "_bytes": "bytes",
    "_seconds_total": "seconds", "_seconds": "seconds",
    "_pages_total": "pages", "_pages": "pages",
    "_pct": "fraction",
    "_usd": "dollars",
}


def metric_unit(name: str) -> str | None:
    """The declared unit of a metric name, from its suffix (or ``None``)."""
    for suffix in sorted(METRIC_UNIT_SUFFIXES, key=len, reverse=True):
        if name.endswith(suffix):
            return METRIC_UNIT_SUFFIXES[suffix]
    return None


def pages(size_bytes: int) -> int:
    """Number of :data:`PAGE_SIZE` pages needed to hold ``size_bytes``.

    Rounds up, so any non-zero size needs at least one page.
    """
    if size_bytes < 0:
        raise ValueError(f"size must be non-negative, got {size_bytes}")
    return (size_bytes + PAGE_SIZE - 1) // PAGE_SIZE


def buffers_for(size_bytes: int, buff_size: int = DEFAULT_BUFF_SIZE) -> int:
    """Number of rack buffers of ``buff_size`` needed to back ``size_bytes``."""
    if buff_size <= 0:
        raise ValueError(f"buff_size must be positive, got {buff_size}")
    if size_bytes < 0:
        raise ValueError(f"size must be non-negative, got {size_bytes}")
    return (size_bytes + buff_size - 1) // buff_size


def bytes_to_gib(size_bytes: float) -> float:
    """Convert a byte count to GiB."""
    return size_bytes / GiB


def pages_to_bytes(page_count: int) -> int:
    """Size in bytes of ``page_count`` whole :data:`PAGE_SIZE` pages."""
    return page_count * PAGE_SIZE


def joules_to_kwh(energy_joules: float) -> float:
    """Convert an energy in joules to kilowatt-hours."""
    return energy_joules / KILOWATT_HOUR


def watts_x_seconds(power_watts: float, duration_s: float) -> float:
    """Energy in joules of ``power_watts`` sustained for ``duration_s``."""
    return power_watts * duration_s


def fmt_size(size_bytes: float) -> str:
    """Human-readable rendering of a byte count (``'6.0 GiB'``)."""
    size = float(size_bytes)
    for unit, name in ((TiB, "TiB"), (GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")):
        if abs(size) >= unit:
            return f"{size / unit:.1f} {name}"
    return f"{size:.0f} B"


def fmt_time(seconds: float) -> str:
    """Human-readable rendering of a duration (``'12.3 ms'``)."""
    if abs(seconds) >= 1.0:
        return f"{seconds:.3g} s"
    if abs(seconds) >= MILLISECOND:
        return f"{seconds / MILLISECOND:.3g} ms"
    if abs(seconds) >= MICROSECOND:
        return f"{seconds / MICROSECOND:.3g} us"
    return f"{seconds / NANOSECOND:.3g} ns"
