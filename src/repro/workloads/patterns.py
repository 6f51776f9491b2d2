"""Access-pattern generators.

All generators yield ``(ppn, is_write)`` pairs over a page range
``[0, total_pages)`` and take an explicit
:class:`~repro.sim.rng.DeterministicRng` so streams replay identically.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.errors import ConfigurationError
from repro.sim.rng import DeterministicRng

Access = Tuple[int, bool]


def sliding_window_scan(total_pages: int, rng: DeterministicRng,
                        window_frac: float = 0.5,
                        slide_frac: float = 0.1,
                        passes: int = 4,
                        hot_frac: float = 0.08,
                        hot_prob: float = 0.25,
                        write_ratio: float = 0.5) -> Iterator[Access]:
    """Phased scan with a sliding working window and a persistent hot set.

    Models an application whose *instantaneous* working set (the window) is
    a fraction of its total data: it makes ``passes`` sequential passes over
    the current window, interleaved with accesses to a small persistent hot
    set (indices/metadata), then slides the window forward until the whole
    array has been covered.

    The hot set is the oldest-faulted yet most-referenced data — exactly
    the pages FIFO wrongly evicts and Clock/Mixed protect, which is what
    separates the three policies in Fig. 8.
    """
    if total_pages <= 0:
        raise ConfigurationError(f"total_pages must be positive: {total_pages}")
    if not 0.0 < window_frac <= 1.0 or not 0.0 < slide_frac <= 1.0:
        raise ConfigurationError("window_frac and slide_frac must be in (0,1]")
    if passes <= 0:
        raise ConfigurationError(f"passes must be positive: {passes}")
    window = max(1, int(total_pages * window_frac))
    # A slide larger than the window would skip pages entirely.
    slide = min(window, max(1, int(total_pages * slide_frac)))
    hot_pages = max(1, int(total_pages * hot_frac))
    start = 0
    while True:
        end = min(start + window, total_pages)
        for _ in range(passes):
            for ppn in range(start, end):
                if ppn >= hot_pages and rng.random() < hot_prob:
                    hot = rng.randint(0, hot_pages - 1)
                    yield hot, rng.random() < write_ratio
                yield ppn, rng.random() < write_ratio
        if end >= total_pages:
            return
        start += slide


def zipf_stream(total_pages: int, count: int, rng: DeterministicRng,
                alpha: float = 1.0,
                write_ratio: float = 0.1) -> Iterator[Access]:
    """``count`` zipf-popular accesses: rank 0 is the hottest page."""
    if total_pages <= 0 or count < 0:
        raise ConfigurationError("invalid zipf stream parameters")
    for _ in range(count):
        yield rng.zipf(total_pages, alpha), rng.random() < write_ratio
