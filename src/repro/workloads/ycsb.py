"""YCSB-style workloads (the paper's reference [41]).

The Yahoo! Cloud Serving Benchmark defines six core workloads over a
key-value store; each maps naturally onto a page-access stream once keys
are laid out over pages.  Useful as additional, well-known traffic shapes
for the RAM Ext harness beyond the paper's three macro-benchmarks.

Core workloads (request distribution over records → pages):

- **A** update heavy: 50/50 read/update, zipfian
- **B** read mostly: 95/5 read/update, zipfian
- **C** read only: 100 % read, zipfian
- **D** read latest: new records are the hottest (moving hotspot)
- **E** short ranges: scan bursts starting at zipfian keys
- **F** read-modify-write: zipfian, each op touches the page twice
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.errors import ConfigurationError
from repro.sim.rng import DeterministicRng
from repro.units import MICROSECOND

@dataclass(frozen=True)
class YcsbWorkload:
    """One YCSB core workload over ``total_pages`` of records."""

    name: str
    total_pages: int
    read_ratio: float          # share of pure reads
    zipf_alpha: float = 0.99   # YCSB's default zipfian constant
    latest_bias: bool = False  # workload D: newest records hottest
    scan_ratio: float = 0.0    # workload E: share of ops that are scans
    max_scan_pages: int = 25
    double_touch: bool = False  # workload F: read-modify-write
    operations: int = 0        # 0 = 6 ops per page
    compute_s: float = 2.0 * MICROSECOND
    seed: int = 99

    def __post_init__(self) -> None:
        if self.total_pages <= 0:
            raise ConfigurationError(f"{self.name}: total_pages must be > 0")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ConfigurationError(f"{self.name}: read_ratio out of [0,1]")
        if not 0.0 <= self.scan_ratio <= 1.0:
            raise ConfigurationError(f"{self.name}: scan_ratio out of [0,1]")

    @property
    def op_count(self) -> int:
        return self.operations or 6 * self.total_pages

    def stream(self) -> Iterator[Tuple[int, bool]]:
        """The page-access stream for one run."""
        rng = DeterministicRng(self.seed)
        n = self.total_pages
        inserted = max(1, n // 2)  # workload D starts half-loaded
        ops = 0
        while ops < self.op_count:
            ops += 1
            if self.scan_ratio and rng.random() < self.scan_ratio:
                start = rng.zipf(n, self.zipf_alpha)
                length = rng.randint(1, self.max_scan_pages)
                for offset in range(length):
                    yield (start + offset) % n, False
                continue
            if self.latest_bias:
                if inserted < n and rng.random() < 0.05:
                    yield inserted, True  # insert a new (hot) record
                    inserted += 1
                    continue
                # Read-latest: rank 0 maps to the newest record.
                rank = rng.zipf(inserted, self.zipf_alpha)
                ppn = inserted - 1 - rank
                yield max(ppn, 0), False
                continue
            ppn = rng.zipf(n, self.zipf_alpha)
            is_write = rng.random() >= self.read_ratio
            yield ppn, is_write
            if self.double_touch:
                yield ppn, True  # the modify-write of RMW


def workload_a(total_pages: int = 2048) -> YcsbWorkload:
    """Update heavy: 50/50 read/update, zipfian."""
    return YcsbWorkload("YCSB-A", total_pages, read_ratio=0.5)


def workload_b(total_pages: int = 2048) -> YcsbWorkload:
    """Read mostly: 95/5, zipfian."""
    return YcsbWorkload("YCSB-B", total_pages, read_ratio=0.95)


def workload_c(total_pages: int = 2048) -> YcsbWorkload:
    """Read only, zipfian."""
    return YcsbWorkload("YCSB-C", total_pages, read_ratio=1.0)


def workload_d(total_pages: int = 2048) -> YcsbWorkload:
    """Read latest: a moving hotspot at the newest records."""
    return YcsbWorkload("YCSB-D", total_pages, read_ratio=0.95,
                        latest_bias=True)


def workload_e(total_pages: int = 2048) -> YcsbWorkload:
    """Short ranges: 95 % scans of up to 25 pages."""
    return YcsbWorkload("YCSB-E", total_pages, read_ratio=1.0,
                        scan_ratio=0.95)


def workload_f(total_pages: int = 2048) -> YcsbWorkload:
    """Read-modify-write, zipfian."""
    return YcsbWorkload("YCSB-F", total_pages, read_ratio=0.5,
                        double_touch=True)


YCSB_WORKLOADS = {
    "A": workload_a, "B": workload_b, "C": workload_c,
    "D": workload_d, "E": workload_e, "F": workload_f,
}
