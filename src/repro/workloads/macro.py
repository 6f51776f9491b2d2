"""Models of the paper's three macro-benchmarks.

The real applications (CloudSuite Data Caching, Elasticsearch nightly
benchmarks on the NYC-taxi data set, Spark SQL with BigBench query 23)
cannot run inside a paging simulator, so each is modelled as the page-level
access stream that determines its remote-memory sensitivity — a zipfian
hot/cold request mix plus a workload-specific share of sequential scan work:

- **Data Caching** (memcached): highly skewed key popularity, almost no
  scans — the least sensitive workload in Table 1;
- **Elasticsearch**: skewed term/document access plus segment-merge scan
  phases — moderate sensitivity;
- **Spark SQL**: scan-dominated query processing over partitions with a
  hot shuffle set — the most sensitive macro-benchmark (27 % at 20 %
  local).

Parameters are calibrated so each column of Table 1 reproduces its paper
shape; the per-access compute cost models the application work per request
(macro-benchmarks report ops/s, so compute dominates when memory is local).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.errors import ConfigurationError
from repro.sim.rng import DeterministicRng
from repro.units import MICROSECOND


@dataclass(frozen=True)
class MacroBenchmark:
    """A macro-benchmark as a parameterized access-stream model."""

    name: str
    wss_pages: int
    alpha: float               # zipf skew of the hot/cold request mix
    scan_frac: float           # fraction of ops that advance a scan cursor
    compute_s: float           # application work per operation
    write_ratio: float = 0.1
    ops_factor: int = 6        # operations per dataset page per run
    seed: int = 7

    def __post_init__(self) -> None:
        if self.wss_pages <= 0:
            raise ConfigurationError(f"{self.name}: wss_pages must be positive")
        if not 0.0 <= self.scan_frac <= 1.0:
            raise ConfigurationError(f"{self.name}: scan_frac out of [0,1]")
        if self.alpha <= 0 or self.compute_s < 0:
            raise ConfigurationError(f"{self.name}: bad alpha/compute")

    @property
    def operations(self) -> int:
        return self.ops_factor * self.wss_pages

    def stream(self) -> Iterator[Tuple[int, bool]]:
        """The deterministic access stream for one execution."""
        rng = DeterministicRng(self.seed)
        cursor = 0
        n = self.wss_pages
        for _ in range(self.operations):
            if rng.random() < self.scan_frac:
                ppn = cursor
                cursor = (cursor + 1) % n
            else:
                ppn = rng.zipf(n, self.alpha)
            yield ppn, rng.random() < self.write_ratio


def DataCaching(wss_pages: int = 3072) -> MacroBenchmark:
    """CloudSuite Data Caching (memcached on a Twitter data set)."""
    return MacroBenchmark(
        name="Data caching", wss_pages=wss_pages,
        alpha=1.35, scan_frac=0.0, compute_s=3.0 * MICROSECOND,
        write_ratio=0.05,
    )


def Elasticsearch(wss_pages: int = 3072) -> MacroBenchmark:
    """Elasticsearch nightly benchmarks (NYC-taxi, structured data)."""
    return MacroBenchmark(
        name="Elastic search", wss_pages=wss_pages,
        alpha=1.3, scan_frac=0.02, compute_s=3.0 * MICROSECOND,
        write_ratio=0.15,
    )


def SparkSql(wss_pages: int = 3072) -> MacroBenchmark:
    """Spark SQL running BigBench query 23 over a 100 GB data set."""
    return MacroBenchmark(
        name="Spark SQL", wss_pages=wss_pages,
        alpha=1.2, scan_frac=0.03, compute_s=2.5 * MICROSECOND,
        write_ratio=0.25,
    )
