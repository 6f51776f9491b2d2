"""Workload models: page-level access streams for the evaluation.

- :mod:`~repro.workloads.patterns` — reusable access-pattern generators
  (sliding-window scans, zipfian popularity);
- :mod:`~repro.workloads.microbench` — the paper's micro-benchmark: an
  array of 4 KiB entries iterated with read/write operations, the
  worst-case application for remote memory;
- :mod:`~repro.workloads.macro` — models of the three macro-benchmarks
  (CloudSuite Data Caching, Elasticsearch nightly/NYC-taxi, Spark SQL
  BigBench query 23) as hot/cold skewed access streams;
- :mod:`~repro.workloads.driver` — runs a stream against any paging engine
  and integrates simulated execution time.
"""

from repro.workloads.patterns import sliding_window_scan, zipf_stream
from repro.workloads.microbench import MicroBenchmark
from repro.workloads.macro import (MacroBenchmark, DataCaching, Elasticsearch,
                                   SparkSql)
from repro.workloads.driver import WorkloadResult, run_stream
from repro.workloads.ycsb import YCSB_WORKLOADS, YcsbWorkload

__all__ = [
    "sliding_window_scan", "zipf_stream",
    "MicroBenchmark", "MacroBenchmark", "DataCaching", "Elasticsearch",
    "SparkSql", "WorkloadResult", "run_stream",
    "YCSB_WORKLOADS", "YcsbWorkload",
]
