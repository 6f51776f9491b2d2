"""Experiment harnesses: the data series behind every table and figure.

:mod:`~repro.analysis.harness` builds scaled-down but fully wired rack
environments; :mod:`~repro.analysis.experiments` runs each experiment and
returns plain data structures that benches print and tests assert on;
:mod:`~repro.analysis.figures` holds the motivation-figure series (Figs 2-3);
:mod:`~repro.analysis.report` tabulates each experiment once
(``EXPERIMENTS``), for ``python -m repro experiment`` (text) and the
generated report (markdown), both through :mod:`repro.tables`.
"""

from repro.analysis.harness import RamExtHarness, ExplicitSdHarness
from repro.analysis.experiments import (
    replacement_policy_comparison, ram_ext_penalty_table,
    swap_technology_table, migration_comparison, sz_energy_table,
    dc_energy_comparison, INFINITE_PENALTY,
)
from repro.analysis.figures import aws_memory_cpu_ratio, server_capacity_ratio
from repro.analysis.report import EXPERIMENTS, generate_report

__all__ = [
    "RamExtHarness", "ExplicitSdHarness",
    "replacement_policy_comparison", "ram_ext_penalty_table",
    "swap_technology_table", "migration_comparison", "sz_energy_table",
    "dc_energy_comparison",
    "INFINITE_PENALTY", "aws_memory_cpu_ratio", "server_capacity_ratio",
    "EXPERIMENTS", "generate_report",
]
