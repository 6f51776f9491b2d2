"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it runs the
experiment once inside ``benchmark.pedantic``, prints the same rows/series
the paper reports (visible with ``pytest benchmarks/ --benchmark-only -s``
or in the captured section), and asserts the paper's *shape* — orderings,
crossovers, approximate factors — not absolute numbers.
"""

from repro.tables import Table, to_text


def print_table(title, header, rows):
    """Print one paper-style table through the repo's one renderer."""
    print()
    print(to_text(Table(title, header, rows)), end="")
