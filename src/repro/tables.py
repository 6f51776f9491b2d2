"""One renderer for every table the repo prints.

A report is data: a :class:`Table` is a title, column headings and rows
of plain values.  One cell rule turns a value into text — ``None`` is
``-``, infinity is ``∞``, a float gets two decimals (or, from 1 000 up,
none and thousands separators) — and two layouts print a table:
:func:`to_text` (aligned columns, for terminals and CI logs) and
:func:`to_markdown` (the generated experiment report).  :func:`dumps` is
the one stable JSON writer for the data behind them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Table:
    """Rows under column headings; ``empty`` is printed when there are none.

    In text, a table without column headings prints its rows only — the
    shape of a short prose section.
    """

    title: str
    columns: Sequence[str]
    rows: Sequence[Sequence[object]]
    empty: str = "(no rows)"


def cell(value: object) -> str:
    """The one rule turning a table value into text."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == math.inf:
            return "∞"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    return str(value)


def _numeric(column: Sequence[object]) -> bool:
    return all(value is None or isinstance(value, (int, float))
               for value in column)


def to_text(table: Table) -> str:
    """The title, underlined, then aligned columns (numbers flush right)."""
    lines = [table.title, "-" * len(table.title)]
    if not table.rows:
        lines.append(f"  {table.empty}")
        return "\n".join(lines) + "\n"
    grid = [[cell(value) for value in row] for row in table.rows]
    if table.columns:
        grid.insert(0, list(table.columns))
    widths = [max(len(row[i]) for row in grid) for i in range(len(grid[0]))]
    right = [_numeric(column) for column in zip(*table.rows)]
    for row in grid:
        padded = (text.rjust(width) if flush else text.ljust(width)
                  for text, width, flush in zip(row, widths, right))
        lines.append(("  " + "  ".join(padded)).rstrip())
    return "\n".join(lines) + "\n"


def to_markdown(table: Table) -> str:
    """A ``##`` heading and a pipe table (or the ``empty`` line)."""
    lines = [f"## {table.title}", ""]
    if not table.rows:
        lines.append(table.empty)
    else:
        lines.append("| " + " | ".join(table.columns) + " |")
        lines.append("|" + "|".join("---" for _ in table.columns) + "|")
        lines += ["| " + " | ".join(cell(value) for value in row) + " |"
                  for row in table.rows]
    return "\n".join(lines) + "\n"


def dumps(data: object) -> str:
    """Stable JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
