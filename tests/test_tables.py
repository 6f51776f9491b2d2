"""The one table renderer: cell rule, text and markdown layouts, JSON."""

import math

from repro.tables import Table, cell, dumps, to_markdown, to_text


def test_one_cell_rule():
    assert cell(None) == "-"
    assert cell(math.inf) == "∞"
    assert cell(12.666) == "12.67"
    assert cell(311245.4) == "311,245"
    assert cell(7) == "7"
    assert cell("GS_wake") == "GS_wake"


def test_text_aligns_numbers_right_and_labels_left():
    table = Table("Demo", ("verb", "calls"), [("GS_wake", 2), ("hb", 193)])
    assert to_text(table) == ("Demo\n"
                              "----\n"
                              "  verb     calls\n"
                              "  GS_wake      2\n"
                              "  hb         193\n")


def test_empty_table_prints_its_placeholder_without_a_header():
    text = to_text(Table("Demo", ("verb",), [], empty="(nothing)"))
    assert text == "Demo\n----\n  (nothing)\n"
    assert to_markdown(Table("Demo", ("verb",), [], empty="(nothing)")) \
        == "## Demo\n\n(nothing)\n"


def test_markdown_renders_the_same_cells():
    table = Table("Demo", ("machine", "Sz"), [("HP", 12.666), ("x", None)])
    assert to_markdown(table) == ("## Demo\n\n"
                                  "| machine | Sz |\n"
                                  "|---|---|\n"
                                  "| HP | 12.67 |\n"
                                  "| x | - |\n")


def test_dumps_is_stable():
    assert dumps({"b": 1, "a": [1.5]}) == \
        '{\n  "a": [\n    1.5\n  ],\n  "b": 1\n}\n'
