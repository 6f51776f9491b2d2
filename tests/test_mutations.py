"""Every row of the mutation table still matches the tree it mutates.

The cheap half of ``tests/mutations.py``: no subprocess, no analysis.  A
refactor that renames a mutated line or a witness test fails here in
seconds; ``python tests/mutations.py`` proves each row is still caught.
"""

import ast
from pathlib import Path

import pytest

from tests.mutations import MUTATIONS, ROOT, Lint, apply


def _defined_tests(path: Path):
    """Every ``name`` and ``Class::name`` a node id can select in ``path``."""
    found = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        if isinstance(node, ast.ClassDef):
            found.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return found


def test_row_names_are_unique():
    names = [mutation.name for mutation in MUTATIONS]
    assert sorted(set(names)) == sorted(names)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.name)
def test_row_matches_the_tree(mutation):
    # Each ``old`` occurs exactly once, in order, or apply raises.
    apply({path: (ROOT / path).read_text() for path, _, _ in mutation.edits},
          mutation.edits)
    if isinstance(mutation.witness, Lint):
        return
    for node_id in mutation.witness:
        path, _, test = node_id.partition("::")
        assert test in _defined_tests(ROOT / path), f"no test {node_id}"
