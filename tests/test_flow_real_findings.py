"""Regression tests for the real findings the passes surfaced and the
code fixed.

Each lint row of ``tests/mutations.py`` *re-introduces* a defect by
patching the real source text in memory (un-fixing it) and its rule must
fire with the row's fingerprint — proving both that the fix is
load-bearing for the analysis and that the rule would catch the
regression.  The pristine tree carries no finding at all
(``TestBaselineParity``).
"""

from pathlib import Path

import pytest

from repro.lint.__main__ import main
from tests.mutations import MUTATIONS, ROWS, Lint, caught

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name", [m.name for m in MUTATIONS if isinstance(m.witness, Lint)])
def test_lint_row_is_caught(name, real_sources, real_findings):
    assert caught(ROWS[name], real_sources, real_findings) == (True, True)


class TestBaselineParity:
    """The accepted-findings list is empty by construction: no baseline
    file is checked in, the CLI takes no option to read or write one, and
    the pristine tree has nothing such a file would have to hold."""

    def test_checked_in_baseline_matches_pristine_tree(self, real_findings,
                                                       capsys):
        assert not (REPO_ROOT / "flow_baseline.json").exists()
        for option in ("--baseline", "--no-baseline", "--regen"):
            with pytest.raises(SystemExit) as exc:
                main(["src", option])
            assert exc.value.code == 2
            assert option in capsys.readouterr().err
        assert real_findings == [], "\n".join(map(str, real_findings))

    def test_tree_is_dimensionally_clean(self, real_findings):
        # ZomDim found no real unit bugs left standing: the energy model
        # is dimension-sound.
        assert [f for f in real_findings
                if f.rule in ("ZL012", "ZL013", "ZL014")] == []
