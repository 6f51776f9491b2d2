"""Explorer tests: exhaustiveness, exact state spaces, counterexample quality."""

import pytest

from repro.check import Explorer, ProtocolModel
from repro.check.__main__ import main as check_main
from repro.check.model import BOUNDS, Bounds
from repro.check.mutants import MUTANTS
from repro.check.trace import minimize_trace, run_trace


@pytest.fixture(scope="module")
def tiny_result():
    return Explorer(ProtocolModel(BOUNDS["tiny"])).run()


class TestExhaustiveExploration:
    def test_tiny_bound_is_clean_and_complete(self, tiny_result):
        assert tiny_result.ok
        assert tiny_result.complete
        assert tiny_result.violation is None
        assert tiny_result.trace is None

    def test_tiny_bound_is_nontrivial(self, tiny_result):
        # The configuration must actually interleave: thousands of
        # distinct states, well past any single test's reach.
        assert tiny_result.states > 1_000
        assert tiny_result.transitions > tiny_result.states
        assert tiny_result.max_depth >= 10

    def test_tiny_state_space_is_pinned_exactly(self, tiny_result):
        # A changed model moves these: a new action, guard or state field
        # must show up here as a deliberate re-pin, never silently.
        assert tiny_result.states == 3_324
        assert tiny_result.max_depth == 13
        assert tiny_result.transitions == 30_920

    def test_state_cap_reports_incomplete(self):
        result = Explorer(ProtocolModel(BOUNDS["tiny"]),
                          max_states=100).run()
        assert not result.complete
        assert result.states >= 100
        assert result.ok  # truncated, but nothing bad in what was seen

    def test_two_leases_per_user_drain_clean(self):
        # The only tier-1 exploration with more than one lease per user:
        # reclaim and failure reporting then pick among several buffers.
        bound = Bounds("two-leases", hosts=2, buffers_per_host=1,
                       max_faults=1, max_leases_per_user=2,
                       max_states=500_000)
        result = Explorer(ProtocolModel(bound)).run()
        assert result.complete
        assert result.ok
        assert result.states == 4_284


class TestSeededMutants:
    """Each seeded bug must yield a minimal, replayable counterexample."""

    EXPECTED_KIND = {
        "skip-epoch-bump": "fenced-write",
        "dispatch-in-sz": "cpu-dead-dispatch",
        "double-lend": "double-lend",
        "no-dedup": "duplicate-execution",
    }
    EXPECTED_TRACE = {
        "skip-epoch-bump": ("kill_controller", "promote", "stale_mirror_op"),
        "dispatch-in-sz": ("GS_alloc_ext(h1)", "GS_goto_zombie(h1)",
                           "GS_reclaim(h2)"),
        "double-lend": ("GS_alloc_ext(h1)", "GS_transfer(h1,h2)",
                        "GS_alloc_ext(h1)"),
        "no-dedup": ("dup_GS_alloc_ext(h1)",),
    }

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_mutant_is_caught_with_a_minimal_trace(self, mutant):
        model = ProtocolModel(BOUNDS["tiny"], mutant=mutant)
        result = Explorer(model).run()
        assert not result.ok
        assert result.violation.kind == self.EXPECTED_KIND[mutant]
        assert result.trace.names == self.EXPECTED_TRACE[mutant]
        names = list(result.trace.names)
        assert 0 < len(names) <= len(result.raw_trace)

        # The minimized trace still reproduces the violation in the model.
        run = run_trace(model, names)
        assert run.valid
        assert run.violates(result.violation.kind)

        # 1-minimality: dropping any single step kills the counterexample.
        for index in range(len(names)):
            candidate = names[:index] + names[index + 1:]
            shrunk = run_trace(model, candidate)
            assert not (shrunk.valid
                        and shrunk.violates(result.violation.kind))

    def test_expected_kinds_cover_all_mutants(self):
        assert set(self.EXPECTED_KIND) == set(MUTANTS)
        assert set(self.EXPECTED_TRACE) == set(MUTANTS)


class TestTraceTools:
    def test_run_trace_rejects_disabled_steps(self):
        model = ProtocolModel(BOUNDS["tiny"])
        run = run_trace(model, ["GS_wake(h1)"])  # h1 is not a zombie
        assert not run.valid

    def test_minimize_requires_a_violating_trace(self):
        model = ProtocolModel(BOUNDS["tiny"])
        with pytest.raises(ValueError):
            minimize_trace(model, ["GS_goto_zombie(h1)"])

    def test_minimize_strips_commuting_noise(self):
        model = ProtocolModel(BOUNDS["tiny"], mutant="skip-epoch-bump")
        padded = ["GS_goto_zombie(h1)", "kill_controller", "promote",
                  "stale_mirror_op"]
        minimal = minimize_trace(model, padded)
        assert minimal == ["kill_controller", "promote", "stale_mirror_op"]


class TestCliExitCodes:
    def test_clean_complete_bound_exits_0(self, capsys):
        assert check_main(["--bound", "tiny"]) == 0
        assert "states           3,324\n" in capsys.readouterr().out

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_mutant_exits_1(self, mutant):
        assert check_main(["--bound", "tiny", "--mutant", mutant]) == 1

    # medium is not expected to drain under its own 2 M cap (see
    # docs/MODELCHECK.md); a lower cap takes the same exit in a fraction
    # of the time.
    @pytest.mark.parametrize("bound", ["tiny", "medium"])
    def test_truncated_run_exits_3(self, bound, capsys):
        assert check_main(["--bound", bound, "--max-states", "100"]) == 3
        assert "incomplete" in capsys.readouterr().out

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_max_states_below_1_is_rejected(self, cap, capsys):
        with pytest.raises(SystemExit) as exit_info:
            check_main(["--bound", "tiny", "--max-states", cap])
        assert exit_info.value.code == 2
        assert "--max-states: must be at least 1" in capsys.readouterr().err
