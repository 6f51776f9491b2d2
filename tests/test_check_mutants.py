"""End-to-end: model counterexamples replay against the real rack.

The tentpole guarantee — every ZomCheck violation is not a model
artifact but a real behavior — is enforced here: for each seeded mutant
the explorer's minimized trace is replayed through a concrete
:class:`~repro.core.rack.Rack` (on ``sim.engine``) with the matching
concrete bug patched in and MemSan watching, and the very same finding
kind must fire.  The same trace on the clean tree must stay silent.
"""

import pytest

from repro.check import Explorer, ProtocolModel
from repro.check.model import BOUNDS, KINDS
from repro.check.mutants import MUTANTS
from repro.check.mutants import mutant as make_mutant
from repro.check.replay import TraceReplayer, replay_trace
from repro.core.protocol import READ_ONLY, Method
from repro.sanitize.pytest_plugin import get_session_sanitizer


@pytest.fixture(autouse=True)
def _drain_session_sanitizer(request):
    """Under ``--memsan`` the session sanitizer also observes the replays'
    *intentional* violations; drain them so its per-test check stays about
    accidental ones (same idiom as tests/test_memsan.py)."""
    yield
    session = get_session_sanitizer(request.config)
    if session is not None:
        session.drain_findings()

EXPECTED_KIND = {
    "skip-epoch-bump": "fenced-write",
    "dispatch-in-sz": "cpu-dead-dispatch",
    "double-lend": "double-lend",
    "no-dedup": "duplicate-execution",
}


def _counterexample(mutant_name):
    model = ProtocolModel(BOUNDS["tiny"], mutant=mutant_name)
    result = Explorer(model).run()
    assert not result.ok
    return result


class TestCounterexampleReplay:
    @pytest.mark.parametrize("mutant_name", MUTANTS)
    def test_model_violation_reproduces_concretely(self, mutant_name):
        result = _counterexample(mutant_name)
        replay = replay_trace(BOUNDS["tiny"], result.trace.names,
                              mutant=mutant_name)
        assert replay.reproduces(result.violation.kind), (
            f"{mutant_name}: model found {result.violation.kind!r} but the "
            f"concrete replay only observed {replay.kinds!r}")

    @pytest.mark.parametrize("mutant_name", MUTANTS)
    def test_clean_tree_stays_silent_on_the_same_trace(self, mutant_name):
        result = _counterexample(mutant_name)
        replay = replay_trace(BOUNDS["tiny"], result.trace.names)
        assert replay.kinds == (), (
            f"the unmutated tree reproduced {replay.kinds!r} — either the "
            f"bug is real (fix it!) or the replay mapping is wrong")

    def test_benign_trace_replays_without_findings(self):
        replay = replay_trace(
            BOUNDS["small"],
            ["GS_alloc_ext(h1)", "GS_goto_zombie(h3)", "GS_release(h1)",
             "GS_wake(h3)"])
        assert replay.kinds == ()
        assert all(step.ok for step in replay.steps)


#: Kinds TraceReplayer cannot replay yet: it builds one Rack, and these
#: cross-rack steps need a federated replay (an open ROADMAP item).
NOT_YET_REPLAYABLE = {"FED_borrow", "dup_FED_borrow", "FED_return",
                      "dup_FED_return"}


class TestEveryKindReplays:
    def test_every_action_kind_and_dup_twin_has_a_handler(self):
        # A kind without a handler would otherwise fail only once some
        # counterexample happened to pass through it.
        rows = {m.value: m for m in Method}
        twins = [f"dup_{kind}" for kind in KINDS
                 if kind in rows and rows[kind].idempotency != READ_ONLY]
        assert len(twins) == 11
        unmapped = {
            kind for kind in (*KINDS, *twins)
            # A dup_ twin runs its base kind's handler under a duplicate.
            if not callable(getattr(
                TraceReplayer, f"_do_{kind.removeprefix('dup_')}", None))
        }
        assert unmapped == NOT_YET_REPLAYABLE


class TestMutantPatching:
    def test_install_uninstall_restores_originals(self):
        from repro.core.database import BufferDatabase
        original = BufferDatabase.assign
        bug = make_mutant("double-lend")
        with bug:
            assert BufferDatabase.assign is not original
        assert BufferDatabase.assign is original

    def test_double_install_raises(self):
        bug = make_mutant("dispatch-in-sz")
        with bug:
            with pytest.raises(RuntimeError):
                bug.install()
