"""ZomCheck model tests: bounds, action enumeration, protocol semantics."""

import pytest

from repro.check import ProtocolModel
from repro.check.model import BOUNDS, KINDS, S0, SZ, Bounds
from repro.check.trace import run_trace
from repro.core.protocol import READ_ONLY, Method


def _step(model, state, name):
    """Apply one named action; returns (new_state, step_violations)."""
    action = model.action_by_name(state, name)
    assert action is not None, f"{name} not enabled"
    new_state, violations = action.apply()
    return (new_state if new_state is not None else state), violations


def _walk(model, names):
    state = model.initial_state()
    for name in names:
        state, violations = _step(model, state, name)
        assert not violations, (name, violations)
    return state


class TestBounds:
    def test_catalogue(self):
        assert set(BOUNDS) == {"tiny", "small", "medium", "fed"}
        for bounds in BOUNDS.values():
            assert isinstance(bounds, Bounds)
            assert bounds.hosts >= 2
            assert bounds.buffers_per_host >= 1
        assert BOUNDS["fed"].racks == 2

    def test_rack_mapping(self):
        fed = BOUNDS["fed"]
        assert [fed.rack_of(h) for h in range(fed.hosts)] == [0, 0, 1]
        assert fed.rack_name(0) == "r1"
        assert fed.rack_name(2) == "r2"
        single = BOUNDS["small"]
        assert {single.rack_of(h) for h in range(single.hosts)} == {0}

    def test_buffer_ownership_roundtrip(self):
        bounds = BOUNDS["small"]
        for host in range(bounds.hosts):
            for bid in bounds.own_bids(host):
                assert bounds.owner_of(bid) == host

    def test_host_names_are_stable(self):
        assert BOUNDS["small"].host_names() == ("h1", "h2", "h3")


class TestActionEnumeration:
    def test_initial_state_is_clean_and_hashable(self):
        model = ProtocolModel(BOUNDS["tiny"])
        state = model.initial_state()
        hash(state)
        assert model.state_violations(state) == []

    def test_enumeration_is_sorted_and_deterministic(self):
        model = ProtocolModel(BOUNDS["tiny"])
        state = model.initial_state()
        first = [a.name for a in model.enabled_actions(state)]
        second = [a.name for a in model.enabled_actions(state)]
        assert first == second == sorted(first)

    def test_verb_contract_matches_the_literal(self):
        # The model's verb universe is the Method table itself: every
        # action verb is a row and every row has an action.
        model = ProtocolModel(BOUNDS["small"])
        assert model.action_verbs() == {m.value for m in Method}
        assert model.verb_contract_errors() == []

    @pytest.mark.parametrize("bounds", [
        BOUNDS["tiny"],
        Bounds("tiny-fed", hosts=2, buffers_per_host=1, max_faults=1,
               max_leases_per_user=1, racks=2),
    ], ids=lambda b: b.name)
    def test_enumerated_kinds_are_exactly_the_declared_ones(self, bounds):
        # Every reachable state's actions, with dup_ twins folded onto
        # their base kind: nothing is emitted that KINDS does not declare.
        model = ProtocolModel(bounds)
        seen, frontier, emitted = set(), [model.initial_state()], set()
        while frontier:
            state = frontier.pop()
            if state in seen:
                continue
            seen.add(state)
            for action in model.enabled_actions(state):
                emitted.add(action.kind.removeprefix("dup_"))
                successor = action.apply()[0]
                if successor is not None:
                    frontier.append(successor)
        assert emitted <= set(KINDS)
        if bounds.racks == 2:  # the cross-rack kinds need two racks
            assert emitted == set(KINDS)

    def test_readonly_probes_are_enumerated(self):
        model = ProtocolModel(BOUNDS["tiny"])
        actions = {a.name: a for a in
                   model.enabled_actions(model.initial_state())}
        assert actions["heartbeat"].readonly
        # GS_get_lru_zombie needs a zombie to exist.
        state = _walk(model, ["GS_goto_zombie(h1)"])
        names = {a.name for a in model.enabled_actions(state)}
        assert "GS_get_lru_zombie" in names


class TestProtocolSemantics:
    def test_goto_zombie_then_wake(self):
        model = ProtocolModel(BOUNDS["tiny"])
        state = _walk(model, ["GS_goto_zombie(h1)"])
        assert state.power[0] == SZ
        names = {a.name for a in model.enabled_actions(state)}
        assert "GS_wake(h1)" in names
        assert "GS_goto_zombie(h1)" not in names
        state = _walk(model, ["GS_goto_zombie(h1)", "GS_wake(h1)"])
        assert state.power[0] == S0

    def test_alloc_never_uses_the_requesting_host(self):
        model = ProtocolModel(BOUNDS["small"])
        state = _walk(model, ["GS_alloc_ext(h1)"])
        bounds = model.bounds
        for (bid, host, kind, user, purpose) in state.db:
            if user == 0:   # h1's allocation
                assert bounds.owner_of(bid) != 0

    def test_promote_bumps_the_epoch(self):
        model = ProtocolModel(BOUNDS["tiny"])
        state = _walk(model, ["kill_controller", "promote"])
        assert state.promoted
        assert state.epoch == 2

    def test_skip_epoch_bump_mutant_does_not(self):
        model = ProtocolModel(BOUNDS["tiny"], mutant="skip-epoch-bump")
        state = _walk(model, ["kill_controller", "promote"])
        assert state.promoted
        assert state.epoch == 1

    def test_stale_mirror_is_fenced_on_the_clean_model(self):
        model = ProtocolModel(BOUNDS["tiny"])
        state = _walk(model, ["kill_controller", "promote",
                              "stale_mirror_op"])
        assert state.deposed_fenced
        assert not state.tainted

    def test_crash_heal_reboots_to_s0(self):
        model = ProtocolModel(BOUNDS["tiny"])
        state = _walk(model, ["GS_goto_zombie(h1)", "crash(h1)", "heal(h1)"])
        assert state.power[0] == S0
        assert not state.crashed[0]

    def test_unknown_action_name_is_none(self):
        model = ProtocolModel(BOUNDS["tiny"])
        assert model.action_by_name(model.initial_state(),
                                    "GS_alloc_ext(h9)") is None


class TestDuplicateDelivery:
    def test_verb_action_has_a_dup_twin_iff_its_row_is_not_read_only(self):
        model = ProtocolModel(BOUNDS["fed"])
        rows = {m.value: m for m in Method}
        twinned, untwinned = set(), set()
        frontier = [model.initial_state()]
        for _ in range(3):  # three levels reach 10 of the 11 twinned kinds
            successors = set()
            for state in frontier:
                actions = model.enabled_actions(state)
                names = {a.name for a in actions}
                for action in actions:
                    if action.kind in rows:
                        has_twin = f"dup_{action.name}" in names
                        assert has_twin == (rows[action.kind].idempotency
                                            != READ_ONLY), action.name
                        (twinned if has_twin else untwinned).add(action.kind)
                    successors.add(action.apply()[0])
            frontier = successors - {None}
        assert untwinned == {"heartbeat", "GS_get_lru_zombie"}
        assert len(twinned) == 10 and "FED_borrow" in twinned

    def test_dup_actions_are_enumerated(self):
        model = ProtocolModel(BOUNDS["tiny"])
        names = {a.name for a in
                 model.enabled_actions(model.initial_state())}
        assert "dup_GS_goto_zombie(h1)" in names
        assert "lose_message" in names
        # Read-only probes re-execute for free: no dup variant.
        assert not any(n.startswith("dup_heartbeat") for n in names)

    def test_dedup_absorbs_the_duplicate_on_the_clean_model(self):
        model = ProtocolModel(BOUNDS["tiny"])
        single = _walk(model, ["GS_goto_zombie(h1)"])
        doubled = _walk(model, ["dup_GS_goto_zombie(h1)"])
        assert doubled == single

    def test_no_dedup_mutant_flags_duplicate_execution(self):
        model = ProtocolModel(BOUNDS["tiny"], mutant="no-dedup")
        state, violations = _step(model, model.initial_state(),
                                  "dup_GS_goto_zombie(h1)")
        assert any(v.kind == "duplicate-execution" for v in violations)

    def test_idempotent_dup_converges_without_violation(self):
        model = ProtocolModel(BOUNDS["tiny"])
        base = _walk(model, ["GS_goto_zombie(h1)"])
        single, _ = _step(model, base, "GS_wake(h1)")
        doubled, violations = _step(model, base, "dup_GS_wake(h1)")
        assert not violations
        assert doubled == single

    def test_lose_message_is_a_stutter(self):
        model = ProtocolModel(BOUNDS["tiny"])
        state = model.initial_state()
        lost, violations = _step(model, state, "lose_message")
        assert not violations
        assert lost == state


class TestMutantRegistry:
    def test_unknown_mutant_rejected(self):
        from repro.check import mutants
        with pytest.raises(ValueError):
            mutants.mutant("off-by-one-everywhere")
        with pytest.raises(ValueError):
            ProtocolModel(BOUNDS["tiny"], mutant="no-such-bug")

    def test_clean_model_replays_mutant_traces_without_violation(self):
        # The counterexamples only exist because of the seeded bug.
        traces = {
            "skip-epoch-bump": ["kill_controller", "promote",
                                "stale_mirror_op"],
            "double-lend": ["GS_alloc_ext(h1)", "GS_transfer(h1,h2)",
                            "GS_alloc_ext(h1)"],
        }
        clean = ProtocolModel(BOUNDS["tiny"])
        for names in traces.values():
            run = run_trace(clean, names)
            assert not run.violations
