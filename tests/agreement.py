"""The one end-of-run agreement check every chaos scenario closes with."""

from repro.check.invariants import mirror_divergence, replicated_entries


def assert_standby_agrees(rack):
    """A standby that has not promoted mirrors its primary, row for row.

    Compares :func:`repro.check.invariants.replicated_entries` — buffers
    with user *and purpose*, zombie hosts, known hosts — not just sizes.
    A promoted standby is skipped: its replica froze at the promotion and
    the controller it seeded has moved on without a mirror.
    """
    if rack.secondary.promoted is not None:
        return
    assert rack.controller.mirror_lag == 0
    assert not mirror_divergence(replicated_entries(rack.controller.db),
                                 replicated_entries(rack.secondary.db))
