"""What the chaos matrices share: the seeds they sweep and the one
end-of-run agreement check every chaos scenario closes with."""

import os

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


def chaos_seeds():
    """The seeds a chaos matrix sweeps: ``ZOMNET_CHAOS_SEEDS``, a comma
    list whose blank entries are skipped (CI sets ``7,19,43``), else 7."""
    raw = os.environ.get("ZOMNET_CHAOS_SEEDS", "7")
    return tuple(int(s) for s in raw.split(",") if s.strip())
