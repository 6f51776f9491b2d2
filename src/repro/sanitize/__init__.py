"""MemSan: a shadow-state sanitizer for the rack's remote-memory plane.

Runtime guards (MR invalidation, power gating, fencing watermarks) defend
against *most* misuse by raising — but the dangerous bugs are the silent
ones, where a guard's cached state went stale and the operation succeeded
anyway.  MemSan mirrors the rack's safety-critical state in an independent
shadow copy — per-buffer (allocation state, owner, serving-host identity),
per-store freed page keys, per-server fencing-epoch watermarks — and checks
every hooked operation against the shadow *after* it succeeds.  An operation
the runtime already rejected is a defended failure, not a finding; an
operation that succeeded while the shadow says it must not have is a
finding.

Finding classes:

- ``use-after-reclaim`` — a one-sided verb touched a buffer whose lease
  was revoked (``US_reclaim`` / ``US_invalidate``) but whose MR is still
  registered on the serving host;
- ``double-free``       — a page key freed twice on the same store;
- ``lost-buffer-access``— a verb touched a buffer the controller marked
  ``LOST`` (its content is only as good as the local mirror);
- ``power-domain``      — a verb *succeeded* against a host outside
  {S0, Sz} (a stale ``remote_ok`` cache let it through);
- ``epoch-regression``  — an epoch-stamped RPC from a lower epoch than the
  server has already seen from the same rack was dispatched instead of
  fenced;
- ``double-lend``       — the controller granted a buffer whose previous
  lease is still live (two users holding the same memory);
- ``cpu-dead-dispatch`` — an RPC handler ran on a host whose CPU is dead
  (a zombie must never dispatch).

The decision predicates behind every finding live in
:mod:`repro.check.invariants`, shared with the ZomCheck model checker
(``python -m repro.check``) so the two tools agree on what "safe" means.

Enable suite-wide with ``pytest --memsan`` (see
:mod:`repro.sanitize.pytest_plugin`); the end-of-session leak report lists
page stores still holding leases.  See ``docs/SANITIZERS.md``.
"""

from repro.sanitize.memsan import (FINDING_KINDS, MemorySanitizer,
                                   MemSanFinding, ShadowState)

__all__ = ["MemorySanitizer", "MemSanFinding", "ShadowState", "FINDING_KINDS"]
