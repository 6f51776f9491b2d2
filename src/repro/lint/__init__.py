"""ZomLint: domain-specific static checks for the Zombieland codebase.

Generic linters cannot see the invariants this reproduction lives by —
simulated time must come from :class:`~repro.sim.engine.Engine`, randomness
from :class:`~repro.sim.rng.DeterministicRng`, every protocol verb must be
dispatchable and documented, and RPC failures must never vanish silently.
ZomLint makes those invariants mechanical:

========  ====================================================================
rule id   what it flags
========  ====================================================================
ZL001     wall-clock time (``time.time``/``datetime.now``/...) in library code
ZL002     module-level ``random`` calls instead of ``repro.sim.rng``
ZL003     protocol verbs without a dispatch handler or a PROTOCOL.md entry
ZL004     float ``==``/``!=`` on simulated timestamps
ZL005     ``RpcError`` swallowed without a raise, return, or event emission
ZL007     fleet-audit metrics no longer registered by their owning module
ZL009     impurity sources (wall clock, global random, ``os.urandom``,
          unordered set iteration) transitively reaching sim context
          (interprocedural; lives in :mod:`repro.flow`)
ZL010     shared rack state read before and written after an RPC yield
          point without re-validation or fencing (:mod:`repro.flow`)
ZL011     exception types escaping a verb handler outside the errors its
          ``Method`` row declares (:mod:`repro.flow`)
========  ====================================================================

The two ids missing from the sequence are retired (their rules compared
copies of a verb's facts that now live only on its ``Method`` row) and
are not reused.

Run it as ``python -m repro.lint src`` (exit status 1 on findings; add
``--stats`` for per-rule finding and suppression counts).  ZL009–ZL011 are
whole-program dataflow passes run by ``python -m repro.flow src`` — see
``docs/FLOWCHECK.md`` — but share this rule namespace and the same
suppression syntax.  Suppress a finding by putting ``# zl: ignore[ZLxxx]``
on the flagged line, ideally followed by a short justification.
"""

from repro.lint.engine import Finding, lint_paths, lint_source
from repro.lint.rules import ALL_RULES, RULE_DESCRIPTIONS

__all__ = ["Finding", "lint_paths", "lint_source", "ALL_RULES",
           "RULE_DESCRIPTIONS"]
