"""ZomCheck CLI: ``python -m repro.check --bound small``.

Exits with a distinct code for each outcome:

- **exit 2** — the model does not cover the protocol: an action names a
  verb outside ``Method``, or a ``Method`` verb has no action.
  Exploration would be unsound, so it does not run.  A usage error,
  such as ``--max-states 0``, exits 2 as well (argparse's code).
- **exit 1** — an invariant violation: the minimal counterexample trace
  is printed, replayable via :mod:`repro.check.replay`.
- **exit 3** — the state cap (the bound's, or ``--max-states``) stopped
  the search before the frontier drained, and nothing it saw violated an
  invariant: the run proves nothing about the states it never reached.
- **exit 0** — the bounded state space was explored completely and clean.

``--mutant`` checks one of the seeded known-bad variants
(:data:`repro.check.mutants.MUTANTS`) instead of the real protocol; those
runs are *expected* to exit 1 — the test suite asserts they do.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.check.explorer import Explorer
from repro.check.model import BOUNDS, ProtocolModel
from repro.check.mutants import MUTANTS


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Exhaustively model-check the rack's lease/epoch/power "
                    "protocol within a bounded configuration.")
    parser.add_argument("--bound", choices=sorted(BOUNDS), default="small",
                        help="bounded configuration to explore "
                             "(default: small)")
    parser.add_argument("--mutant", choices=sorted(MUTANTS), default=None,
                        help="check a seeded known-bad protocol variant "
                             "(expected to find a violation)")
    parser.add_argument("--max-states", type=_positive, default=None,
                        help="override the bound's state-count cap")
    args = parser.parse_args(argv)

    bounds = BOUNDS[args.bound]
    model = ProtocolModel(bounds, mutant=args.mutant)
    contract_errors = model.verb_contract_errors()
    if contract_errors:
        print("verb coverage gap — the model checker would be unsound:",
              file=sys.stderr)
        for error in contract_errors:
            print(f"  {error}", file=sys.stderr)
        return 2
    explorer = Explorer(model, max_states=args.max_states)
    label = args.bound if args.mutant is None \
        else f"{args.bound} + mutant {args.mutant!r}"
    print(f"zomcheck: exploring bound {label} "
          f"({bounds.hosts} hosts in {bounds.racks} rack(s), "
          f"{bounds.buffers_per_host} buffer(s)/host, "
          f"{bounds.max_faults} fault(s))")
    started = time.perf_counter()  # zl: ignore[ZL001]
    result = explorer.run()
    elapsed = time.perf_counter() - started  # zl: ignore[ZL001]

    print(f"  states      {result.states:>10,}"
          f"{'' if result.complete else '  (cap hit, incomplete)'}")
    print(f"  transitions {result.transitions:>10,}")
    print(f"  max depth   {result.max_depth:>10,}")
    print(f"  wall time   {elapsed:>10.1f}s")
    if result.ok and not result.complete:
        print("  no invariant violation in the states explored, but the "
              "state cap cut the search short")
        return 3
    if result.ok:
        print("  no invariant violation found")
        return 0
    print()
    print(result.trace.format())
    if result.raw_trace is not None \
            and len(result.raw_trace) != len(result.trace.names):
        print(f"  (minimized from {len(result.raw_trace)} steps)")
    print("replay it concretely:")
    print("  from repro.check.model import BOUNDS")
    print("  from repro.check.replay import replay_trace")
    mutant_arg = "" if args.mutant is None else f", mutant={args.mutant!r}"
    print(f"  replay_trace(BOUNDS[{args.bound!r}], "
          f"{list(result.trace.names)!r}{mutant_arg})")
    return 1


if __name__ == "__main__":
    sys.exit(main())
