"""Determinism verifier: replay a scenario under permuted same-time orderings.

The discrete-event engine guarantees FIFO ordering for events scheduled at
the same instant, and simulations lean on it.  But code that *depends* on
that accident — two subsystems racing at the same timestamp, an RNG stream
whose draw order shifts with callback order — silently breaks the moment a
refactor reorders scheduling, corrupting trace-driven energy results in
ways no single run can reveal.

:func:`verify_determinism` makes the dependency visible: it runs a scenario
once on a stock :class:`~repro.sim.engine.Engine` (the baseline) and then
again on :class:`ShuffledEngine` instances that permute the execution order
of same-timestamp events (ordering across *different* timestamps is of
course preserved).  If any replay's canonical trace diverges from the
baseline, the scenario has a hidden ordering dependency and the report
pinpoints the first divergent record.

A scenario is any callable taking the engine to build on and returning the
canonical trace (a sequence of strings)::

    def scenario(engine):
        rack = Rack(["s1", "s2", "s3"], engine=engine)
        ...drive it...
        return [f"{e.time_s:.6f} {e.kind.value} {e.host}" for e in rack.events]

    report = verify_determinism(scenario, runs=8)
    assert report.ok, report.describe()

``python -m repro.sim.determinism`` runs a built-in rack-under-faults
scenario (exit 1 on divergence) — the pre-merge smoke check for the 12
583-server trace runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.sim.engine import Engine
from repro.sim.rng import DeterministicRng

Scenario = Callable[[Engine], Sequence[str]]


class ShuffledEngine(Engine):
    """An engine whose same-timestamp event ordering is randomly permuted.

    The permutation is drawn from a :class:`DeterministicRng`, so every
    shuffled replay is itself replayable.  Events at different timestamps
    keep their time ordering; only ties are reshuffled.
    """

    def __init__(self, rng: DeterministicRng, start_time: float = 0.0):
        super().__init__(start_time)
        self._rng = rng

    def _tiebreak(self):
        # (random draw, monotone counter): the counter keeps keys unique so
        # heap comparisons never fall through to the callback field.
        return (self._rng.randint(0, 2 ** 30), next(self._seq))


@dataclass
class Divergence:
    """First point where one shuffled replay left the baseline trace."""

    run: int                      # 1-based shuffled-run index
    index: int                    # first differing trace record
    baseline: Optional[str]       # None when the baseline trace is shorter
    variant: Optional[str]        # None when the variant trace is shorter

    def __str__(self) -> str:
        return (f"run {self.run} diverges at record {self.index}:\n"
                f"  baseline: {self.baseline!r}\n"
                f"  shuffled: {self.variant!r}")


@dataclass
class DeterminismReport:
    """Outcome of a :func:`verify_determinism` sweep."""

    runs: int
    trace_length: int
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        if self.ok:
            return (f"deterministic: {self.runs} permuted replays matched "
                    f"the {self.trace_length}-record baseline")
        lines = [f"{len(self.divergences)} of {self.runs} permuted replays "
                 "diverged — hidden same-timestamp ordering dependency:"]
        lines.extend(str(d) for d in self.divergences)
        return "\n".join(lines)


def _first_divergence(run: int, baseline: Sequence[str],
                      variant: Sequence[str]) -> Optional[Divergence]:
    for i, (b, v) in enumerate(zip(baseline, variant)):
        if b != v:
            return Divergence(run, i, b, v)
    if len(baseline) != len(variant):
        i = min(len(baseline), len(variant))
        return Divergence(
            run, i,
            baseline[i] if i < len(baseline) else None,
            variant[i] if i < len(variant) else None,
        )
    return None


def verify_determinism(scenario: Scenario, runs: int = 5,
                       seed: int = 0) -> DeterminismReport:
    """Replay ``scenario`` under ``runs`` permuted same-time orderings.

    The scenario must build *everything* (rack, workloads, RNGs) on the
    engine it is given — any state shared across calls would itself be a
    determinism bug.  Returns a report; ``report.ok`` is the verdict.
    """
    baseline = list(scenario(Engine()))
    root = DeterministicRng(seed)
    report = DeterminismReport(runs=runs, trace_length=len(baseline))
    for run in range(1, runs + 1):
        engine = ShuffledEngine(rng=root.fork(run))
        variant = list(scenario(engine))
        divergence = _first_divergence(run, baseline, variant)
        if divergence is not None:
            report.divergences.append(divergence)
    return report


# -- built-in smoke scenario (CLI) --------------------------------------------

def rack_fault_scenario(engine: Engine) -> List[str]:
    """A rack under faults: zombies, a VM, monitoring, crash + heal.

    Fault times deliberately avoid the probe/heartbeat grid so the scenario
    is *specified* to be order-independent; the verifier then proves the
    implementation keeps it that way.
    """
    from repro.core.rack import Rack
    from repro.core.recovery import CRASH, HEAL, FaultAction, FaultSchedule
    from repro.hypervisor.vm import VmSpec
    from repro.units import MiB

    rack = Rack(["s1", "s2", "s3", "s4"], memory_bytes=256 * MiB,
                buff_size=16 * MiB, engine=engine)
    rack.make_zombie("s3")
    rack.make_zombie("s4")
    rack.create_vm("s1", VmSpec("vm0", memory_bytes=64 * MiB),
                   local_fraction=0.5)
    rack.start_host_monitoring(probe_period_s=0.5, miss_threshold=2)
    FaultSchedule([
        FaultAction(2.3, CRASH, "s3"),
        FaultAction(7.1, HEAL, "s3"),
    ]).install(rack)
    engine.run(until=12.0)
    return [
        f"{e.time_s:.6f} {e.kind.value} {e.host} "
        f"{sorted((k, str(v)) for k, v in e.detail.items())}"
        for e in rack.events
    ]


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.determinism",
        description="Replay the built-in rack-under-faults scenario with "
                    "permuted same-timestamp orderings and diff the event "
                    "logs.",
    )
    parser.add_argument("--runs", type=int, default=5,
                        help="number of permuted replays (default 5)")
    parser.add_argument("--seed", type=int, default=0,
                        help="permutation seed (default 0)")
    args = parser.parse_args(argv)
    report = verify_determinism(rack_fault_scenario, runs=args.runs,
                                seed=args.seed)
    print(report.describe())
    return 0 if report.ok else 1


if __name__ == "__main__":
    import sys
    sys.exit(main())
