"""Periodic processes layered on the event engine.

Heartbeats, mirroring flushes and the hourly ``GS_alloc_swap`` retry in the
paper are all periodic activities; :class:`PeriodicProcess` captures the
pattern once.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError
from repro.sim.engine import Engine, Event


def check_monitor(period_s: float, miss_threshold: int) -> None:
    """Reject a liveness monitor that could never work as configured.

    A monitor acts every ``period_s`` and after ``miss_threshold``
    consecutive misses: the period must be positive and finite, and at
    least one miss must come before the verdict.
    """
    if not 0.0 < period_s < math.inf:
        raise ConfigurationError(
            f"monitor period must be positive and finite, got {period_s}"
        )
    if miss_threshold < 1:
        raise ConfigurationError(
            f"miss_threshold must be >= 1, got {miss_threshold}"
        )


class PeriodicProcess:
    """Run ``action`` every ``period`` seconds until stopped.

    The first invocation happens one full period after :meth:`start` (matching
    a heartbeat that fires after its interval elapses, not immediately).
    """

    def __init__(self, engine: Engine, period: float, action: Callable[[], Any],
                 name: str = "periodic"):
        if not 0.0 < period < math.inf:
            raise ValueError(
                f"period must be positive and finite, got {period}")
        self.engine = engine
        self.period = period
        self.action = action
        self.name = name
        self.ticks = 0
        self._event: Optional[Event] = None
        self._stopped = True

    @property
    def running(self) -> bool:
        return not self._stopped

    def start(self) -> None:
        """Begin firing; starting an already-running process is a no-op."""
        if not self._stopped:
            return
        self._stopped = False
        self._event = self.engine.schedule(self.period, self._tick)

    def stop(self) -> None:
        """Stop firing; any in-flight scheduled tick is cancelled."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if self._stopped:
            return
        self.ticks += 1
        fired = self._event
        self.action()
        # action() may have called stop() — and start() again, which
        # already scheduled the next tick as a new event.
        if not self._stopped and self._event is fired:
            self._event = self.engine.schedule(self.period, self._tick)
