"""Periodic processes layered on the event engine.

Heartbeats, mirroring flushes and the hourly ``GS_alloc_swap`` retry in the
paper are all periodic activities; :class:`PeriodicProcess` captures the
pattern once.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Engine, Event


class PeriodicProcess:
    """Run ``action`` every ``period`` seconds until stopped.

    The first invocation happens one full period after :meth:`start` (matching
    a heartbeat that fires after its interval elapses, not immediately).
    """

    def __init__(self, engine: Engine, period: float, action: Callable[[], Any],
                 name: str = "periodic"):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
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
