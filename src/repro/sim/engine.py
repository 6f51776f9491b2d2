"""The discrete-event engine: a clock plus an ordered queue of callbacks.

Events scheduled for the same instant fire in scheduling order, which keeps
simulations deterministic without relying on callback identity.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.errors import SimulationError


class Event:
    """Handle on a scheduled callback.

    The heap orders ``(time, seq, event)`` tuples — ``seq`` is unique, so
    the comparison never reaches the handle itself.
    """

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: Any, callback: Callable[[], Any]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing; cancelling twice is harmless."""
        self.cancelled = True


class Engine:
    """A minimal deterministic discrete-event simulator."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list[tuple] = []
        self._seq = itertools.count()
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also refuses NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, when: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        if not when >= self._now:  # also refuses NaN, which would poison the clock
            raise SimulationError(
                f"cannot schedule at {when}, clock is already at {self._now}"
            )
        event = Event(when, self._tiebreak(), callback)
        heapq.heappush(self._queue, (when, event.seq, event))
        return event

    def _tiebreak(self):
        """Ordering key among events scheduled for the same instant.

        The default (a monotone counter) gives FIFO same-time semantics.
        The determinism verifier's :class:`~repro.sim.determinism.ShuffledEngine`
        overrides this to *permute* same-time orderings and expose hidden
        ordering dependencies.
        """
        return next(self._seq)

    def step(self) -> bool:
        """Run the next pending event.  Returns False if the queue is empty."""
        while self._queue:
            when, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = when
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> int:
        """Run events until the queue drains or the clock passes ``until``.

        Returns the number of events executed.  ``max_events`` bounds runaway
        simulations (a callback that keeps rescheduling itself forever).
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        executed = 0
        queue = self._queue
        try:
            while queue:
                if executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
                when, _, event = queue[0]
                if event.cancelled:
                    heapq.heappop(queue)
                    continue
                if until is not None and when > until:
                    break
                heapq.heappop(queue)
                self._now = when
                event.callback()
                executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return executed

    def advance(self, delay: float) -> int:
        """Run everything scheduled within the next ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"cannot advance by negative delay {delay}")
        return self.run(until=self._now + delay)

    def pending(self) -> int:
        """Number of scheduled, non-cancelled events."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)
