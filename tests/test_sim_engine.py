"""The discrete-event engine."""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.errors import SimulationError
from repro.sim.determinism import ShuffledEngine
from repro.sim.engine import Engine
from repro.sim.process import PeriodicProcess
from repro.sim.rng import DeterministicRng


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_custom_start_time(self):
        assert Engine(start_time=5.0).now == 5.0

    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_fires_in_schedule_order(self):
        engine = Engine()
        fired = []
        for tag in ("first", "second", "third"):
            engine.schedule(1.0, lambda t=tag: fired.append(t))
        engine.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        engine.schedule(7.5, lambda: None)
        engine.run()
        assert engine.now == 7.5

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        engine = Engine(start_time=10.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(5.0, lambda: None)

    @pytest.mark.parametrize("start", [0.0, 10.0])
    def test_nan_time_or_delay_rejected(self, start):
        # nan < now is False, so a plain "in the past?" test lets NaN in;
        # it would fire and turn the clock itself into NaN.
        engine = Engine(start_time=start)
        with pytest.raises(SimulationError):
            engine.schedule_at(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(float("nan"), lambda: None)
        assert engine.pending() == 0
        engine.run(until=start + 1.0)
        assert engine.now == start + 1.0

    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        engine.run()
        assert fired == []

    def test_cancel_twice_is_harmless(self):
        engine = Engine()
        event = engine.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert engine.run() == 0


class TestRun:
    def test_run_until_stops_before_later_events(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0

    def test_run_until_then_resume(self):
        engine = Engine()
        fired = []
        engine.schedule(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        engine.run()
        assert fired == [10]

    def test_advance(self):
        engine = Engine()
        fired = []
        engine.schedule(3.0, lambda: fired.append(3))
        engine.advance(2.0)
        assert fired == [] and engine.now == 2.0
        engine.advance(2.0)
        assert fired == [3] and engine.now == 4.0

    def test_callbacks_can_schedule_more_events(self):
        engine = Engine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                engine.schedule(1.0, lambda: chain(n + 1))

        engine.schedule(1.0, lambda: chain(1))
        engine.run()
        assert fired == [1, 2, 3]

    def test_max_events_guards_runaway(self):
        engine = Engine()

        def forever():
            engine.schedule(0.001, forever)

        engine.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_returns_executed_count(self):
        engine = Engine()
        for i in range(5):
            engine.schedule(float(i), lambda: None)
        assert engine.run() == 5

    def test_pending_counts_live_events(self):
        engine = Engine()
        keep = engine.schedule(1.0, lambda: None)
        cancelled = engine.schedule(2.0, lambda: None)
        cancelled.cancel()
        assert engine.pending() == 1
        assert keep.time == 1.0


class TestPeriodicProcess:
    def test_fires_every_period(self):
        engine = Engine()
        ticks = []
        proc = PeriodicProcess(engine, 1.0, lambda: ticks.append(engine.now))
        proc.start()
        engine.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_stop_halts_ticks(self):
        engine = Engine()
        proc = PeriodicProcess(engine, 1.0, lambda: None)
        proc.start()
        engine.run(until=2.5)
        proc.stop()
        engine.run(until=10.0)
        assert proc.ticks == 2
        assert not proc.running

    def test_action_can_stop_itself(self):
        engine = Engine()
        proc = PeriodicProcess(engine, 1.0, lambda: proc.stop())
        proc.start()
        engine.run(until=10.0)
        assert proc.ticks == 1

    def test_restart_inside_action_ticks_once_per_period(self):
        engine = Engine()
        ticks = []

        def action():
            ticks.append(engine.now)
            if len(ticks) == 1:  # e.g. a monitor re-arming itself
                proc.stop()
                proc.start()

        proc = PeriodicProcess(engine, 1.0, action)
        proc.start()
        engine.run(until=4.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0]
        assert engine.pending() == 1

    def test_double_start_is_noop(self):
        engine = Engine()
        proc = PeriodicProcess(engine, 1.0, lambda: None)
        proc.start()
        proc.start()
        engine.run(until=1.5)
        assert proc.ticks == 1

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            PeriodicProcess(Engine(), 0.0, lambda: None)

    @pytest.mark.parametrize("period", [float("nan"), float("inf")])
    def test_non_finite_period_rejected(self, period):
        with pytest.raises(ValueError):
            PeriodicProcess(Engine(), period, lambda: None)


class EngineMachine(RuleBasedStateMachine):
    """``Engine`` against a sorted list of ``(time, schedule order)``.

    Time order, FIFO among same-time events, cancelled events never
    fire, ``pending()`` and the clock agree with the model.  Times sit
    on a coarse grid so ties are common.
    """

    make_engine = Engine
    fifo_ties = True

    def __init__(self):
        super().__init__()
        self.engine = self.make_engine()
        self.live = {}       # the model: tag -> (time, tag) still to fire
        self.handles = {}    # tag -> Event
        self.fired = []      # (time the engine showed, tag), in firing order
        self.tags = iter(range(10**6))

    def _add(self, schedule, arg, when):
        tag = next(self.tags)
        self.handles[tag] = schedule(
            arg, lambda: self.fired.append((self.engine.now, tag)))
        self.live[tag] = (when, tag)
        assert self.handles[tag].time == when

    def _expect_fired(self, due):
        """``due`` model entries fired, in order, each at its own time."""
        fired, self.fired = self.fired, []
        assert [when for when, _ in fired] == [when for when, _ in due]
        if self.fifo_ties:
            assert fired == due
        else:
            assert sorted(fired) == due
        for _, tag in due:
            del self.live[tag]

    @rule(ticks=st.integers(0, 6))
    def schedule(self, ticks):
        self._add(self.engine.schedule, ticks * 0.5,
                  self.engine.now + ticks * 0.5)

    @rule(ticks=st.integers(0, 6))
    def schedule_at(self, ticks):
        when = self.engine.now + ticks * 0.5
        self._add(self.engine.schedule_at, when, when)

    @rule()
    def schedule_into_the_past_is_refused(self):
        with pytest.raises(SimulationError):
            self.engine.schedule_at(self.engine.now - 0.5, lambda: None)

    @precondition(lambda self: self.handles)
    @rule(pick=st.integers(0, 10**6))
    def cancel(self, pick):
        tag = sorted(self.handles)[pick % len(self.handles)]
        self.handles[tag].cancel()  # fired or cancelled already: harmless
        self.live.pop(tag, None)

    @rule(ticks=st.integers(0, 8))
    def run_until(self, ticks):
        until = self.engine.now + ticks * 0.5
        due = sorted(e for e in self.live.values() if e[0] <= until)
        assert self.engine.run(until=until) == len(due)
        self._expect_fired(due)
        assert self.engine.now == until

    @rule()
    def step(self):
        if not self.live:
            assert self.engine.step() is False
            return
        first = min(self.live.values())
        assert self.engine.step() is True
        if self.fifo_ties:
            self._expect_fired([first])
        else:
            (when, tag), = self.fired
            assert when == first[0] and self.live[tag] == (when, tag)
            self._expect_fired([(when, tag)])
        assert self.engine.now == first[0]

    @invariant()
    def pending_agrees(self):
        assert self.engine.pending() == len(self.live)


class ShuffledEngineMachine(EngineMachine):
    """The permuting engine keeps the time-order half of the contract."""

    make_engine = staticmethod(lambda: ShuffledEngine(DeterministicRng(5)))
    fifo_ties = False


TestEngineMachine = EngineMachine.TestCase
TestEngineMachine.settings = settings(max_examples=60,
                                      stateful_step_count=40, deadline=None)
TestShuffledEngineMachine = ShuffledEngineMachine.TestCase
TestShuffledEngineMachine.settings = TestEngineMachine.settings
