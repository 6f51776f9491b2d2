"""The three replacement policies."""

import pytest

from repro.errors import ConfigurationError, PageTableError
from repro.memory.frames import Frame
from repro.memory.page_table import PageTable
from repro.memory.replacement import (ClockPolicy, FifoPolicy, MixedPolicy,
                                      make_policy)


def _resident_table(n, policy):
    table = PageTable(max(n, 1) + 64)
    for ppn in range(n):
        table.map_local(ppn, Frame(ppn))
        policy.note_resident(ppn)
    return table


class TestFactory:
    def test_names(self):
        assert isinstance(make_policy("FIFO"), FifoPolicy)
        assert isinstance(make_policy("Clock"), ClockPolicy)
        assert isinstance(make_policy("Mixed"), MixedPolicy)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("LRU")

    def test_kwargs_forwarded(self):
        assert make_policy("Mixed", x=9).x == 9


class TestFifo:
    def test_evicts_oldest_fault(self):
        policy = FifoPolicy()
        table = _resident_table(5, policy)
        assert policy.select_victim(table) == 0
        assert policy.select_victim(table) == 1

    def test_skips_stale_entries(self):
        policy = FifoPolicy()
        table = _resident_table(5, policy)
        table.demote(0, remote_slot=0)  # page 0 left residency elsewhere
        assert policy.select_victim(table) == 1

    def test_refaulted_page_moves_to_tail(self):
        policy = FifoPolicy()
        table = _resident_table(3, policy)
        victim = policy.select_victim(table)
        table.demote(victim, remote_slot=0)
        table.map_local(victim, Frame(60))
        policy.note_resident(victim)
        assert policy.select_victim(table) == 1
        assert policy.select_victim(table) == 2
        assert policy.select_victim(table) == victim

    def test_empty_list_raises(self):
        policy = FifoPolicy()
        table = PageTable(8)
        with pytest.raises(PageTableError):
            policy.select_victim(table)

    def test_cycles_accounted(self):
        policy = FifoPolicy()
        table = _resident_table(3, policy)
        policy.select_victim(table)
        assert policy.cycles_total > 0
        assert policy.victims_selected == 1


class TestClock:
    def test_prefers_unaccessed_pages(self):
        policy = ClockPolicy(clear_interval=1000)
        table = _resident_table(4, policy)
        # Age the bits out (two epochs), then re-touch all but page 2.
        table.clear_accessed_bits()
        table.clear_accessed_bits()
        for ppn in (0, 1, 3):
            table.mark_accessed(ppn)
        assert policy.select_victim(table) == 2

    def test_degrades_to_fifo_when_all_accessed(self):
        policy = ClockPolicy(clear_interval=1000)
        table = _resident_table(4, policy)
        assert policy.select_victim(table) == 0

    def test_second_chance_rotates_accessed_pages(self):
        policy = ClockPolicy(clear_interval=1000)
        table = _resident_table(3, policy)
        table.clear_accessed_bits()
        table.clear_accessed_bits()
        table.mark_accessed(0)  # head page is hot
        assert policy.select_victim(table) == 1
        # page 0 survived and was rotated behind 2
        table.clear_accessed_bits()
        table.clear_accessed_bits()
        assert policy.select_victim(table) == 2
        assert policy.select_victim(table) == 0

    def test_periodic_clear_charged(self):
        policy = ClockPolicy(clear_interval=2)
        table = _resident_table(6, policy)
        policy.select_victim(table)
        before = table.epoch
        policy.select_victim(table)  # second selection triggers the sweep
        assert table.epoch == before + 1

    def test_scan_cost_exceeds_fifo(self):
        fifo, clock = FifoPolicy(), ClockPolicy(clear_interval=1000)
        t1 = _resident_table(50, fifo)
        t2 = _resident_table(50, clock)
        fifo.select_victim(t1)
        clock.select_victim(t2)  # all accessed: full sweep + degrade
        assert clock.cycles_total > fifo.cycles_total

    def test_invalid_interval(self):
        with pytest.raises(ConfigurationError):
            ClockPolicy(clear_interval=0)


class TestMixed:
    def test_clock_window_protects_head(self):
        policy = MixedPolicy(x=2, clear_interval=1000)
        table = _resident_table(5, policy)
        table.clear_accessed_bits()
        table.clear_accessed_bits()
        table.mark_accessed(0)
        table.mark_accessed(1)
        # 0 and 1 are hot: window skips them, evicts 2.
        assert policy.select_victim(table) == 2

    def test_fifo_beyond_window(self):
        policy = MixedPolicy(x=2, clear_interval=1000)
        table = _resident_table(5, policy)
        # every page accessed -> window exhausted -> FIFO on the rest
        victim = policy.select_victim(table)
        assert victim == 2  # pages 0,1 got second chances

    def test_degrades_when_rest_is_empty(self):
        policy = MixedPolicy(x=5, clear_interval=1000)
        table = _resident_table(2, policy)
        assert policy.select_victim(table) in (0, 1)

    def test_bounded_cost_vs_clock(self):
        mixed = MixedPolicy(x=5, clear_interval=10 ** 6)
        clock = ClockPolicy(clear_interval=10 ** 6)
        t1 = _resident_table(200, mixed)
        t2 = _resident_table(200, clock)
        mixed.select_victim(t1)
        clock.select_victim(t2)
        assert mixed.cycles_total < clock.cycles_total

    def test_invalid_x(self):
        with pytest.raises(ConfigurationError):
            MixedPolicy(x=0)


class TestForget:
    def test_forget_removes_tracking(self):
        policy = FifoPolicy()
        table = _resident_table(3, policy)
        policy.forget(0)
        assert policy.select_victim(table) == 1

    def test_forget_unknown_is_noop(self):
        FifoPolicy().forget(999)
