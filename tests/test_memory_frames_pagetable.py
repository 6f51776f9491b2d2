"""Frame allocation and page tables."""

import pytest

from repro.errors import (ConfigurationError, OutOfFramesError,
                          PageTableError)
from repro.memory.frames import Frame, FrameAllocator, FrameRun
from repro.memory.page_table import PageLocation, PageTable


class TestFrameAllocator:
    def test_alloc_free_cycle(self):
        alloc = FrameAllocator(4)
        frames = [alloc.alloc() for _ in range(4)]
        assert alloc.free_frames == 0
        assert alloc.used_frames == 4
        for frame in frames:
            alloc.free(frame)
        assert alloc.free_frames == 4

    def test_deterministic_lowest_first(self):
        alloc = FrameAllocator(3)
        assert [alloc.alloc().mfn for _ in range(3)] == [0, 1, 2]

    def test_exhaustion_raises(self):
        alloc = FrameAllocator(1)
        alloc.alloc()
        with pytest.raises(OutOfFramesError):
            alloc.alloc()

    def test_try_alloc_returns_none_when_empty(self):
        alloc = FrameAllocator(1)
        assert alloc.try_alloc() is not None
        assert alloc.try_alloc() is None

    def test_double_free_rejected(self):
        alloc = FrameAllocator(2)
        frame = alloc.alloc()
        alloc.free(frame)
        with pytest.raises(PageTableError):
            alloc.free(frame)

    def test_free_foreign_frame_rejected(self):
        alloc = FrameAllocator(2)
        with pytest.raises(PageTableError):
            alloc.free(Frame(1))

    def test_alloc_many(self):
        alloc = FrameAllocator(10)
        frames = alloc.alloc_many(7)
        assert len(frames) == 7
        assert alloc.free_frames == 3
        alloc.free_many(frames)
        assert alloc.free_frames == 10

    def test_alloc_many_over_capacity(self):
        with pytest.raises(OutOfFramesError):
            FrameAllocator(3).alloc_many(4)

    def test_alloc_many_zero(self):
        alloc = FrameAllocator(3)
        empty = alloc.alloc_many(0)
        assert len(empty) == 0 and list(empty) == [] and empty == []
        alloc.free_many(empty)
        assert alloc.free_frames == 3

    def test_alloc_many_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            FrameAllocator(3).alloc_many(-1)

    def test_alloc_many_fresh_pool_is_one_ascending_extent(self):
        alloc = FrameAllocator(10)
        assert alloc.alloc().mfn == 0
        run = alloc.alloc_many(4)
        assert run.extents == (range(1, 5),)
        assert alloc.alloc().mfn == 5

    def test_free_many_all_or_nothing(self):
        alloc = FrameAllocator(4)
        frames = alloc.alloc_many(2)
        for foreign in (range(99, 100), range(3, 5), range(2, 3)):
            with pytest.raises(PageTableError):
                alloc.free_many(FrameRun(frames.extents + (foreign,)))
            # nothing was freed by the failing call
            assert alloc.free_frames == 2
            assert all(alloc.is_allocated(f) for f in frames)

    def test_free_many_duplicate_frame_rejected(self):
        # Regression: the per-frame set passed validation for [f, f], freed
        # the first copy, then died with a bare KeyError on the second.
        alloc = FrameAllocator(4)
        frame = alloc.alloc()
        twice = FrameRun([range(frame.mfn, frame.mfn + 1)] * 2)
        with pytest.raises(PageTableError):
            alloc.free_many(twice)
        assert (alloc.free_frames, alloc.used_frames) == (3, 1)
        assert alloc.is_allocated(frame)
        alloc.free(frame)
        assert alloc.free_frames == 4

    def test_free_many_overlapping_extents_rejected(self):
        alloc = FrameAllocator(8)
        alloc.alloc_many(6)
        with pytest.raises(PageTableError):
            alloc.free_many(FrameRun([range(0, 4), range(3, 6)]))
        assert alloc.used_frames == 6

    def test_double_free_many_rejected(self):
        alloc = FrameAllocator(8)
        run = alloc.alloc_many(4)
        alloc.free_many(run)
        with pytest.raises(PageTableError):
            alloc.free_many(run)
        assert alloc.free_frames == 8

    def test_runs_and_singles_interchange(self):
        alloc = FrameAllocator(8)
        run = alloc.alloc_many(4)
        alloc.free(run[1])           # a frame of a run, freed singly
        assert alloc.used_frames == 3
        with pytest.raises(PageTableError):
            alloc.free_many(run)     # the run is no longer whole
        assert alloc.used_frames == 3
        singles = [alloc.alloc() for _ in range(5)]
        assert singles[0] == run[1]  # LIFO reuse of the singly-freed frame
        assert alloc.free_frames == 0
        alloc.free_many(FrameRun(range(f.mfn, f.mfn + 1) for f in singles))
        assert alloc.free_frames == 5

    def test_alloc_many_on_checkerboarded_pool(self):
        alloc = FrameAllocator(16)
        frames = list(alloc.alloc_many(16))
        for frame in frames[::2]:
            alloc.free(frame)
        run = alloc.alloc_many(8)
        assert sorted(f.mfn for f in run) == list(range(0, 16, 2))
        assert len(run.extents) == 8
        with pytest.raises(OutOfFramesError):
            alloc.alloc_many(1)

    def test_alloc_many_coalesces_adjacent_singles(self):
        alloc = FrameAllocator(8)
        frames = [alloc.alloc() for _ in range(8)]
        for frame in frames:
            alloc.free(frame)
        assert alloc.alloc_many(8).extents == (range(0, 8),)

    def test_recycled_extents_are_reused_lifo(self):
        alloc = FrameAllocator(12)
        first, second = alloc.alloc_many(4), alloc.alloc_many(4)
        alloc.free_many(first)
        alloc.free_many(second)
        assert alloc.alloc_many(4) == second
        assert alloc.alloc_many(6).extents == (range(0, 4), range(8, 10))

    def test_free_out_of_range_rejected(self):
        alloc = FrameAllocator(2)
        with pytest.raises(PageTableError):
            alloc.free(Frame(2))
        assert not alloc.is_allocated(Frame(2))

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            FrameAllocator(-1)

    def test_is_allocated(self):
        alloc = FrameAllocator(2)
        frame = alloc.alloc()
        assert alloc.is_allocated(frame)
        alloc.free(frame)
        assert not alloc.is_allocated(frame)


class TestFrameRun:
    def test_len_counts_frames_not_extents(self):
        run = FrameRun([range(4, 7), range(0, 2)])
        assert len(run) == 5
        assert len(FrameRun()) == 0

    def test_iteration_yields_frames_in_extent_order(self):
        run = FrameRun([range(4, 7), range(0, 2)])
        frames = list(run)
        assert all(isinstance(f, Frame) for f in frames)
        assert [f.mfn for f in frames] == [4, 5, 6, 0, 1]

    def test_indexing(self):
        run = FrameRun([range(4, 7), range(0, 2)])
        assert [run[i].mfn for i in range(5)] == [4, 5, 6, 0, 1]
        assert run[-1] == Frame(1) and run[-5] == Frame(4)
        for bad in (5, -6):
            with pytest.raises(IndexError):
                run[bad]
        assert Frame(6) in run and Frame(7) not in run

    def test_equality_is_by_frames_in_order(self):
        run = FrameRun([range(0, 3)])
        assert run == [Frame(0), Frame(1), Frame(2)]
        assert run == FrameRun([range(0, 1), range(1, 3)])
        assert run != [Frame(0), Frame(2), Frame(1)]
        assert run != [Frame(0), Frame(1)]
        assert run != FrameRun([range(1, 4)])
        assert FrameRun() == []

    def test_malformed_extents_rejected(self):
        for bad in (range(3, 3), range(-1, 2), range(0, 6, 2), range(5, 0, -1)):
            with pytest.raises(ConfigurationError):
                FrameRun([bad])

    def test_alloc_many_creates_no_frame_objects(self, monkeypatch):
        import repro.memory.frames as frames_module

        def boom(mfn):
            raise AssertionError("alloc_many/free_many materialised a Frame")

        alloc = FrameAllocator(64)
        monkeypatch.setattr(frames_module, "Frame", boom)
        alloc.free_many(alloc.alloc_many(32))
        assert alloc.free_frames == 64


class TestPageTable:
    def test_entries_start_unallocated(self):
        table = PageTable(16)
        entry = table.entry(3)
        assert entry.location is PageLocation.UNALLOCATED
        assert not entry.present

    def test_map_local_counts_resident(self):
        table = PageTable(16)
        table.map_local(0, Frame(0))
        table.map_local(1, Frame(1))
        assert table.resident_pages == 2
        assert table.entry(0).present

    def test_double_map_rejected(self):
        table = PageTable(16)
        table.map_local(0, Frame(0))
        with pytest.raises(PageTableError):
            table.map_local(0, Frame(1))

    def test_demote_clears_present_and_returns_frame(self):
        table = PageTable(16)
        table.map_local(5, Frame(9))
        frame = table.demote(5, remote_slot=42)
        assert frame.mfn == 9
        entry = table.entry(5)
        assert entry.location is PageLocation.REMOTE
        assert entry.remote_slot == 42
        assert table.resident_pages == 0
        assert table.remote_pages == 1

    def test_demote_nonpresent_rejected(self):
        table = PageTable(16)
        with pytest.raises(PageTableError):
            table.demote(0, remote_slot=1)

    def test_remote_page_promotes_back(self):
        table = PageTable(16)
        table.map_local(5, Frame(1))
        table.demote(5, remote_slot=7)
        table.map_local(5, Frame(2))
        entry = table.entry(5)
        assert entry.present
        assert entry.remote_slot is None
        assert table.remote_pages == 0

    def test_out_of_range_ppn(self):
        table = PageTable(4)
        with pytest.raises(PageTableError):
            table.entry(4)
        with pytest.raises(PageTableError):
            table.entry(-1)

    def test_discard_returns_local_frame(self):
        table = PageTable(8)
        table.map_local(1, Frame(3))
        assert table.discard(1).mfn == 3
        assert table.resident_pages == 0
        assert table.discard(1) is None  # already gone

    def test_discard_remote_adjusts_count(self):
        table = PageTable(8)
        table.map_local(1, Frame(3))
        table.demote(1, remote_slot=0)
        assert table.discard(1) is None
        assert table.remote_pages == 0


def _table_state(table):
    """Every entry's fields plus the table's counts and epoch."""
    entries = {ppn: (e.location, e.frame, e.remote_slot, e.accessed_epoch,
                     e.dirty) for ppn, e in table.entries.items()}
    return entries, table.resident_pages, table.remote_pages, table.epoch


class TestTrade:
    """``trade`` is ``demote`` then ``map_local`` on held entries."""

    @staticmethod
    def _table(incoming):
        table = PageTable(8)
        table.map_local(0, Frame(0))
        table.mark_accessed(0, write=True)  # the victim: accessed, dirty
        table.map_local(2, Frame(2))
        if incoming is PageLocation.REMOTE:
            table.map_local(1, Frame(1))
            table.demote(1, remote_slot="old")
        table.entry(3)
        table.clear_accessed_bits()
        return table

    @pytest.mark.parametrize("incoming", [PageLocation.UNALLOCATED,
                                          PageLocation.REMOTE])
    def test_equals_demote_then_map_local(self, incoming):
        traded = self._table(incoming)
        assert traded.entry(1).location is incoming
        traded.trade(traded.entry(0), "slot", traded.entry(1))
        reference = self._table(incoming)
        reference.map_local(1, reference.demote(0, remote_slot="slot"))
        assert _table_state(traded) == _table_state(reference)

    @pytest.mark.parametrize("victim, incoming, message", [
        (3, 1, "cannot demote non-present ppn 3"),
        (0, 2, "ppn 2 is already present"),
    ])
    def test_refused_trade_changes_nothing(self, victim, incoming, message):
        table = self._table(PageLocation.REMOTE)
        victim, incoming = table.entry(victim), table.entry(incoming)
        before = _table_state(table)
        with pytest.raises(PageTableError, match=message):
            table.trade(victim, "slot", incoming)
        assert _table_state(table) == before


class TestAccessedBits:
    def test_map_sets_accessed(self):
        table = PageTable(8)
        table.map_local(0, Frame(0))
        assert table.is_accessed(table.entry(0))

    def test_clear_is_epoch_bump(self):
        table = PageTable(8)
        table.map_local(0, Frame(0))
        cleared = table.clear_accessed_bits()
        assert cleared == 1  # resident count, the sweep size
        # bits survive exactly one epoch (gradual hand-sweep semantics)
        assert table.is_accessed(table.entry(0))
        table.clear_accessed_bits()
        assert not table.is_accessed(table.entry(0))

    def test_mark_accessed_refreshes(self):
        table = PageTable(8)
        table.map_local(0, Frame(0))
        table.clear_accessed_bits()
        table.clear_accessed_bits()
        table.mark_accessed(0)
        assert table.is_accessed(table.entry(0))

    def test_mark_accessed_nonpresent_rejected(self):
        table = PageTable(8)
        with pytest.raises(PageTableError):
            table.mark_accessed(0)

    def test_dirty_bit(self):
        table = PageTable(8)
        table.map_local(0, Frame(0))
        table.mark_accessed(0, write=True)
        assert table.entry(0).dirty

    def test_demote_resets_bits(self):
        table = PageTable(8)
        table.map_local(0, Frame(0))
        table.mark_accessed(0, write=True)
        table.demote(0, remote_slot=0)
        assert not table.entry(0).dirty

    def test_resident_iteration(self):
        table = PageTable(8)
        for ppn in range(4):
            table.map_local(ppn, Frame(ppn))
        table.demote(2, remote_slot=0)
        assert sorted(e.ppn for e in table.resident()) == [0, 1, 3]
