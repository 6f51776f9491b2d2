"""Property-based tests (hypothesis) on the core data structures.

Each property encodes an invariant the system relies on:
- the frame allocator conserves frames under any alloc/free interleaving,
  and its extent bookkeeping agrees with a plain ``set`` of held mfns under
  any mix of single and bulk operations (state machine);
- page-table residency counters always match the entries;
- every replacement policy only ever evicts resident pages;
- the remote page store never loses a stored page, even across lease
  revocations;
- the buffer database journal replays to an identical replica;
- the energy meter integral equals the sum of power × duration.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.check.invariants import replicated_entries
from repro.core.database import BufferDatabase
from repro.core.protocol import BufferDescriptor, BufferKind
from repro.energy.meter import EnergyMeter
from repro.memory.buffers import BufferLease, RemotePageStore
from repro.errors import BufferError_, OutOfFramesError, PageTableError
from repro.memory.frames import Frame, FrameAllocator, FrameRun
from repro.memory.page_table import PageLocation, PageTable
from repro.memory.replacement import make_policy
from repro.rdma.fabric import Fabric
from repro.sim.rng import DeterministicRng
from repro.units import PAGE_SIZE


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 15)),
                    max_size=60))
def test_frame_allocator_conserves_frames(ops):
    alloc = FrameAllocator(16)
    held = []
    for is_alloc, index in ops:
        if is_alloc:
            frame = alloc.try_alloc()
            if frame is not None:
                held.append(frame)
        elif held:
            alloc.free(held.pop(index % len(held)))
    assert alloc.free_frames + alloc.used_frames == 16
    assert alloc.used_frames == len(held)
    assert len({f.mfn for f in held}) == len(held)  # no double handout


class FrameAllocatorMachine(RuleBasedStateMachine):
    """Singles and runs against a reference ``set`` of handed-out mfns."""

    TOTAL = 48

    def __init__(self):
        super().__init__()
        self.alloc = FrameAllocator(self.TOTAL)
        self.held = set()      # the model: every mfn currently handed out
        self.singles = []      # frames we hold one by one
        self.runs = []         # FrameRuns we hold whole

    def _take(self, mfns):
        mfns = list(mfns)
        assert len(set(mfns)) == len(mfns), "frame handed out twice at once"
        assert not self.held & set(mfns), "frame handed out while held"
        self.held.update(mfns)

    @rule()
    def alloc_one(self):
        if len(self.held) == self.TOTAL:
            with pytest.raises(OutOfFramesError):
                self.alloc.alloc()
            assert self.alloc.try_alloc() is None
            return
        frame = self.alloc.alloc()
        self._take([frame.mfn])
        self.singles.append(frame)

    @rule(count=st.integers(0, TOTAL))
    def alloc_run(self, count):
        if count > self.TOTAL - len(self.held):
            with pytest.raises(OutOfFramesError):
                self.alloc.alloc_many(count)
            return
        run = self.alloc.alloc_many(count)
        assert len(run) == count
        self._take(f.mfn for f in run)
        self.runs.append(run)

    @precondition(lambda self: self.singles)
    @rule(pick=st.integers(0, TOTAL))
    def free_one(self, pick):
        frame = self.singles.pop(pick % len(self.singles))
        self.alloc.free(frame)
        self.held.remove(frame.mfn)
        with pytest.raises(PageTableError):
            self.alloc.free(frame)

    @precondition(lambda self: self.runs)
    @rule(pick=st.integers(0, TOTAL))
    def free_run(self, pick):
        run = self.runs.pop(pick % len(self.runs))
        self.alloc.free_many(run)
        self.held.difference_update(f.mfn for f in run)

    @precondition(lambda self: any(len(run) for run in self.runs))
    @rule(pick=st.integers(0, TOTAL), offset=st.integers(0, TOTAL))
    def free_one_frame_out_of_a_run(self, pick, offset):
        candidates = [i for i, run in enumerate(self.runs) if len(run)]
        run = self.runs.pop(candidates[pick % len(candidates)])
        frame = run[offset % len(run)]
        self.alloc.free(frame)
        self.held.remove(frame.mfn)
        # The rest of the run is now held frame by frame.
        self.singles.extend(f for f in run if f != frame)

    @precondition(lambda self: self.runs)
    @rule(pick=st.integers(0, TOTAL), stray=st.integers(0, TOTAL + 3))
    def failed_free_many_changes_nothing(self, pick, stray):
        run = self.runs[pick % len(self.runs)]
        # A stray frame that is free, out of range, or already in the run.
        if stray in self.held and Frame(stray) not in run:
            return
        bad = FrameRun(run.extents + (range(stray, stray + 1),))
        before = (self.alloc.free_frames, self.alloc.used_frames)
        with pytest.raises(PageTableError):
            self.alloc.free_many(bad)
        assert (self.alloc.free_frames, self.alloc.used_frames) == before

    @rule()
    def checkerboard_then_take_everything(self):
        # Fragment as hard as possible: hold every frame singly, free every
        # other one, then ask for all free frames in one call.
        self.singles.extend(self.alloc.alloc_many(self.alloc.free_frames))
        for run in self.runs:
            self.singles.extend(run)
        self.runs.clear()
        self.held = {f.mfn for f in self.singles}
        self.singles.sort(key=lambda f: f.mfn)
        for frame in self.singles[::2]:
            self.alloc.free(frame)
            self.held.remove(frame.mfn)
        self.singles = self.singles[1::2]
        run = self.alloc.alloc_many(self.alloc.free_frames)
        self._take(f.mfn for f in run)
        self.runs.append(run)
        assert self.alloc.free_frames == 0

    @invariant()
    def agrees_with_model(self):
        assert self.alloc.used_frames == len(self.held)
        assert self.alloc.free_frames + self.alloc.used_frames == self.TOTAL
        for mfn in range(self.TOTAL + 2):
            assert self.alloc.is_allocated(Frame(mfn)) == (mfn in self.held)
        assert (len(self.singles) + sum(len(run) for run in self.runs)
                == len(self.held))


FrameAllocatorMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
)
TestFrameAllocatorMachine = FrameAllocatorMachine.TestCase


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["map", "demote", "discard"]),
                              st.integers(0, 31)), max_size=80))
def test_page_table_counters_match_entries(ops):
    table = PageTable(32)
    alloc = FrameAllocator(32)
    frames = {}
    for op, ppn in ops:
        entry = table.entry(ppn)
        if op == "map" and not entry.present:
            frame = alloc.try_alloc()
            if frame is not None:
                table.map_local(ppn, frame)
                frames[ppn] = frame
        elif op == "demote" and entry.present:
            alloc.free(table.demote(ppn, remote_slot=ppn))
            frames.pop(ppn, None)
        elif op == "discard":
            freed = table.discard(ppn)
            if freed is not None:
                alloc.free(freed)
            frames.pop(ppn, None)
    resident = sum(1 for e in table.resident())
    assert table.resident_pages == resident
    remote = sum(1 for p in range(32)
                 if table.entry(p).location is PageLocation.REMOTE)
    # entry() creates entries lazily, so recount after the sweep
    assert table.remote_pages == remote


@settings(max_examples=30, deadline=None)
@given(policy_name=st.sampled_from(["FIFO", "Clock", "Mixed"]),
       accesses=st.lists(st.integers(0, 23), min_size=1, max_size=120),
       quota=st.integers(2, 8))
def test_policies_only_evict_resident_pages(policy_name, accesses, quota):
    policy = make_policy(policy_name)
    table = PageTable(24)
    alloc = FrameAllocator(quota)
    slot = 0
    for ppn in accesses:
        entry = table.entry(ppn)
        if entry.present:
            table.mark_accessed(ppn)
            continue
        frame = alloc.try_alloc()
        if frame is None:
            victim = policy.select_victim(table)
            assert table.entry(victim).present, "evicted a non-resident page"
            slot += 1
            alloc.free(table.demote(victim, remote_slot=slot))
            frame = alloc.alloc()
        table.map_local(ppn, frame)
        policy.note_resident(ppn)
    assert table.resident_pages <= quota


@settings(max_examples=25, deadline=None)
@given(payloads=st.lists(st.binary(min_size=1, max_size=64), min_size=1,
                         max_size=12),
       revoke_first=st.booleans())
def test_remote_store_never_loses_pages(payloads, revoke_first):
    fabric = Fabric()
    user = fabric.add_node("u")
    server = fabric.add_node("s")
    store = RemotePageStore(user)
    for i, n_pages in enumerate((8, 8)):
        mr = server.register_mr(n_pages * PAGE_SIZE)
        store.add_lease(BufferLease(i + 1, "s", mr.rkey,
                                    n_pages * PAGE_SIZE, zombie=True))
    keys = {}
    for payload in payloads:
        key, _ = store.store(payload)
        keys[key] = payload
    store.remove_lease(1 if revoke_first else 2)
    for key, payload in keys.items():
        data, _ = store.load(key)
        assert data[:len(payload)] == payload


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["add", "assign", "unassign", "remove",
                               "set_kind", "host_add", "zombie_add",
                               "zombie_remove"]),
              st.integers(1, 8),
              st.sampled_from([None, "ext", "swap", "fed"])),
    max_size=40))
def test_buffer_db_journal_replay_is_faithful(ops):
    primary = BufferDatabase()
    for op, buffer_id, purpose in ops:
        host = f"h{buffer_id % 3}"
        try:
            if op == "add":
                primary.add(BufferDescriptor(
                    buffer_id=buffer_id, host=host, offset=0, size_bytes=64,
                    kind=BufferKind.ZOMBIE, rkey=buffer_id,
                ))
            elif op == "assign":
                primary.assign(buffer_id, "user", purpose)
            elif op == "unassign":
                primary.unassign(buffer_id)
            elif op == "remove":
                primary.remove(buffer_id)
            elif op == "set_kind":
                primary.set_kind(buffer_id, BufferKind.ACTIVE)
            else:
                getattr(primary, op)(host)
        except BufferError_:
            continue  # invalid op on current state: skipped, not journaled
    replica = BufferDatabase()
    for op, args in primary.journal:
        replica.apply(op, args)
    assert replicated_entries(replica) == replicated_entries(primary)
    assert not replica.journal
    promoted = BufferDatabase()
    promoted.adopt(replica)
    assert replicated_entries(promoted) == replicated_entries(primary)


@settings(max_examples=40, deadline=None)
@given(segments=st.lists(st.tuples(
    st.floats(0.0, 1000.0, allow_nan=False),
    st.floats(0.0, 100.0, allow_nan=False)), max_size=20))
def test_energy_meter_equals_sum_of_segments(segments):
    meter = EnergyMeter()
    for power, duration in segments:
        meter.accumulate(power, duration)
    expected = sum(power * duration for power, duration in segments)
    assert math.isclose(meter.joules, expected, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 500),
       alpha=st.floats(0.1, 3.0, allow_nan=False))
def test_zipf_samples_always_in_range(seed, n, alpha):
    rng = DeterministicRng(seed)
    for _ in range(20):
        assert 0 <= rng.zipf(n, alpha) < n


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(1, 10 * PAGE_SIZE), min_size=1,
                      max_size=10))
def test_units_pages_covers_size(sizes):
    from repro.units import pages
    for size in sizes:
        assert pages(size) * PAGE_SIZE >= size
        assert (pages(size) - 1) * PAGE_SIZE < size
