"""Host machine-frame allocation.

The hypervisor provisions each VM a bounded number of *local* machine frames
(``LocalMemSize`` in the paper); the allocator hands them out on demand and
the fault handler frees them when pages are demoted to remote memory.  The
*remote-mem-mgr* takes frames in bulk: it carves a server's free memory into
``BUFF_SIZE`` buffers and registers each as one RDMA region, so a buffer's
frames travel as one :class:`FrameRun` — a few ``[start, stop)`` extents —
not as one object per 4 KiB page.

Representation.  One byte per frame (``0`` free, ``1`` handed out) is the
single source of truth for "is this mfn allocated"; free frames are
additionally indexed by a LIFO stack of free extents and a LIFO stack of
singly-freed mfns, so bulk carve/return costs O(extents touched) C-speed
slice operations and the single-frame fault path is a list pop/append.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index as _as_index
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, OutOfFramesError, PageTableError

_FREE = 0
_USED = 1
_USED_BYTE = bytes([_USED])


@dataclass(frozen=True)
class Frame:
    """A machine (host-physical) frame number."""

    mfn: int

    def __post_init__(self) -> None:
        if self.mfn < 0:
            raise ConfigurationError(f"negative machine frame number {self.mfn}")


class FrameRun(Sequence[Frame]):
    """An immutable sequence of frames held as ``[start, stop)`` extents.

    ``len(run)`` is the number of frames; iterating or indexing yields
    :class:`Frame` values in extent order, created on demand.  Compares
    equal to any list/tuple/run of the same frames in the same order.
    """

    __slots__ = ("extents", "_len")

    def __init__(self, extents: Iterable[range] = ()):
        self.extents: Tuple[range, ...] = tuple(extents)
        for extent in self.extents:
            if extent.step != 1 or extent.start < 0 or not extent:
                raise ConfigurationError(
                    f"frame extent {extent!r} is not a non-empty ascending "
                    f"run of machine frame numbers"
                )
        self._len = sum(map(len, self.extents))

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Frame]:
        for extent in self.extents:
            for mfn in extent:
                yield Frame(mfn)

    def __getitem__(self, position: int) -> Frame:
        offset = _as_index(position)
        if offset < 0:
            offset += self._len
        if 0 <= offset < self._len:
            for extent in self.extents:
                if offset < len(extent):
                    return Frame(extent[offset])
                offset -= len(extent)
        raise IndexError(f"frame run index {position} out of range")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (FrameRun, list, tuple)):
            return NotImplemented
        if isinstance(other, FrameRun) and self.extents == other.extents:
            return True
        return (len(self) == len(other)
                and all(mine == theirs for mine, theirs in zip(self, other)))

    def __repr__(self) -> str:
        spans = ", ".join(f"{e.start}:{e.stop}" for e in self.extents)
        return f"FrameRun([{spans}])"


class FrameAllocator:
    """A fixed pool of machine frames: O(1) alloc/free, O(extents) bulk.

    Hand-out order is deterministic.  A fresh pool gives 0, 1, 2, …;
    recycled frames are reused LIFO — :meth:`alloc` takes the most recently
    singly-freed frame before touching an extent, :meth:`alloc_many` takes
    the most recently returned extents before any singly-freed frames, so
    buffers stay contiguous and the fault path stays on its own stack.
    """

    def __init__(self, total_frames: int):
        if total_frames < 0:
            raise ConfigurationError(f"negative frame count {total_frames}")
        self.total_frames = total_frames
        self._state = bytearray(total_frames)
        #: Free extents as mutable ``[start, stop)`` pairs, top of stack last.
        self._extents: List[List[int]] = (
            [[0, total_frames]] if total_frames else []
        )
        #: Frames covered by ``_extents``; with ``len(_singles)`` that is the
        #: free count, so the single-frame fault path maintains no counter.
        self._extent_frames = total_frames
        self._singles: List[int] = []

    @property
    def free_frames(self) -> int:
        return self._extent_frames + len(self._singles)

    @property
    def used_frames(self) -> int:
        return self.total_frames - self.free_frames

    def alloc(self) -> Frame:
        """Allocate one frame; raises :class:`OutOfFramesError` when empty."""
        if self._singles:
            mfn = self._singles.pop()
        elif self._extents:
            top = self._extents[-1]
            mfn = top[0]
            top[0] = mfn + 1
            if top[0] == top[1]:
                self._extents.pop()
            self._extent_frames -= 1
        else:
            raise OutOfFramesError(
                f"no free machine frames ({self.total_frames} total)"
            )
        self._state[mfn] = _USED
        return Frame(mfn)

    def try_alloc(self) -> Optional[Frame]:
        """Allocate one frame or return None when the pool is exhausted."""
        if not self.free_frames:
            return None
        return self.alloc()

    def alloc_many(self, count: int) -> FrameRun:
        """Allocate ``count`` frames as one run (buffer carving fast path).

        Succeeds whenever ``count <= free_frames``; on a fragmented pool
        the run simply has more extents.
        """
        if count < 0:
            raise ConfigurationError(f"negative count {count}")
        if count > self.free_frames:
            raise OutOfFramesError(
                f"{count} frames requested, {self.free_frames} free"
            )
        state = self._state
        taken: List[range] = []
        needed = count
        while needed and self._extents:
            start, stop = top = self._extents[-1]
            if stop - start > needed:
                stop = start + needed
                top[0] = stop
            else:
                self._extents.pop()
            state[start:stop] = _USED_BYTE * (stop - start)
            taken.append(range(start, stop))
            needed -= stop - start
        self._extent_frames -= count - needed
        if needed:
            singles = sorted(self._singles[-needed:])
            del self._singles[-needed:]
            for mfn in singles:
                state[mfn] = _USED
            taken.extend(_coalesce(singles))
        return FrameRun(taken)

    def free_many(self, frames: FrameRun) -> None:
        """Return a run at once; all-or-nothing.

        Any frame of the run that is not allocated — out of range, already
        free, or named twice by overlapping extents — raises
        :class:`PageTableError` and leaves the pool untouched.
        """
        state = self._state
        extents = frames.extents
        for done, extent in enumerate(extents):
            start, stop = extent.start, extent.stop
            if stop > self.total_frames:
                bad = max(start, self.total_frames)
                break
            if stop - start == 1:
                # A run carved from a fragmented pool is mostly single
                # frames; indexing costs ~1/6 of a count + slice-assign.
                if not state[start]:
                    bad = start
                    break
                state[start] = _FREE
            else:
                if state.count(_USED, start, stop) != stop - start:
                    bad = state.find(_FREE, start, stop)
                    break
                state[start:stop] = bytes(stop - start)
        else:
            for extent in extents:
                if len(extent) == 1:
                    self._singles.append(extent.start)
                else:
                    self._extents.append([extent.start, extent.stop])
                    self._extent_frames += len(extent)
            return
        for extent in extents[:done]:
            state[extent.start:extent.stop] = _USED_BYTE * len(extent)
        raise PageTableError(f"freeing frame {bad} that is not allocated")

    def free(self, frame: Frame) -> None:
        """Return a frame to the pool; double-free raises."""
        mfn = frame.mfn
        if mfn >= self.total_frames or not self._state[mfn]:
            raise PageTableError(
                f"freeing frame {mfn} that is not allocated"
            )
        self._state[mfn] = _FREE
        self._singles.append(mfn)

    def is_allocated(self, frame: Frame) -> bool:
        return (frame.mfn < self.total_frames
                and self._state[frame.mfn] == _USED)


def _coalesce(mfns: Sequence[int]) -> Iterator[range]:
    """Ascending ``mfns`` as maximal ``[start, stop)`` extents."""
    if not mfns:
        return
    start = previous = mfns[0]
    for mfn in mfns[1:]:
        if mfn != previous + 1:
            yield range(start, previous + 1)
            start = mfn
        previous = mfn
    yield range(start, previous + 1)
