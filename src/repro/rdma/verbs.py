"""RDMA verbs: memory regions and queue pairs.

A :class:`MemoryRegion` is a pinned, registered byte range addressable by
remote peers through its rkey.  A :class:`QueuePair` is the connection
endpoint; it follows the standard RESET → INIT → RTR → RTS bring-up and only
accepts work requests in RTS.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict

from repro.errors import MemoryRegionError, QueuePairError

_rkey_counter = itertools.count(0x1000)
_qp_counter = itertools.count(1)


class AccessFlags(enum.Flag):
    """MR access permissions."""

    LOCAL_READ = enum.auto()
    LOCAL_WRITE = enum.auto()
    REMOTE_READ = enum.auto()
    REMOTE_WRITE = enum.auto()

    @classmethod
    def all_access(cls) -> "AccessFlags":
        return (cls.LOCAL_READ | cls.LOCAL_WRITE
                | cls.REMOTE_READ | cls.REMOTE_WRITE)


_REMOTE_READ_BIT = AccessFlags.REMOTE_READ.value
_REMOTE_WRITE_BIT = AccessFlags.REMOTE_WRITE.value

_CHUNK = 4096  # sparse-backing granularity


class MemoryRegion:
    """A registered (pinned) memory region with sparse byte backing.

    Content is held in 4 KiB chunks allocated on first write, so registering
    a multi-gigabyte region costs nothing until pages are actually stored;
    reads of never-written ranges return zeros (fresh DRAM semantics for the
    simulation).
    """

    def __init__(self, owner: str, length: int,
                 access: AccessFlags = AccessFlags.all_access()):
        if length <= 0:
            raise MemoryRegionError(f"MR length must be positive, got {length}")
        self.owner = owner
        self.rkey = next(_rkey_counter)
        self.access = access
        self._length = length
        self._chunks: Dict[int, bytearray] = {}
        self.invalidated = False

    @property
    def length(self) -> int:
        return self._length

    @property
    def resident_bytes(self) -> int:
        """Bytes of actual backing allocated (written chunks only)."""
        return len(self._chunks) * _CHUNK

    def invalidate(self) -> None:
        """Deregister; subsequent remote access raises."""
        self.invalidated = True
        self._chunks.clear()

    def check(self, offset: int, length: int, write: bool) -> None:
        """Refuse a remote access this MR does not allow."""
        if self.invalidated:
            raise MemoryRegionError(f"MR rkey={self.rkey:#x} was invalidated")
        # Flag membership goes through enum machinery; the raw bits
        # answer the same question at a fraction of the cost per verb.
        need = _REMOTE_WRITE_BIT if write else _REMOTE_READ_BIT
        if not self.access._value_ & need:
            raise MemoryRegionError(
                f"MR rkey={self.rkey:#x} lacks {AccessFlags(need)} permission"
            )
        if offset < 0 or length < 0 or offset + length > self._length:
            raise MemoryRegionError(
                f"access [{offset}, {offset + length}) out of bounds for "
                f"MR of {self._length} bytes"
            )

    def read(self, offset: int, length: int) -> bytes:
        self.check(offset, length, write=False)
        out = bytearray(length)
        pos = 0
        while pos < length:
            abs_off = offset + pos
            chunk_idx, chunk_off = divmod(abs_off, _CHUNK)
            take = min(_CHUNK - chunk_off, length - pos)
            chunk = self._chunks.get(chunk_idx)
            if chunk is not None:
                out[pos:pos + take] = chunk[chunk_off:chunk_off + take]
            pos += take
        return bytes(out)

    def write(self, offset: int, payload: bytes) -> None:
        self.check(offset, len(payload), write=True)
        zero_payload = payload.count(0) == len(payload)
        pos = 0
        length = len(payload)
        while pos < length:
            abs_off = offset + pos
            chunk_idx, chunk_off = divmod(abs_off, _CHUNK)
            take = min(_CHUNK - chunk_off, length - pos)
            chunk = self._chunks.get(chunk_idx)
            if chunk is None:
                if zero_payload:  # all-zero writes need no backing
                    pos += take
                    continue
                chunk = bytearray(_CHUNK)
                self._chunks[chunk_idx] = chunk
            chunk[chunk_off:chunk_off + take] = payload[pos:pos + take]
            pos += take


class QpState(enum.Enum):
    """Queue-pair bring-up states."""

    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"    # ready to receive
    RTS = "RTS"    # ready to send
    ERROR = "ERROR"


_QP_TRANSITIONS = {
    QpState.RESET: {QpState.INIT},
    QpState.INIT: {QpState.RTR, QpState.RESET},
    QpState.RTR: {QpState.RTS, QpState.RESET},
    QpState.RTS: {QpState.RESET, QpState.ERROR},
    QpState.ERROR: {QpState.RESET},
}


class QueuePair:
    """A reliable-connected queue pair between two named nodes."""

    def __init__(self, local: str, remote: str):
        self.qp_num = next(_qp_counter)
        self.local = local
        self.remote = remote
        self.state = QpState.RESET

    def modify(self, new_state: QpState) -> None:
        if new_state not in _QP_TRANSITIONS[self.state]:
            raise QueuePairError(
                f"QP{self.qp_num}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def connect(self) -> None:
        """Full bring-up to RTS."""
        if self.state is not QpState.RESET:
            raise QueuePairError(f"QP{self.qp_num}: connect from {self.state}")
        self.modify(QpState.INIT)
        self.modify(QpState.RTR)
        self.modify(QpState.RTS)

    def require_rts(self) -> None:
        if self.state is not QpState.RTS:
            raise QueuePairError(
                f"QP{self.qp_num}: work request posted in {self.state.value}"
            )

    def destroy(self) -> None:
        self.state = QpState.RESET


class ProtectionDomain:
    """Groups the MRs and QPs of one node (a simplified ibv_pd)."""

    def __init__(self, owner: str):
        self.owner = owner
        self.regions: Dict[int, MemoryRegion] = {}
        self.queue_pairs: Dict[int, QueuePair] = {}

    def register(self, length: int,
                 access: AccessFlags = AccessFlags.all_access()) -> MemoryRegion:
        mr = MemoryRegion(self.owner, length, access)
        self.regions[mr.rkey] = mr
        return mr

    def deregister(self, rkey: int) -> None:
        mr = self.regions.pop(rkey, None)
        if mr is None:
            raise MemoryRegionError(f"unknown rkey {rkey:#x}")
        mr.invalidate()

    def lookup(self, rkey: int) -> MemoryRegion:
        mr = self.regions.get(rkey)
        if mr is None or mr.invalidated:
            raise MemoryRegionError(f"unknown or invalidated rkey {rkey:#x}")
        return mr

    def create_qp(self, remote: str) -> QueuePair:
        qp = QueuePair(self.owner, remote)
        self.queue_pairs[qp.qp_num] = qp
        return qp

    def destroy_qp(self, qp_num: int) -> None:
        qp = self.queue_pairs.pop(qp_num, None)
        if qp is None:
            raise QueuePairError(f"unknown QP number {qp_num}")
        qp.destroy()
