"""Wire-level definitions of the rack memory-management protocol.

The paper names seven calls (Sections 4.3-4.4); the controller serves the
``GS_`` ones and each remote-mem-mgr serves ``US_reclaim`` (buffers taken
back from a user) and ``AS_get_free_mem`` (an active server asked to lend
more memory).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

READ_ONLY = "read_only"
IDEMPOTENT = "idempotent"
DEDUP_REQUIRED = "dedup_required"

IDEMPOTENCY_CLASSES = (READ_ONLY, IDEMPOTENT, DEDUP_REQUIRED)


class Method(str, enum.Enum):
    """The verb table: one row per RPC verb, spelled as the paper does.

    A row is ``(verb, idempotency class, declared errors)`` and is the
    only place a verb's facts are written down.  ``RpcServer.register``
    takes the class from the row, the ZomCheck model asks the row which
    verbs need a ``dup_`` twin, and ZomLint/ZomFlow read the rows
    statically — so keep every row a pure literal.

    The *idempotency class* decides what a server does when the same
    logical request is delivered twice (duplicated on the wire, or
    retried after a lost reply):

    - ``read_only`` — no rack state is written; re-execution is free.
    - ``idempotent`` — re-execution converges to the same state (the
      handler is a set-style operation); the server may re-run it.
    - ``dedup_required`` — re-execution allocates/moves/destroys state
      (picks *different* buffers, carves *new* MRs, raises on repeat);
      the server must replay the cached response instead of re-running.

    The *declared errors* are the exception types a handler may let
    escape to the RPC boundary (a declared base class covers its
    subclasses).  Anything escaping a verb is serialized back to the
    caller, so the tuple IS part of the wire contract — callers decide
    retry/abort/fence from it, and ZomFlow's ZL011 pass verifies every
    raise site against it (``docs/FLOWCHECK.md``).  The
    transport-retryable family (``rdma.rpc.is_retryable``),
    ``FencingError`` and ``ConfigurationError`` (a misconfigured
    component, which no caller branches on) are implicitly allowed on
    every verb and never listed.
    """

    def __new__(cls, verb: str, idempotency: str, errors: tuple = ()):
        if idempotency not in IDEMPOTENCY_CLASSES:
            raise ConfigurationError(
                f"verb {verb!r} declares unknown idempotency class "
                f"{idempotency!r}"
            )
        member = str.__new__(cls, verb)
        member._value_ = verb
        member.idempotency = idempotency
        member.errors = tuple(errors)
        return member

    GS_GOTO_ZOMBIE = ("GS_goto_zombie", "dedup_required",
                      ("BufferError_", "ControllerError"))
    GS_RECLAIM = ("GS_reclaim", "dedup_required",
                  ("BufferError_", "ControllerError"))
    GS_ALLOC_EXT = ("GS_alloc_ext", "dedup_required",
                    ("AllocationError", "BufferError_", "ControllerError"))
    GS_ALLOC_SWAP = ("GS_alloc_swap", "dedup_required",
                     ("AllocationError", "BufferError_", "ControllerError"))
    GS_GET_LRU_ZOMBIE = ("GS_get_lru_zombie", "read_only", ())
    # user returns buffers it no longer needs
    GS_RELEASE = ("GS_release", "dedup_required",
                  ("BufferError_", "ControllerError"))
    # migration: move buffer ownership
    GS_TRANSFER = ("GS_transfer", "dedup_required",
                   ("BufferError_", "ControllerError"))
    # zombie became active again
    GS_WAKE = ("GS_wake", "idempotent", ("BufferError_",))
    US_RECLAIM = ("US_reclaim", "idempotent", ("BufferError_",))
    # serving host died: drop its leases
    US_INVALIDATE = ("US_invalidate", "idempotent", ())
    AS_GET_FREE_MEM = ("AS_get_free_mem", "dedup_required",
                       ("AllocationError", "OutOfFramesError"))
    # healed lender drops stale lent state
    AS_RESYNC = ("AS_resync", "idempotent", ("PageTableError",))
    # user reports a dead server
    GS_REPORT_FAILURE = ("GS_report_failure", "idempotent",
                         ("BufferError_",))
    # controller → secondary replication
    MIRROR_OP = ("mirror_op", "dedup_required",
                 ("BufferError_", "ControllerError"))
    HEARTBEAT = ("heartbeat", "read_only", ())
    # Cross-rack federation verbs (ZomFed): served by a rack's controller
    # on behalf of another rack's gateway when its zombie pool runs dry.
    FED_BORROW = ("FED_borrow", "dedup_required",
                  ("AllocationError", "BufferError_"))
    FED_RETURN = ("FED_return", "dedup_required",
                  ("ControllerError", "BufferError_"))


class BufferKind(str, enum.Enum):
    """Who serves a buffer: a zombie (Sz) or an active (S0) server.

    ``LOST`` is a transient label recovery applies while a serving host
    is considered dead: the buffer's content is only as good as the
    users' local-storage mirror, and the record is purged once every
    affected user has been invalidated.
    """

    ZOMBIE = "zombie"
    ACTIVE = "active"
    LOST = "lost"


@dataclass(frozen=True, slots=True)
class BufferDescriptor:
    """One rack buffer as tracked by the controller's database.

    Matches the paper's record: "an identifier, offset, size, its type
    (active/zombie), the host serving the buffer, and the server currently
    using this buffer (nil if it is not yet allocated)."  ``rkey`` is the
    RDMA registration users need to address it; ``purpose`` says why the
    user holds it (``"ext"`` guaranteed, ``"swap"`` and ``"fed"``
    revocable) and is nil whenever ``user`` is.
    """

    buffer_id: int
    host: str
    offset: int
    size_bytes: int
    kind: BufferKind
    rkey: int
    user: Optional[str] = None
    purpose: Optional[str] = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError(
                f"buffer {self.buffer_id}: size must be positive"
            )
        if self.offset < 0:
            raise ConfigurationError(
                f"buffer {self.buffer_id}: negative offset"
            )

    @property
    def allocated(self) -> bool:
        return self.user is not None

    # The copies below call the constructor directly (positional, in
    # field order): ``dataclasses.replace`` costs twice as much on the
    # allocation path, and ``__post_init__`` validates either way.
    def with_user(self, user: Optional[str],
                  purpose: Optional[str] = None) -> "BufferDescriptor":
        return BufferDescriptor(self.buffer_id, self.host, self.offset,
                                self.size_bytes, self.kind, self.rkey,
                                user, purpose)

    def with_kind(self, kind: BufferKind) -> "BufferDescriptor":
        return BufferDescriptor(self.buffer_id, self.host, self.offset,
                                self.size_bytes, kind, self.rkey,
                                self.user, self.purpose)
