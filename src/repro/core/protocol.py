"""Wire-level definitions of the rack memory-management protocol.

The paper names seven calls (Sections 4.3-4.4); the controller serves the
``GS_`` ones and each remote-mem-mgr serves ``US_reclaim`` (buffers taken
back from a user) and ``AS_get_free_mem`` (an active server asked to lend
more memory).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigurationError


class Method(str, enum.Enum):
    """RPC method names, exactly as the paper spells them."""

    GS_GOTO_ZOMBIE = "GS_goto_zombie"
    GS_RECLAIM = "GS_reclaim"
    GS_ALLOC_EXT = "GS_alloc_ext"
    GS_ALLOC_SWAP = "GS_alloc_swap"
    GS_GET_LRU_ZOMBIE = "GS_get_lru_zombie"
    GS_RELEASE = "GS_release"          # user returns buffers it no longer needs
    GS_TRANSFER = "GS_transfer"        # migration: move buffer ownership
    GS_WAKE = "GS_wake"                # zombie became active again
    US_RECLAIM = "US_reclaim"
    US_INVALIDATE = "US_invalidate"    # serving host died: drop its leases
    AS_GET_FREE_MEM = "AS_get_free_mem"
    AS_RESYNC = "AS_resync"            # healed lender drops stale lent state
    GS_REPORT_FAILURE = "GS_report_failure"  # user reports a dead server
    MIRROR_OP = "mirror_op"            # controller → secondary replication
    HEARTBEAT = "heartbeat"
    # Cross-rack federation verbs (ZomFed): served by a rack's controller
    # on behalf of another rack's gateway when its zombie pool runs dry.
    FED_BORROW = "FED_borrow"          # lend free zombie buffers to a peer rack
    FED_RETURN = "FED_return"          # peer rack returns borrowed buffers


# -- delivery semantics -------------------------------------------------------
#: Idempotency classes every protocol verb declares at registration
#: (``RpcServer.traced(verb, handler, idempotency=...)``).  The class
#: decides what the server must do when the same logical request is
#: delivered twice (duplicated on the wire, or retried after a lost
#: reply):
#:
#: - ``read_only`` — no rack state is written; re-execution is free.
#: - ``idempotent`` — re-execution converges to the same state (the
#:   handler is a set-style operation); the server may re-run it.
#: - ``dedup_required`` — re-execution allocates/moves/destroys state
#:   (picks *different* buffers, carves *new* MRs, raises on repeat);
#:   the server must replay the cached response instead of re-running.
READ_ONLY = "read_only"
IDEMPOTENT = "idempotent"
DEDUP_REQUIRED = "dedup_required"

IDEMPOTENCY_CLASSES = (READ_ONLY, IDEMPOTENT, DEDUP_REQUIRED)

#: The idempotency class of every protocol verb.  Kept as a pure
#: string-keyed dict literal so ZomLint's ZL008 rule can read it
#: statically (the same technique as the model's RPC_ACTION_VERBS) and
#: cross-check it against the registration sites and the verb contract.
VERB_IDEMPOTENCY = {
    "GS_goto_zombie": "dedup_required",
    "GS_reclaim": "dedup_required",
    "GS_alloc_ext": "dedup_required",
    "GS_alloc_swap": "dedup_required",
    "GS_get_lru_zombie": "read_only",
    "GS_release": "dedup_required",
    "GS_transfer": "dedup_required",
    "GS_wake": "idempotent",
    "US_reclaim": "idempotent",
    "US_invalidate": "idempotent",
    "AS_get_free_mem": "dedup_required",
    "AS_resync": "idempotent",
    "GS_report_failure": "idempotent",
    "mirror_op": "dedup_required",
    "heartbeat": "read_only",
    "FED_borrow": "dedup_required",
    "FED_return": "dedup_required",
}


#: The *error contract* of every protocol verb: the exception types a
#: handler may let escape to the RPC boundary (a declared base class
#: covers its subclasses).  Anything escaping a verb is serialized back
#: to the caller, so this tuple IS part of the wire contract — callers
#: decide retry/abort/fence from it.  The transport-retryable family
#: (``rdma.rpc.is_retryable``) and ``FencingError`` are implicitly
#: allowed on every verb and never listed here.  Kept as a pure literal
#: so ZomFlow's ZL011 pass can read it statically and verify every raise
#: site interprocedurally (see ``docs/FLOWCHECK.md``).
VERB_ERRORS = {
    "GS_goto_zombie": (),
    "GS_reclaim": (),
    "GS_alloc_ext": ("AllocationError",),
    "GS_alloc_swap": ("AllocationError",),
    "GS_get_lru_zombie": (),
    "GS_release": (),
    "GS_transfer": ("BufferError_",),
    "GS_wake": (),
    "US_reclaim": ("BufferError_",),
    "US_invalidate": (),
    "AS_get_free_mem": ("AllocationError",),
    "AS_resync": (),
    "GS_report_failure": (),
    "mirror_op": (),
    "heartbeat": (),
    # ConfigurationError covers metric-registry conflicts surfacing
    # through the lending audit trail (same escape the GS verbs carry
    # as baselined ZL011 debt; the FED verbs declare it honestly).
    "FED_borrow": ("AllocationError", "BufferError_", "ConfigurationError"),
    "FED_return": ("ControllerError", "BufferError_", "ConfigurationError"),
}


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


@dataclass(frozen=True)
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

    def with_user(self, user: Optional[str],
                  purpose: Optional[str] = None) -> "BufferDescriptor":
        return replace(self, user=user, purpose=purpose)

    def with_kind(self, kind: BufferKind) -> "BufferDescriptor":
        return replace(self, kind=kind)
