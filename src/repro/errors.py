"""Exception hierarchy for the Zombieland reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without masking programming errors.

A class that sets ``retryable`` decides for its subtree whether the RPC
client retries the fault (``rdma.rpc.is_retryable``); ZomLint's ZL011
reads the same flags to allow that family across every verb boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class PowerStateError(ReproError):
    """An illegal ACPI power-state transition was requested."""


class FirmwareError(ReproError):
    """The firmware transition sequencer hit an inconsistent platform state."""


class RdmaError(ReproError):
    """Base class for RDMA fabric errors."""

    retryable = True  # a link-level fault: another attempt may get through


class QueuePairError(RdmaError):
    """A verb was posted on a queue pair in the wrong state."""


class MemoryRegionError(RdmaError):
    """An RDMA operation referenced an invalid or unregistered region."""


class RpcError(RdmaError):
    """An RPC-over-RDMA call failed."""

    retryable = False  # the server answered: retrying gets the same answer


class RpcTimeoutError(RpcError):
    """The client polled past its deadline without a server response."""

    retryable = True  # no response formed


class CircuitOpenError(RpcError):
    """An RPC was rejected locally because the channel's breaker is open."""


class DeadlineExceededError(RpcError):
    """A request's propagated deadline budget expired before (or while)
    the server could act on it; the work was fast-failed, not executed."""


class MemoryError_(ReproError):
    """Base class for the memory subsystem (named to avoid shadowing builtins)."""


class OutOfFramesError(MemoryError_):
    """The machine-frame allocator has no free frame left."""


class PageTableError(MemoryError_):
    """A page-table operation referenced an unmapped or inconsistent entry."""


class BufferError_(MemoryError_):
    """A remote-buffer operation was invalid (double free, unknown id, ...)."""


class SwapError(MemoryError_):
    """A swap-device operation failed (device full, bad slot, ...)."""


class AllocationError(ReproError):
    """The global memory controller could not satisfy an allocation."""


class AdmissionError(ReproError):
    """Rack-level admission control rejected a request."""


class ControllerError(ReproError):
    """The global/secondary memory controller hit a protocol violation."""


class FailoverError(ControllerError):
    """High-availability failover could not be completed."""


class FencingError(ControllerError):
    """A control-plane call carried a stale fencing epoch (split brain)."""


class HypervisorError(ReproError):
    """Base class for hypervisor-level failures."""


class VmStateError(HypervisorError):
    """A VM lifecycle operation was invalid in the VM's current state."""


class MigrationError(HypervisorError):
    """A live-migration step failed."""


class PlacementError(ReproError):
    """The cloud scheduler could not place a VM."""


class TraceFormatError(ReproError):
    """A cluster-trace record did not match the expected schema."""


class SimulationError(ReproError):
    """The discrete-event engine was driven incorrectly."""
