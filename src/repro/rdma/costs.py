"""Timing model for the RDMA fabric.

Defaults approximate an FDR Infiniband setup (Mellanox ConnectX-3 through an
SB7800 switch, the paper's testbed): a one-sided 4 KiB read lands in the
3-5 microsecond range, two-sided RPC costs roughly twice that, and large
transfers are bandwidth-bound at ~6 GB/s minus protocol overhead.

The absolute values matter less than the ordering the evaluation depends on:
local DRAM << one-sided RDMA << SSD << HDD.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.errors import ConfigurationError
from repro.units import MICROSECOND, NANOSECOND, PAGE_SIZE


@dataclass(frozen=True)
class RdmaCostModel:
    """Latency/bandwidth parameters for the simulated fabric."""

    #: One-sided verb base latency (NIC + switch + NIC, no CPU).
    one_sided_latency_s: float = 3.0 * MICROSECOND
    #: Extra latency for outbound (requester-side CPU posts + completion).
    post_overhead_s: float = 0.3 * MICROSECOND
    #: Wire bandwidth available to payloads, bytes/second (~FDR 56 Gb/s
    #: minus encoding overhead).
    bandwidth_bytes_per_s: float = 6.0e9
    #: One RPC round trip: request write + server dispatch + response write.
    rpc_round_trip_s: float = 10.0 * MICROSECOND
    #: Client poll interval while waiting for an RPC response (inbound
    #: polling is cheaper than outbound interrupts, per the paper).
    poll_interval_s: float = 0.5 * MICROSECOND
    #: Local DRAM access, per 4 KiB page (for comparison baselines).
    local_page_access_s: float = 80 * NANOSECOND

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.one_sided_latency_s < 0 or self.rpc_round_trip_s < 0:
            raise ConfigurationError("latencies must be non-negative")

    def transfer_time(self, nbytes: int) -> float:
        """Time for a one-sided READ/WRITE of ``nbytes``."""
        if nbytes < 0:
            raise ConfigurationError(f"negative transfer size {nbytes}")
        return (self.one_sided_latency_s + self.post_overhead_s
                + nbytes / self.bandwidth_bytes_per_s)

    def rpc_time(self) -> float:
        """Time for one RPC round trip: a 64 B request, a 64 B response."""
        return self.rpc_round_trip_s + (64 + 64) / self.bandwidth_bytes_per_s

    def polls(self, waited_s: float) -> int:
        """Client polls over ``waited_s``: at least one observes the end."""
        return max(1, int(waited_s / self.poll_interval_s))

    @cached_property
    def page_transfer_s(self) -> float:
        """``transfer_time(PAGE_SIZE)``: every page verb's cost, computed
        once (the model is frozen)."""
        return self.transfer_time(PAGE_SIZE)

    @cached_property
    def rpc_round(self) -> Tuple[float, int]:
        """``(rpc_time(), polls(rpc_time()))``: a round trip with no added
        latency, computed once (the model is frozen)."""
        seconds = self.rpc_time()
        return seconds, self.polls(seconds)
