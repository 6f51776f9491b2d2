"""Swap devices: latency ordering, async write-behind, backlog queueing."""

import pytest

from repro.core.rack import Rack
from repro.errors import ConfigurationError, SwapError
from repro.hypervisor.split_driver import SplitDriverSwap
from repro.memory.swap import ASYNC_SUBMIT_S, HddSwap, SsdSwap
from repro.units import MiB


class TestLatencyOrdering:
    def test_ssd_faster_than_hdd(self):
        assert SsdSwap.read_latency_s < HddSwap.read_latency_s

    def test_remote_ram_faster_than_ssd(self):
        rack = Rack(["user", "zombie"], memory_bytes=64 * MiB,
                    buff_size=4 * MiB)
        rack.make_zombie("zombie")
        ram = SplitDriverSwap(rack.server("user").manager, capacity_pages=4)
        ram.swap_out("k")
        _, ram_in = ram.swap_in("k")
        assert ram_in < SsdSwap.read_latency_s


class TestSwapProtocol:
    def test_out_in_round_trip(self):
        dev = SsdSwap(capacity_pages=4)
        dev.swap_out("a", b"payload")
        data, _ = dev.swap_in("a")
        assert data == b"payload"
        assert not dev.contains("a")

    def test_double_out_rejected(self):
        dev = SsdSwap(4)
        dev.swap_out("a")
        with pytest.raises(SwapError):
            dev.swap_out("a")

    def test_in_of_absent_key_rejected(self):
        with pytest.raises(SwapError):
            SsdSwap(4).swap_in("missing")

    def test_capacity_enforced(self):
        dev = SsdSwap(1)
        dev.swap_out("a")
        with pytest.raises(SwapError):
            dev.swap_out("b")

    def test_discard(self):
        dev = SsdSwap(2)
        dev.swap_out("a")
        dev.discard("a")
        assert not dev.contains("a")
        with pytest.raises(SwapError):
            dev.discard("a")

    def test_counters(self):
        dev = SsdSwap(4)
        dev.swap_out("a")
        dev.swap_in("a")
        assert dev.swap_outs == 1
        assert dev.swap_ins == 1

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            SsdSwap(0)


class TestAsyncWriteBehind:
    def test_swap_out_returns_submit_cost_only(self):
        dev = HddSwap(8)
        assert dev.swap_out("a") == ASYNC_SUBMIT_S

    def test_backlog_accumulates(self):
        dev = HddSwap(8)
        dev.swap_out("a")
        dev.swap_out("b")
        assert dev.backlog_s == pytest.approx(2 * HddSwap.write_latency_s)

    def test_tick_drains_backlog(self):
        dev = HddSwap(8)
        dev.swap_out("a")
        dev.tick(HddSwap.write_latency_s / 2)
        assert dev.backlog_s == pytest.approx(HddSwap.write_latency_s / 2)
        dev.tick(100.0)
        assert dev.backlog_s == 0.0

    def test_swap_in_stalls_behind_backlog(self):
        dev = HddSwap(8)
        dev.swap_out("a")
        dev.swap_out("b")
        _, elapsed = dev.swap_in("a")
        assert elapsed == pytest.approx(2 * HddSwap.write_latency_s
                                        + HddSwap.read_latency_s)
        assert dev.backlog_s == 0.0  # the read forced a drain

    def test_drained_device_serves_at_base_latency(self):
        dev = SsdSwap(8)
        dev.swap_out("a")
        dev.tick(1.0)
        _, elapsed = dev.swap_in("a")
        assert elapsed == pytest.approx(SsdSwap.read_latency_s)
