"""One clock: every reader of simulated time on a rack reads its fabric's engine.

Events, spans and every channel's breaker take the same clock, before and
after a failover, and a federation's racks share the federation fabric's
engine.  A telemetry hub that no fabric carries has no clock at all.
"""

import pytest

from repro.core.events import EventKind
from repro.core.rack import Rack
from repro.errors import ConfigurationError
from repro.fed import Federation
from repro.obs import Telemetry
from repro.rdma.fabric import Fabric
from repro.rdma.rpc import RpcClient
from repro.units import MiB


def _rack():
    return Rack(["a", "z"], memory_bytes=64 * MiB, buff_size=4 * MiB,
                telemetry=Telemetry(enabled=True))


def _clocks(rack):
    """What each reader of simulated time on ``rack`` reads right now."""
    event = rack.events.emit(EventKind.VM_CREATED, "a", vm="probe")
    with rack.telemetry.tracer.span("probe") as span:
        pass
    bare = RpcClient(rack.server("a").node, rack.controller.rpc)
    # Manager calls go through a PrimaryChannel, which opens its client
    # (and so its breaker) on the first call after each failover.
    rack.server("a").manager.request_swap(4 * MiB)
    channel = rack.server("a").manager.controller
    return {
        "event": event.time_s,
        "span": span.start_s,
        "policy-less breaker": bare.breaker.clock(),
        "channel breaker": channel.client.breaker.clock(),
    }


class TestRack:
    def test_every_reader_reads_the_engine(self):
        rack = _rack()
        rack.make_zombie("z")
        rack.engine.run(until=7.25)
        clocks = _clocks(rack)
        clocks["mirror breaker"] = rack.controller.mirror.breaker.clock()
        assert clocks == dict.fromkeys(clocks, 7.25)

    def test_the_promoted_controller_reads_the_engine(self):
        rack = _rack()
        rack.make_zombie("z")
        deposed = rack.controller
        rack.kill_controller()
        rack.engine.run(until=12.5)
        assert rack.controller is not deposed
        assert rack.controller.events is deposed.events  # the log moves
        clocks = _clocks(rack)
        assert clocks == dict.fromkeys(clocks, 12.5)
        rack.wake("z")
        assert rack.events.last().time_s == 12.5

    def test_the_rack_runs_on_its_fabric_engine(self):
        fabric = Fabric()
        rack = Rack(["a"], memory_bytes=64 * MiB, buff_size=4 * MiB,
                    fabric=fabric)
        assert rack.engine is fabric.engine


class TestFederation:
    def test_every_rack_runs_on_the_federation_fabric_engine(self):
        fed = Federation(n_racks=3, hosts_per_rack=2, memory_bytes=64 * MiB,
                         buff_size=4 * MiB)
        assert fed.engine is fed.fabric.engine
        for rack in fed.racks.values():
            assert rack.engine is fed.fabric.engine


class TestTelemetryWithoutFabric:
    def test_a_span_on_an_uncarried_hub_is_refused(self):
        tel = Telemetry(enabled=True)
        with pytest.raises(ConfigurationError):
            tel.tracer.span("orphan")

    def test_a_carried_hub_stamps_the_fabric_engine_time(self):
        tel = Telemetry(enabled=True)
        fabric = Fabric(telemetry=tel)
        fabric.engine.run(until=3.0)
        with tel.tracer.span("carried") as span:
            pass
        assert (span.start_s, span.end_s) == (3.0, 3.0)
