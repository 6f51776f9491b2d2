"""The untraced RPC round trip is a straight line — and charges the same.

With the null telemetry hub a call is ``call → _call_with_retries →
_attempt → dispatch → handler``, decided once on each side; with the hub
enabled every span, tag and metric is still recorded.  The two paths must
be indistinguishable in the simulated domain: same costs, same retries,
same deduplications, same recovery decisions.
"""

import sys

import pytest

from repro.core import recovery
from repro.core.rack import Rack
from repro.hypervisor.vm import VmSpec
from repro.obs import Telemetry
from repro.rdma.fabric import Fabric, LinkFaults
from repro.rdma.rpc import RetryPolicy, RpcClient, RpcServer
from repro.sanitize.pytest_plugin import get_session_sanitizer
from repro.units import MiB


class _CountingHub(Telemetry):
    """A disabled hub that counts how often ``enabled`` is consulted."""

    reads = 0

    @property
    def enabled(self):
        self.reads += 1
        return False

    @enabled.setter
    def enabled(self, value):
        assert value is False


def _frames_below_call():
    """Function names from the caller's frame down to ``RpcClient.call``."""
    names = []
    frame = sys._getframe(1)
    while frame.f_code is not RpcClient.call.__code__:
        names.append(frame.f_code.co_name)
        frame = frame.f_back
    return names


class TestStraightLine:
    def _pair(self, telemetry=None):
        fabric = Fabric(telemetry=telemetry)
        server = RpcServer(fabric.add_node("srv"))
        client = RpcClient(fabric.add_node("cli"), server,
                           retry_policy=RetryPolicy())
        return server, client

    def test_handler_runs_four_frames_below_call(self, request):
        if get_session_sanitizer(request.config) is not None:
            pytest.skip("MemSan's dispatch hook adds a frame")
        server, client = self._pair()
        seen = []
        server.register("where", lambda: seen.append(_frames_below_call()))
        client.call("where")
        assert seen == [["<lambda>", "dispatch", "_attempt",
                         "_call_with_retries"]]

    def test_one_traced_or_not_decision_per_side(self):
        hub = _CountingHub(enabled=False)
        server, client = self._pair(telemetry=hub)
        server.register("echo", lambda x: x, idempotency="dedup_required")
        hub.reads = 0
        assert client.call("echo", 42) == 42
        assert hub.reads == 2  # RpcClient.call + RpcServer.dispatch
        assert client.call("echo", 43) == 43
        assert hub.reads == 4

    def test_kept_request_carries_metadata_beside_its_arguments(self):
        # What a later reorder would re-present is dispatch's own
        # argument tuple: the handler's arguments exactly as the caller
        # passed them, and the request id, budget and stamp beside them.
        server, client = self._pair()
        server.register("echo", lambda x, tag=None: (x, tag))
        assert client.call("echo", 1, tag="t", epoch=4, rack="r") == (1, "t")
        method, args, kwargs, req_id, budget, stamp, ctx = \
            client._last_request
        assert (method, args, kwargs) == ("echo", (1,), {"tag": "t"})
        assert req_id == (client.client_id, 1)
        assert budget == RetryPolicy().deadline_s
        assert stamp == ("r", 4)
        assert ctx is None  # untraced


def _mini_rack_day(telemetry):
    """~300 simulated seconds of monitored rack under message faults."""
    rack = Rack([f"s{i}" for i in range(4)], memory_bytes=128 * MiB,
                buff_size=8 * MiB, rng_seed=23, telemetry=telemetry)
    first = rack.controller
    rack.start_host_monitoring(probe_period_s=1.0, miss_threshold=6)
    recovery.FaultSchedule([
        recovery.FaultAction(0.0, recovery.MESSAGE_FAULTS, "*", src="*",
                             faults=LinkFaults(reply_loss=0.04,
                                               duplicate=0.06)),
        recovery.FaultAction(60.0, recovery.CRASH, "s3"),
        recovery.FaultAction(120.0, recovery.HEAL, "s3"),
        recovery.FaultAction(180.0, recovery.KILL_CONTROLLER),
    ]).install(rack)
    engine = rack.engine
    engine.schedule_at(5.0, lambda: rack.make_zombie("s1"))
    engine.schedule_at(10.0, lambda: rack.make_zombie("s3"))
    for i, at in enumerate((20.0, 40.0, 90.0, 200.0, 240.0)):
        name = f"vm{i}"
        engine.schedule_at(at, lambda n=name: rack.create_vm(
            "s0", VmSpec(n, 24 * MiB), local_fraction=0.5))
        engine.schedule_at(at + 45.0, lambda n=name: rack.destroy_vm("s0", n))
    engine.schedule_at(150.0, lambda: rack.wake("s1", reclaim_bytes=64 * MiB))
    engine.schedule_at(260.0, lambda: rack.make_zombie("s1"))
    events = engine.run(until=300.0)

    assert rack.controller is not first and rack.controller.epoch == 2
    servers = {"first": first.rpc, "promoted": rack.controller.rpc,
               "standby": rack.secondary.rpc}
    servers.update((name, s.manager.rpc) for name, s in rack.servers.items())
    return {
        "engine_events": events,
        "fabric": vars(rack.fabric.stats),
        "retry": vars(rack.retry_policy.stats),
        "monitor_retry": vars(rack.monitor_policy.stats),
        "served": {n: (s.calls_served, s.dedup_replays)
                   for n, s in servers.items()},
        "probes_sent": rack.recovery.probes_sent,
        "incidents": [(i.host, i.detected_at, i.recovered_at, i.buffers_lost)
                      for i in rack.recovery.incidents],
        "injected": dict(rack.fabric.message_faults.injected),
        "events": [(e.time_s, e.kind.value, e.host) for e in rack.events],
        "pool": rack.pool_summary(),
    }


def test_traced_and_untraced_runs_agree_in_the_sim_domain():
    untraced = _mini_rack_day(None)
    traced_hub = Telemetry(enabled=True)
    traced = _mini_rack_day(traced_hub)
    assert traced == untraced
    # The scenario reaches the paths the two runs could disagree on.
    assert untraced["retry"]["retries"] > 0
    assert sum(replays for _, replays in untraced["served"].values()) > 0
    assert untraced["injected"]["reply_loss"] > 0
    assert untraced["injected"]["duplicate"] > 0
    assert [host for host, *_ in untraced["incidents"]] == ["s3"]
    # ... and the traced run really was traced.
    assert (traced_hub.registry.value("recovery_probes_total")
            == traced["probes_sent"])
    assert traced_hub.tracer.finished("serve.heartbeat")


def test_monitoring_plane_counters_are_pinned():
    """The untraced scenario's counters, exactly as recorded before the
    probe round and the closed-breaker fast path were thinned: the
    monitoring plane may get cheaper in host time, never in messages."""
    run = _mini_rack_day(None)
    assert run["engine_events"] == 500
    assert run["fabric"] == {"reads": 0, "writes": 0, "rpcs": 1197,
                             "bytes_read": 0, "bytes_written": 0,
                             "busy_seconds": 0.011995536000000091}
    assert run["retry"] == {"calls": 1022, "attempts": 1069, "retries": 47,
                            "deadline_exhausted": 0, "giveups": 0}
    assert run["monitor_retry"] == {"calls": 182, "attempts": 182,
                                    "retries": 0, "deadline_exhausted": 0,
                                    "giveups": 4}
    assert run["probes_sent"] == 1200
    assert run["served"] == {"first": (198, 1), "promoted": (5, 1),
                             "standby": (97, 12), "s0": (343, 0),
                             "s1": (128, 0), "s2": (333, 0), "s3": (212, 0)}
    assert run["incidents"] == [("s3", 65.0, 120.0, 14)]
    assert run["injected"] == {"request_loss": 0, "reply_loss": 51,
                               "duplicate": 82, "reorder": 0}
    assert run["pool"] == {"buffers": 14, "free_bytes": 117440512,
                           "total_bytes": 117440512, "zombie_hosts": 1}
