"""The control-plane event log."""

import pytest

from repro.core.events import Event, EventKind, EventLog
from repro.core.rack import Rack
from repro.hypervisor.vm import VmSpec
from repro.units import MiB


class TestEventLog:
    def test_emit_and_order(self):
        log = EventLog()
        log.emit(EventKind.ZOMBIE_ENTER, "h1", buffers=4)
        log.emit(EventKind.ALLOC_EXT, "h2", buffers=2)
        assert len(log) == 2
        assert [e.kind for e in log] == [EventKind.ZOMBIE_ENTER,
                                         EventKind.ALLOC_EXT]
        assert log.last().host == "h2"

    def test_sequence_numbers_monotone(self):
        log = EventLog()
        events = [log.emit(EventKind.HEARTBEAT if False else
                           EventKind.ALLOC_EXT, "h") for _ in range(5)]
        assert [e.seq for e in events] == [0, 1, 2, 3, 4]

    def test_clock_source(self):
        now = [0.0]
        log = EventLog(clock=lambda: now[0])
        now[0] = 42.5
        assert log.emit(EventKind.FAILOVER, "sec").time_s == 42.5

    def test_queries(self):
        log = EventLog()
        log.emit(EventKind.ZOMBIE_ENTER, "h1")
        log.emit(EventKind.ZOMBIE_EXIT, "h1")
        log.emit(EventKind.ZOMBIE_ENTER, "h2")
        assert len(log.of_kind(EventKind.ZOMBIE_ENTER)) == 2
        assert log.counts() == {"zombie-enter": 2, "zombie-exit": 1}

    def test_capacity_drops_oldest(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit(EventKind.ALLOC_EXT, f"h{i}")
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.host for e in log] == ["h2", "h3", "h4"]

    def test_detail_payload(self):
        log = EventLog()
        event = log.emit(EventKind.VM_MIGRATED, "dst", vm="web",
                         from_host="src")
        assert event.detail == {"vm": "web", "from_host": "src"}

    def test_unbounded_log_never_drops(self):
        log = EventLog(capacity=None)
        for _ in range(250):
            log.emit(EventKind.ALLOC_EXT, "h")
        assert len(log) == 250
        assert log.dropped == 0

    def test_metrics_bridge_counts_by_kind(self):
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        log = EventLog(capacity=2)
        log.attach_metrics(registry)
        for _ in range(3):
            log.emit(EventKind.ALLOC_EXT, "h")
        log.emit(EventKind.FAILOVER, "sec")
        # The ring dropped two events, the exported counts did not.
        assert len(log) == 2
        assert registry.value("rack_events_total", kind="alloc-ext") == 3
        assert registry.value("rack_events_total", kind="failover") == 1

    def test_rack_bridges_audit_log_when_telemetry_enabled(self):
        from repro.obs import Telemetry
        rack = Rack(["a", "z"], memory_bytes=128 * MiB, buff_size=8 * MiB,
                    telemetry=Telemetry(enabled=True))
        rack.make_zombie("z")
        registry = rack.telemetry.registry
        assert registry.value("rack_events_total", kind="zombie-enter") == 1


class TestRackAuditTrail:
    def test_full_lifecycle_is_audited(self):
        rack = Rack(["a", "b", "z"], memory_bytes=128 * MiB,
                    buff_size=8 * MiB)
        rack.make_zombie("z")
        rack.create_vm("a", VmSpec("vm", 32 * MiB), local_fraction=0.5)
        rack.migrate_vm("vm", "a", "b")
        rack.destroy_vm("b", "vm")
        rack.wake("z", reclaim_bytes=8 * MiB)

        counts = rack.events.counts()
        assert counts["zombie-enter"] == 1
        assert counts["alloc-ext"] == 1
        assert counts["vm-created"] == 1
        assert counts["vm-migrated"] == 1
        assert counts["vm-destroyed"] == 1
        assert counts["buffers-reclaimed"] == 1
        assert "buffers-transferred" in counts
        assert "buffers-released" in counts

    def test_failover_is_audited_and_log_survives(self):
        rack = Rack(["a"], memory_bytes=128 * MiB, buff_size=8 * MiB)
        rack.make_zombie  # no-op reference; keep rack minimal
        before = len(rack.events)
        rack.kill_controller()
        rack.engine.run(until=10.0)
        assert rack.events.of_kind(EventKind.FAILOVER)
        assert len(rack.events) > before  # same log carried over

    def test_events_timestamped_with_engine_time(self):
        rack = Rack(["a", "z"], memory_bytes=128 * MiB, buff_size=8 * MiB)
        rack.engine.schedule(5.0, lambda: rack.make_zombie("z"))
        rack.engine.run(until=6.0)  # the heartbeat keeps the queue alive
        event = rack.events.of_kind(EventKind.ZOMBIE_ENTER)[0]
        assert event.time_s == 5.0
