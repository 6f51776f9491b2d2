"""Unit tests of the span recorder: self time, nesting, unwinding, hygiene.

Run with ``pytest benchmarks/wall -q`` (not part of the tier-1
``testpaths``).
"""

import json
import time

import pytest

import spans
from spans import GLUE, SpanRecorder


class FakeClock:
    """Integer nanoseconds that only move when a test says so."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def spend(self, ns):
        self.now += ns


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def rec(clock):
    return SpanRecorder(clock=clock, keep_every=1)


def test_self_time_is_duration_minus_child_coverage(rec, clock):
    leaf = rec.wrap(lambda: clock.spend(30), "leaf", "memory.frames")

    def fault():
        clock.spend(10)
        leaf()
        clock.spend(5)
        leaf()

    access = rec.wrap(fault, "access", "hypervisor")
    rec.start()
    clock.spend(7)          # driver
    access()
    clock.spend(3)          # driver
    rec.stop()

    assert rec.layer_self_ns == {"hypervisor": 15, "memory.frames": 60}
    assert rec.wall_ns == 85
    assert rec.driver_s() == pytest.approx(10e-9)
    calls, own, total, descended, descended_ns, units = rec.by_name["access"]
    assert (calls, own, total, descended, descended_ns) == (1, 15, 75, 1, 75)
    assert rec.by_name["leaf"][spans.CALLS] == 2
    assert rec.by_name["leaf"][spans.DESCENDED] == 0


def test_reentrant_rpc_nesting_charges_each_layer_once(rec, clock):
    """dispatch -> handler -> mirror RPC -> dispatch -> apply_mirror.

    The shape the controller's mirror stream really produces: the RPC
    layer is entered twice on one stack, with another layer between.
    """
    apply_mirror = rec.wrap(lambda: clock.spend(4), "apply_mirror",
                            "core.secondary")

    def inner_call():
        clock.spend(3)       # marshalling, polls
        apply_mirror()
        clock.spend(2)

    mirror_rpc = rec.wrap(inner_call, "RpcClient.call", "rdma.rpc")

    def handler():
        clock.spend(20)      # database work
        mirror_rpc()
        mirror_rpc()
        clock.spend(1)

    gs_alloc = rec.wrap(handler, "gs_alloc_ext", "core.controller")

    def outer_call():
        clock.spend(6)
        gs_alloc()
        clock.spend(5)

    call = rec.wrap(outer_call, "RpcClient.call", "rdma.rpc")
    rec.start()
    rec.next_op()
    call()
    rec.stop()

    assert rec.layer_self_ns == {
        "core.secondary": 8,             # 2 x 4
        "rdma.rpc": 11 + 2 * 5,          # outer 6+5, inner 2 x (3+2)
        "core.controller": 21,           # 20 + 1
    }
    assert rec.attributed_ns() == rec.wall_ns == 50
    assert rec.by_name["RpcClient.call"][spans.CALLS] == 3
    # The kept records form one tree under the outer call.
    roots = [r for r in rec.records if r[5] is None]
    assert len(roots) == 1 and roots[0][1] == "RpcClient.call"
    ids = {r[0] for r in rec.records}
    assert len(ids) == 6 and all(r[5] in ids for r in rec.records
                                 if r[5] is not None)


def test_call_within_the_same_layer_is_not_a_span(rec, clock):
    step = rec.wrap(lambda: clock.spend(5), "Engine.step", "sim")

    def run():
        clock.spend(1)
        step()
        step()

    engine_run = rec.wrap(run, "Engine.run", "sim")
    rec.start()
    engine_run()
    rec.stop()
    assert rec.spans == 1
    assert rec.layer_self_ns == {"sim": 11}
    assert rec.calls("Engine.step") == 0


def test_exception_unwinds_the_span_stack(rec, clock):
    def boom():
        clock.spend(4)
        raise KeyError("lost")

    inner = rec.wrap(boom, "inner", "core.manager")

    def outer_fn():
        clock.spend(2)
        try:
            inner()
        finally:
            clock.spend(1)

    outer = rec.wrap(outer_fn, "outer", "core.controller")
    rec.start()
    with pytest.raises(KeyError):
        outer()
    ok = rec.wrap(lambda: clock.spend(9), "ok", "core.manager")
    ok()
    rec.stop()
    assert rec._stack == []
    assert rec.layer_self_ns == {"core.manager": 13, "core.controller": 3}
    assert rec.attributed_ns() == rec.wall_ns


def test_inactive_recorder_adds_nothing(rec, clock):
    fn = rec.wrap(lambda: clock.spend(5) or "result", "fn", "fed")
    assert fn() == "result"
    assert rec.spans == 0 and rec.layer_self_ns == {"fed": 0}
    rec.start()
    with pytest.raises(RuntimeError):
        rec.start()
    rec.stop()
    with pytest.raises(RuntimeError):
        rec.stop()


def test_units_and_sampled_records(clock, tmp_path):
    rec = SpanRecorder(clock=clock, keep_every=2)
    alloc_many = rec.wrap(lambda self, count: clock.spend(count),
                          "FrameAllocator.alloc_many", "memory.frames",
                          units=lambda args: args[1])
    rec.start()
    for count in (10, 20, 30, 40):
        rec.next_op()
        alloc_many(None, count)
    rec.stop()
    assert rec.by_name["FrameAllocator.alloc_many"][spans.UNITS] == 100
    assert [r[6] for r in rec.records] == [1, 3]     # every 2nd driver op
    path = tmp_path / "spans.jsonl"
    assert rec.write_jsonl(str(path)) == 2
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0] == {"id": 0, "name": "FrameAllocator.alloc_many",
                       "layer": "memory.frames", "start_ns": 0,
                       "end_ns": 10, "parent": None, "op": 1}


def test_self_times_plus_driver_add_up_to_wall_time():
    """Real clock: sum(self) + driver + unattributed == wall within 1 %."""
    rec = SpanRecorder()

    def spin(us):
        end = time.perf_counter_ns() + us * 1000
        while time.perf_counter_ns() < end:
            pass

    leaf = rec.wrap(lambda: spin(200), "leaf", "memory.buffers")
    glue = rec.wrap(lambda: (spin(100), leaf()), "Rack.create_vm", GLUE)
    top = rec.wrap(lambda: (spin(300), glue(), leaf()), "top", "hypervisor")
    started = time.perf_counter_ns()
    rec.start()
    for _ in range(50):
        spin(50)
        top()
    rec.stop()
    outside = time.perf_counter_ns() - started
    layers_s = sum(rec.busy_s(layer) for layer in rec.layer_self_ns
                   if layer != GLUE)
    total = layers_s + rec.driver_s() + rec.busy_s(GLUE)
    assert total == pytest.approx(rec.wall_ns / 1e9, rel=1e-9)
    assert rec.wall_ns == pytest.approx(outside, rel=0.01)
    assert rec.busy_s(GLUE) == pytest.approx(50 * 100e-6, rel=0.2)


# -- install / uninstall hygiene ---------------------------------------------

def _originals():
    return {name: vars(owner)[attr]
            for _, owner, attr, name in spans.boundaries()}


def test_instrumented_restores_every_patched_attribute():
    before = _originals()
    assert len(before) > 150
    spans.assert_uninstrumented()
    rec = SpanRecorder()
    with spans.instrumented(rec):
        inside = _originals()
        assert all(spans.is_wrapped(fn) for fn in inside.values())
        assert all(inside[name].zombench_original is before[name]
                   for name in before)
        with pytest.raises(RuntimeError, match="span wrappers"):
            spans.assert_uninstrumented()
        with pytest.raises(RuntimeError, match="already instrumented"):
            with spans.instrumented(SpanRecorder()):
                pass
    assert _originals() == before
    spans.assert_uninstrumented()


def test_instrumented_restores_after_an_exception():
    before = _originals()
    with pytest.raises(ZeroDivisionError):
        with spans.instrumented(SpanRecorder()):
            1 / 0
    assert _originals() == before


def test_boundaries_skip_properties_privates_and_the_deny_list():
    names = {name for _, _, _, name in spans.boundaries()}
    assert {"Hypervisor.access", "RpcClient.call", "Engine.step",
            "RpcServer.dispatch", "generate_trace",
            "FrameAllocator.alloc_many"} <= names
    assert not names & spans.DENY
    assert not any(n.split(".")[-1].startswith("_") for n in names)
    assert "Engine.now" not in names and "Hypervisor.free_frames" not in names


def test_handlers_registered_under_instrumentation_are_traced():
    """RPC handlers are bound at construction: build inside the block."""
    from repro.core.rack import Rack
    from repro.units import MiB
    rec = SpanRecorder()
    with spans.instrumented(rec):
        rack = Rack(["user", "zombie"], memory_bytes=64 * MiB,
                    buff_size=8 * MiB)
        rec.start()
        rack.make_zombie("zombie")
        rec.stop()
    assert rec.calls("GlobalMemoryController.gs_goto_zombie") == 1
    assert rec.calls("SecondaryController.apply_mirror") > 0
    assert rec.busy_s("rdma.rpc") > 0 and rec.busy_s("acpi") > 0
    assert rec.busy_s(GLUE) > 0
