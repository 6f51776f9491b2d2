"""Micro-operation benchmarks: the primitive costs under every experiment.

Unlike the table/figure benches (one-shot experiment reproductions), these
use pytest-benchmark's statistics properly: many rounds of the hot
primitives — one-sided verbs, RPC round trips, the fault path, victim
selection, controller allocation — so regressions in the simulator's own
performance are visible.
"""

import json
import os
import time
from collections import deque
from pathlib import Path

import pytest

from repro.core.rack import Rack
from repro.hypervisor.vm import VmSpec
from repro.memory.frames import Frame, FrameAllocator
from repro.memory.page_table import PageTable
from repro.memory.replacement import make_policy
from repro.obs import Telemetry
from repro.rdma.fabric import Fabric
from repro.units import MiB, PAGE_SIZE


@pytest.fixture(scope="module")
def verb_env():
    fabric = Fabric()
    a = fabric.add_node("a")
    b = fabric.add_node("b")
    mr = b.register_mr(64 * MiB)
    qp = a.connect_qp("b")
    payload = bytes(range(256)) * 16  # 4 KiB, non-zero
    return a, mr, qp, payload


def test_one_sided_write_4k(benchmark, verb_env):
    a, mr, qp, payload = verb_env
    benchmark(a.rdma_write, qp, mr.rkey, 0, payload)


def test_one_sided_read_4k(benchmark, verb_env):
    a, mr, qp, payload = verb_env
    a.rdma_write(qp, mr.rkey, 0, payload)
    result = benchmark(a.rdma_read, qp, mr.rkey, 0, PAGE_SIZE)
    assert result[:16] == payload[:16]


def test_rpc_round_trip(benchmark):
    from repro.rdma.rpc import RpcClient, RpcServer
    fabric = Fabric()
    server = RpcServer(fabric.add_node("srv"))
    server.register("echo", lambda x: x)
    client = RpcClient(fabric.add_node("cli"), server)
    assert benchmark(client.call, "echo", 42) == 42


def test_rpc_round_trip_traced(benchmark):
    """The instrumented round trip — and the registry must agree with the
    client's own counters, so BENCH numbers are measured, not reported."""
    from repro.rdma.rpc import RpcClient, RpcServer
    tel = Telemetry(enabled=True)
    fabric = Fabric(telemetry=tel)
    server = RpcServer(fabric.add_node("srv"))
    server.register("echo", lambda x: x)
    client = RpcClient(fabric.add_node("cli"), server)
    assert benchmark(client.call, "echo", 42) == 42

    assert tel.registry.value("rpc_calls_total", verb="echo") \
        == client.calls_made
    assert tel.registry.value("rpc_call_seconds", verb="echo") \
        == client.calls_made
    assert tel.registry.value("rpc_served_total", verb="echo",
                              node="srv") == server.calls_served
    # call + attempt + serve per round trip, modulo the ring bound.
    tracer = tel.tracer
    assert len(tracer.finished()) + tracer.dropped == 3 * client.calls_made


def test_disabled_telemetry_rpc_overhead():
    """A disabled hub must cost nothing measurable on the RPC hot path.

    ``client.call`` with disabled telemetry is the uninstrumented retry
    loop plus one ``enabled`` check; compare it against invoking that
    loop directly and require the wrapper to stay within noise.
    """
    from repro.rdma.rpc import RpcClient, RpcServer
    fabric = Fabric()  # default hub: disabled
    server = RpcServer(fabric.add_node("srv"))
    server.register("echo", lambda x: x)
    client = RpcClient(fabric.add_node("cli"), server)
    assert not fabric.telemetry.enabled

    def timed(fn, loops=2000):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        return time.perf_counter() - start

    run_bare = lambda: client._call_with_retries("echo", (42,), {})
    run_wrapped = lambda: client.call("echo", 42)
    timed(run_wrapped, loops=500)  # warm up
    timed(run_bare, loops=500)
    # Interleave the measurements so CPU-frequency/load drift hits both
    # targets equally; minima are robust against one-off stalls.
    bare = wrapped = float("inf")
    for _ in range(9):
        bare = min(bare, timed(run_bare))
        wrapped = min(wrapped, timed(run_wrapped))
    assert wrapped < bare * 1.5, (
        f"disabled telemetry added {wrapped / bare - 1:.0%} to the RPC "
        "round trip"
    )
    # And it must have recorded nothing while doing so.
    assert fabric.telemetry.registry.families() == []
    assert fabric.telemetry.tracer.finished() == []


@pytest.fixture(scope="module")
def fault_env():
    rack = Rack(["user", "zombie"], memory_bytes=256 * MiB,
                buff_size=8 * MiB)
    rack.make_zombie("zombie")
    vm = rack.create_vm("user", VmSpec("vm", 64 * MiB), local_fraction=0.5)
    hv = rack.server("user").hypervisor
    for ppn in range(vm.spec.total_pages):
        hv.access(vm, ppn)
    return hv, vm


def test_resident_access_fast_path(benchmark, fault_env):
    hv, vm = fault_env
    resident = next(e.ppn for e in vm.table.resident())
    benchmark(hv.access, vm, resident)


def test_fault_path_with_eviction(benchmark, fault_env):
    """The full miss path: policy + demotion write + remote fill read."""
    hv, vm = fault_env
    pages = vm.spec.total_pages

    def one_fault(state=[0]):
        # Walk pseudo-physical pages; roughly half are remote at any time.
        for _ in range(pages):
            state[0] = (state[0] + 1) % pages
            entry = vm.table.entry(state[0])
            if not entry.present:
                return hv.access(vm, state[0])
        return 0.0

    cost = benchmark(one_fault)
    assert cost > 0


def test_fault_path_traced(benchmark):
    """The instrumented miss path; fault counts are read back from the
    ZomTrace registry and must match the hypervisor's own accounting."""
    tel = Telemetry(enabled=True)
    rack = Rack(["user", "zombie"], memory_bytes=256 * MiB,
                buff_size=8 * MiB, telemetry=tel)
    rack.make_zombie("zombie")
    vm = rack.create_vm("user", VmSpec("vm", 64 * MiB), local_fraction=0.5)
    hv = rack.server("user").hypervisor
    for ppn in range(vm.spec.total_pages):
        hv.access(vm, ppn)
    pages = vm.spec.total_pages

    def one_fault(state=[0]):
        for _ in range(pages):
            state[0] = (state[0] + 1) % pages
            entry = vm.table.entry(state[0])
            if not entry.present:
                return hv.access(vm, state[0])
        return 0.0

    cost = benchmark(one_fault)
    assert cost > 0
    stats = hv.stats("vm")
    assert tel.registry.value("hv_page_faults_total",
                              host="user") == stats.page_faults
    assert tel.registry.value("hv_fault_seconds",
                              host="user") == stats.page_faults
    evicted = sum(tel.registry.value("hv_evictions_total", **labels)
                  for labels
                  in tel.registry.labels_for("hv_evictions_total"))
    assert evicted == stats.evictions > 0


@pytest.mark.parametrize("policy_name", ["FIFO", "Clock", "Mixed"])
def test_victim_selection(benchmark, policy_name):
    policy = make_policy(policy_name)
    table = PageTable(4096)
    for ppn in range(2048):
        table.map_local(ppn, Frame(ppn))
        policy.note_resident(ppn)
    table.clear_accessed_bits()
    table.clear_accessed_bits()

    def select_and_replace(state=[2048]):
        victim = policy.select_victim(table).ppn
        table.demote(victim, remote_slot=victim)
        table.map_local(victim, Frame(victim))
        policy.note_resident(victim)
        return victim

    benchmark(select_and_replace)


def test_controller_alloc_release(benchmark):
    rack = Rack(["user", "zombie"], memory_bytes=256 * MiB,
                buff_size=8 * MiB)
    rack.make_zombie("zombie")
    manager = rack.server("user").manager

    def alloc_release():
        store = manager.request_ext(16 * MiB)
        manager.release_store(store)

    benchmark(alloc_release)


@pytest.mark.parametrize("shape", ["buffer", "buffer-fragmented", "single"])
def test_frame_allocator_churn(benchmark, shape):
    """The allocator's two real shapes on a 512 MiB host (131 072 frames).

    ``buffer``: carve and return one 16 MiB buffer (4 096 frames), what
    ``carve_buffers``/``reclaim`` do per buffer.  ``buffer-fragmented``:
    the same on a checker-boarded pool, where every free frame is an
    isolated single — the worst case for the extent representation.
    ``single``: the fault path's pair — evict (free the oldest resident
    frame) then fill (alloc one) — with a VM's 8 192 frames resident.
    """
    allocator = FrameAllocator(131072)
    if shape == "buffer-fragmented":
        for frame in list(allocator.alloc_many(131072))[::2]:
            allocator.free(frame)

    if shape == "single":
        resident = deque(allocator.alloc() for _ in range(8192))

        def churn():
            allocator.free(resident.popleft())
            resident.append(allocator.alloc())
    else:
        def churn():
            allocator.free_many(allocator.alloc_many(4096))

    benchmark(churn)


# -- checked-in baseline -----------------------------------------------------
#
# Wall-clock numbers drift with the machine; the *simulated* costs and
# operation counts of a fixed scripted scenario do not.  The baseline
# below pins those MetricsRegistry values so a change that silently makes
# the hot paths chattier (more RPCs, more faults) or slower in simulated
# time fails here, machine-independently.  Refresh after an intentional
# change with:  BENCH_REGEN=1 pytest benchmarks/bench_micro_ops.py

BASELINE_PATH = Path(__file__).with_name("BENCH_micro_ops.json")
#: Generous: real regressions worth catching are way past 25 %.
BASELINE_TOLERANCE = 0.25
_BASELINE_FAMILIES = ("rpc_calls_total", "rpc_served_total",
                      "rpc_call_seconds_count", "rpc_call_seconds_sum",
                      "hv_page_faults_total", "hv_evictions_total",
                      "hv_fault_seconds_count", "hv_fault_seconds_sum")


def _micro_ops_snapshot():
    """Metric values of one fixed micro-op scenario (simulated units)."""
    tel = Telemetry(enabled=True)
    rack = Rack(["user", "zombie"], memory_bytes=256 * MiB,
                buff_size=8 * MiB, rng_seed=0, telemetry=tel)
    rack.make_zombie("zombie")
    vm = rack.create_vm("user", VmSpec("vm", 64 * MiB), local_fraction=0.5)
    hv = rack.server("user").hypervisor
    for _ in range(2):
        for ppn in range(vm.spec.total_pages):
            hv.access(vm, ppn)
    manager = rack.server("user").manager
    store = manager.request_ext(16 * MiB)
    manager.release_store(store)
    manager.request_swap(8 * MiB)
    rack.wake("zombie", reclaim_bytes=256 * MiB)
    rack.destroy_vm("user", "vm")
    return {key: value for key, value in tel.registry.snapshot().items()
            if key.split("{", 1)[0] in _BASELINE_FAMILIES}


def test_micro_ops_match_checked_in_baseline():
    current = _micro_ops_snapshot()
    if os.environ.get("BENCH_REGEN"):
        BASELINE_PATH.write_text(json.dumps(current, indent=2,
                                            sort_keys=True) + "\n")
    baseline = json.loads(BASELINE_PATH.read_text())
    missing = sorted(set(baseline) - set(current))
    assert not missing, f"baseline metrics no longer emitted: {missing}"
    appeared = sorted(set(current) - set(baseline))
    assert not appeared, (
        f"new metrics not in the baseline (BENCH_REGEN=1 to accept): "
        f"{appeared}")
    off = {key: (want, current[key]) for key, want in baseline.items()
           if abs(current[key] - want) >
           BASELINE_TOLERANCE * max(abs(want), 1e-12)}
    assert not off, f"micro-op costs drifted past ±25%: {off}"
