"""Property-based tests on the higher system layers.

- a swap device is a faithful key-value store of pages under any op mix;
- ZombieStack placement never books a rack server past its vCPU capacity
  or its free memory, under any boot/stop sequence;
- the controller's pool accounting balances across any lend/alloc/release
  interleaving;
- the sliding-window scan covers the whole array exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.cloud.zombiestack import ZombieStackOrchestrator
from repro.core.controller import GlobalMemoryController
from repro.core.protocol import BufferDescriptor, BufferKind
from repro.core.rack import Rack
from repro.errors import AdmissionError, PlacementError, ReproError
from repro.hypervisor.vm import VmSpec
from repro.memory.swap import SsdSwap
from repro.rdma.fabric import Fabric
from repro.sim.rng import DeterministicRng
from repro.units import MiB
from repro.workloads.patterns import sliding_window_scan


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["out", "in", "discard"]),
                              st.integers(0, 9),
                              st.binary(min_size=0, max_size=8)),
                    max_size=60))
def test_swap_device_is_a_faithful_page_store(ops):
    device = SsdSwap(capacity_pages=16)
    shadow = {}
    for op, key, payload in ops:
        try:
            if op == "out":
                device.swap_out(key, payload)
                shadow[key] = payload
            elif op == "in":
                data, _ = device.swap_in(key)
                assert data == shadow.pop(key)
            else:
                device.discard(key)
                del shadow[key]
        except ReproError:
            # invalid op for the current state; shadow must agree
            if op == "out":
                assert key in shadow or len(shadow) >= 16
            else:
                assert key not in shadow
        except KeyError:
            assert not device.contains(key)
    assert device.used_pages == len(shadow)
    for key, payload in shadow.items():
        assert device.contains(key)


@settings(max_examples=25, deadline=None)
@given(zombie=st.booleans(),
       ops=st.lists(st.tuples(st.sampled_from(["boot", "stop"]),
                              st.integers(1, 16), st.integers(8, 480)),
                    max_size=12))
def test_cluster_never_overcommits(zombie, ops):
    rack = Rack(["a", "b", "c"], memory_bytes=256 * MiB, buff_size=8 * MiB)
    if zombie:
        rack.make_zombie("c")
    orch = ZombieStackOrchestrator(rack, vcpu_capacity=16)
    for index, (op, vcpus, mem_mib) in enumerate(ops):
        try:
            if op == "boot":
                orch.boot_vm(VmSpec(f"vm{index}", mem_mib * MiB, vcpus=vcpus))
            elif orch.placements:
                orch.stop_vm(sorted(orch.placements)[vcpus % len(orch.placements)])
        except (AdmissionError, PlacementError):
            pass
        for server in rack.servers.values():
            assert server.hypervisor.vcpus_booked <= orch.vcpu_capacity
            assert server.free_bytes >= 0


@settings(max_examples=25, deadline=None)
@given(script=st.lists(st.sampled_from(["lend", "ext", "swap", "release"]),
                       max_size=30))
def test_controller_pool_accounting_balances(script):
    fabric = Fabric()
    controller = GlobalMemoryController(fabric.add_node("ctr"),
                                        buff_size=MiB)
    next_buffer = [1]
    granted_by_user = []

    for op in script:
        if op == "lend":
            bid = next_buffer[0]
            next_buffer[0] += 1
            controller.gs_goto_zombie("zom", [BufferDescriptor(
                buffer_id=bid, host="zom", offset=0, size_bytes=MiB,
                kind=BufferKind.ZOMBIE, rkey=bid)])
        elif op in ("ext", "swap"):
            try:
                if op == "ext":
                    got = controller.gs_alloc_ext("user", MiB)
                else:
                    got = controller.gs_alloc_swap("user", MiB)
            except ReproError:
                continue
            granted_by_user.extend(b.buffer_id for b in got)
        elif op == "release" and granted_by_user:
            controller.gs_release("user", [granted_by_user.pop()])

    total = controller.db.total_bytes()
    free = controller.db.free_bytes()
    allocated = sum(b.size_bytes for b in controller.db.all_buffers()
                    if b.allocated)
    assert total == free + allocated
    assert len(granted_by_user) == allocated // MiB


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 200),
       window=st.floats(0.1, 1.0, allow_nan=False),
       slide=st.floats(0.05, 1.0, allow_nan=False),
       seed=st.integers(0, 1000))
def test_sliding_window_covers_everything_exactly(n, window, slide, seed):
    rng = DeterministicRng(seed)
    touched = set()
    for ppn, _ in sliding_window_scan(n, rng, window_frac=window,
                                      slide_frac=slide, passes=1,
                                      hot_prob=0.0):
        assert 0 <= ppn < n
        touched.add(ppn)
    assert touched == set(range(n))
