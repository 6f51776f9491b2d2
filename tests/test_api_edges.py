"""Edge-path tests for public API that the bigger suites exercise only
indirectly: direct device-path validation, fabric node management, PD
bookkeeping, manager carving limits, secondary wiring variants."""

import pytest

from repro.acpi.platform import build_platform
from repro.acpi.states import SleepState
from repro.core.secondary import SecondaryController
from repro.core.controller import GlobalMemoryController
from repro.core.manager import RemoteMemoryManager
from repro.core.protocol import BufferDescriptor, BufferKind
from repro.errors import (ControllerError, MemoryRegionError,
                          QueuePairError, RdmaError)
from repro.hypervisor.vm import Vm, VmSpec
from repro.memory.frames import FrameAllocator
from repro.memory.replacement import FifoPolicy
from repro.rdma.fabric import Fabric
from repro.sim.engine import Engine
from repro.units import GiB, MiB, PAGE_SIZE


class TestServeRemoteAccessPath:
    def test_end_to_end_validation_per_state(self):
        platform = build_platform("p", memory_bytes=1 * GiB)
        assert platform.memory_remotely_accessible()  # S0
        platform.go_zombie()
        assert platform.memory_remotely_accessible()  # Sz
        platform.wake()
        platform.suspend(SleepState.S3)
        assert not platform.memory_remotely_accessible()

    def test_no_nic_board(self):
        platform = build_platform("p", with_infiniband=False)
        assert not platform.memory_remotely_accessible()

    def test_no_nic_board_cannot_go_remote_even_in_sz(self):
        platform = build_platform("p", with_infiniband=False)
        platform.go_zombie()  # Sz itself still works (domains are split)
        assert not platform.memory_remotely_accessible()


class TestFabricNodeManagement:
    def test_connect_to_unknown_remote_rejected(self):
        fabric = Fabric()
        node = fabric.add_node("a")
        with pytest.raises(RdmaError):
            node.connect_qp("missing")

    def test_deregistered_mr_unusable(self):
        fabric = Fabric()
        a = fabric.add_node("a")
        b = fabric.add_node("b")
        mr = b.register_mr(4096)
        qp = a.connect_qp("b")
        b.deregister_mr(mr.rkey)
        with pytest.raises(MemoryRegionError):
            a.rdma_read(qp, mr.rkey, 0, 1)
        with pytest.raises(MemoryRegionError):
            b.deregister_mr(mr.rkey)

    def test_destroy_unknown_qp_rejected(self):
        fabric = Fabric()
        node = fabric.add_node("a")
        with pytest.raises(QueuePairError):
            node.pd.destroy_qp(999999)


class TestManagerCarving:
    def _manager(self, frames=1024):
        fabric = Fabric()
        node = fabric.add_node("m")
        return RemoteMemoryManager("m", node, FrameAllocator(frames),
                                   buff_size=1 * MiB)

    def test_max_bytes_caps_carving(self):
        manager = self._manager(frames=1024)  # 4 MiB of frames
        descriptors = manager.carve_buffers(max_bytes=2 * MiB)
        assert len(descriptors) == 2
        assert manager.allocator.free_frames == 512

    def test_carving_stops_below_one_buffer(self):
        manager = self._manager(frames=100)  # < 1 MiB worth
        assert manager.carve_buffers() == []

    def test_reclaim_zero_is_noop(self):
        manager = self._manager()
        assert manager.reclaim(0) == 0


class TestSecondaryWiring:
    def test_transfer_of_foreign_buffer_rejected(self):
        fabric = Fabric()
        controller = GlobalMemoryController(fabric.add_node("ctr"),
                                            buff_size=MiB)
        controller.gs_goto_zombie("z", [BufferDescriptor(
            buffer_id=1, host="z", offset=0, size_bytes=MiB,
            kind=BufferKind.ZOMBIE, rkey=1)])
        controller.gs_alloc_ext("alice", MiB)
        with pytest.raises(ControllerError):
            controller.gs_transfer("bob", "carol", [1])


class TestVmGuards:
    def test_local_fraction(self):
        vm = Vm(VmSpec("v", 8 * PAGE_SIZE), 4 * PAGE_SIZE, FifoPolicy())
        assert vm.local_fraction == pytest.approx(0.5)
