"""Model-based (stateful) testing of the whole rack.

Hypothesis drives random interleavings of the rack's public operations —
Sz entry, wake+reclaim, VM creation/paging/migration/destruction — and
checks the global invariants after every step:

- the controller's byte accounting always balances;
- the secondary's mirrored state always matches the primary's;
- every server's frame accounting is conservative;
- every VM keeps paging correctly no matter what happened around it.
"""

from hypothesis import settings
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)
from hypothesis import strategies as st

from repro.acpi.states import SleepState
from repro.core.rack import Rack
from repro.errors import ReproError
from repro.hypervisor.vm import VmSpec
from repro.units import MiB
from tests.agreement import assert_standby_agrees

SERVERS = ["s0", "s1", "s2", "s3"]


class RackMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.rack = Rack(SERVERS, memory_bytes=96 * MiB, buff_size=4 * MiB)
        self.vms = {}          # name -> host
        self.counter = 0

    # -- operations ---------------------------------------------------------
    @rule(index=st.integers(0, 3))
    def make_zombie(self, index):
        server = self.rack.server(SERVERS[index])
        if server.state is SleepState.S0 and server.vm_count == 0:
            self.rack.make_zombie(server.name)

    @rule(index=st.integers(0, 3), fraction=st.sampled_from([0.25, 1.0]))
    def wake(self, index, fraction):
        server = self.rack.server(SERVERS[index])
        if server.is_zombie:
            self.rack.wake(server.name,
                           reclaim_bytes=int(server.manager.lent_bytes
                                             * fraction))

    @rule(index=st.integers(0, 3),
          mem_mib=st.sampled_from([8, 16]),
          local=st.sampled_from([0.5, 1.0]))
    def create_vm(self, index, mem_mib, local):
        server = self.rack.server(SERVERS[index])
        if server.state is not SleepState.S0:
            return
        name = f"vm{self.counter}"
        self.counter += 1
        try:
            self.rack.create_vm(server.name, VmSpec(name, mem_mib * MiB),
                                local_fraction=local)
        except ReproError:
            return  # rack genuinely full: a legal refusal
        self.vms[name] = server.name

    @rule(pick=st.integers(0, 10 ** 6), pages=st.integers(1, 64))
    def touch_pages(self, pick, pages):
        if not self.vms:
            return
        name = sorted(self.vms)[pick % len(self.vms)]
        host = self.vms[name]
        hv = self.rack.server(host).hypervisor
        vm = hv.vms[name]
        for ppn in range(min(pages, vm.spec.total_pages)):
            hv.access(vm, ppn)

    @rule(pick=st.integers(0, 10 ** 6), dst_index=st.integers(0, 3))
    def migrate_vm(self, pick, dst_index):
        if not self.vms:
            return
        name = sorted(self.vms)[pick % len(self.vms)]
        src = self.vms[name]
        dst = SERVERS[dst_index]
        dst_server = self.rack.server(dst)
        if dst == src or dst_server.state is not SleepState.S0:
            return
        vm = self.rack.server(src).hypervisor.vms[name]
        needed = vm.table.resident_pages
        if needed > dst_server.allocator.free_frames:
            return
        self.rack.migrate_vm(name, src, dst)
        self.vms[name] = dst

    @rule(pick=st.integers(0, 10 ** 6))
    def destroy_vm(self, pick):
        if not self.vms:
            return
        name = sorted(self.vms)[pick % len(self.vms)]
        host = self.vms.pop(name)
        self.rack.destroy_vm(host, name)

    @rule(delay=st.sampled_from([0.5, 2.0]))
    def advance_time(self, delay):
        self.rack.engine.advance(delay)

    # -- invariants --------------------------------------------------------
    @invariant()
    def controller_accounting_balances(self):
        if not hasattr(self, "rack"):
            return
        db = self.rack.controller.db
        allocated = sum(b.size_bytes for b in db.all_buffers()
                        if b.allocated)
        assert db.total_bytes() == db.free_bytes() + allocated

    @invariant()
    def secondary_mirror_in_sync(self):
        if hasattr(self, "rack"):
            assert_standby_agrees(self.rack)

    @invariant()
    def frame_accounting_conservative(self):
        if not hasattr(self, "rack"):
            return
        for server in self.rack.servers.values():
            allocator = server.allocator
            assert (allocator.free_frames + allocator.used_frames
                    == allocator.total_frames)
            vm_frames = sum(vm.local_frames_used
                            for vm in server.hypervisor.vms.values())
            assert vm_frames <= allocator.used_frames

    @invariant()
    def zombie_hosts_agree_with_platforms(self):
        if not hasattr(self, "rack"):
            return
        zombies = {s.name for s in self.rack.servers.values()
                   if s.is_zombie}
        assert zombies == self.rack.controller.zombie_hosts

    @invariant()
    def every_vm_still_pages(self):
        if not hasattr(self, "rack"):
            return
        for name, host in self.vms.items():
            hv = self.rack.server(host).hypervisor
            vm = hv.vms[name]
            hv.access(vm, 0)  # must never raise
            assert vm.table.resident_pages + vm.table.remote_pages \
                <= vm.spec.total_pages


RackMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None,
)
TestStatefulRack = RackMachine.TestCase
