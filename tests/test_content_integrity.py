"""End-to-end data integrity: page contents through demote/fill cycles.

A page given bytes by ``write_page`` ships them through the registered
memory regions on every eviction, and the hypervisor verifies each remote
fill — catching any corruption in the store, the MR sparse backing,
re-homing or migration paths.  No flag is involved: a page moves bytes
exactly when it has some.
"""

import pytest

from repro.core.rack import Rack
from repro.errors import HypervisorError
from repro.hypervisor.vm import VmSpec
from repro.units import MiB


@pytest.fixture
def rack():
    r = Rack(["user", "dst", "zombie"], memory_bytes=128 * MiB,
             buff_size=8 * MiB)
    r.make_zombie("zombie")
    return r


def _content_vm(rack, host="user", pages_mib=16):
    hv = rack.server(host).hypervisor
    vm = rack.create_vm(host, VmSpec("cvm", pages_mib * MiB),
                        local_fraction=0.5)
    return hv, vm


def _pattern(ppn):
    return (b"page-%06d-" % ppn) * 8


class TestContentRoundTrip:
    def test_every_page_survives_thrashing(self, rack):
        hv, vm = _content_vm(rack)
        total = vm.spec.total_pages
        for ppn in range(total):
            hv.write_page(vm, ppn, _pattern(ppn))
        # Thrash: every refill verifies content against expectations.
        for rep in range(2):
            for ppn in range(total):
                assert hv.read_page(vm, ppn)[:12] == _pattern(ppn)[:12]
        assert hv.stats("cvm").remote_fills > 0

    def test_overwrites_stick(self, rack):
        hv, vm = _content_vm(rack)
        hv.write_page(vm, 0, b"first")
        # Push page 0 out by touching everything else.
        for ppn in range(1, vm.spec.total_pages):
            hv.write_page(vm, ppn, _pattern(ppn))
        hv.write_page(vm, 0, b"second")
        for ppn in range(1, vm.spec.total_pages):
            hv.read_page(vm, ppn)
        assert hv.read_page(vm, 0) == b"second"

    def test_content_survives_zombie_reclaim(self, rack):
        hv, vm = _content_vm(rack)
        for ppn in range(vm.spec.total_pages):
            hv.write_page(vm, ppn, _pattern(ppn))
        rack.wake("zombie", reclaim_bytes=128 * MiB)
        for ppn in range(vm.spec.total_pages):
            assert hv.read_page(vm, ppn)[:12] == _pattern(ppn)[:12]

    def test_content_survives_migration(self, rack):
        hv, vm = _content_vm(rack)
        for ppn in range(vm.spec.total_pages):
            hv.write_page(vm, ppn, _pattern(ppn))
        rack.migrate_vm("cvm", "user", "dst")
        dst_hv = rack.server("dst").hypervisor
        for ppn in range(vm.spec.total_pages):
            assert dst_hv.read_page(vm, ppn)[:12] == _pattern(ppn)[:12]

    def test_corruption_detected(self, rack):
        """Tampering with the remote MR is caught on the next fill."""
        hv, vm = _content_vm(rack)
        for ppn in range(vm.spec.total_pages):
            hv.write_page(vm, ppn, _pattern(ppn))
        store = hv.store_for("cvm")
        # Corrupt one demoted page directly in the serving MR *and* its
        # local mirror, simulating silent corruption.
        victim = next(p for p in range(vm.spec.total_pages)
                      if not vm.table.entry(p).present)
        key = vm.table.entry(victim).remote_slot
        buffer_id, slot = store._locations[key]
        lease_state = store._leases[buffer_id]
        node = rack.server("zombie").node
        mr = node.pd.lookup(lease_state.lease.rkey)
        mr._chunks.clear()  # wipe the backing: reads now return zeros
        with pytest.raises(HypervisorError):
            hv.read_page(vm, victim)
