#!/usr/bin/env python3
"""A ZombieStack placement and consolidation cycle on a live rack.

Two things the cloud layer (Section 5) adds to OpenStack, shown on a
:class:`~repro.core.rack.Rack` driven by the
:class:`~repro.cloud.zombiestack.ZombieStackOrchestrator`:

1. Relaxed Nova placement.  Full-booking placement (``local_threshold=1.0``)
   refuses a VM larger than any host's free RAM; the default 0.5 threshold
   places it, with the part that does not fit locally backed by a zombie's
   memory.
2. Neat-style consolidation.  After a burst ends, one ``consolidate()``
   cycle live-migrates the VMs off underloaded hosts (the target needs room
   only for each VM's resident pages) and parks the emptied hosts in Sz.

Run:  python examples/consolidation_cycle.py
"""

from repro.cloud.zombiestack import ZombieStackOrchestrator
from repro.core.rack import Rack
from repro.errors import PlacementError
from repro.hypervisor.vm import VmSpec
from repro.units import MiB

HOSTS = [f"host-{i}" for i in range(4)]


def build_rack() -> Rack:
    return Rack(HOSTS, memory_bytes=256 * MiB, buff_size=8 * MiB)


def show(rack: Rack, title: str) -> None:
    print(f"\n{title}")
    for name in HOSTS:
        server = rack.server(name)
        vms = ", ".join(sorted(server.hypervisor.vms)) or "-"
        print(f"  {name}: {server.state.value:<3} "
              f"vcpus={server.hypervisor.vcpus_booked:>2} "
              f"free={server.free_bytes // MiB:>3} MiB vms=[{vms}]")
    print(f"  remote pool free: {rack.pool_summary()['free_bytes'] // MiB} MiB")


def placement() -> None:
    monster = VmSpec("monster", 320 * MiB, vcpus=8)
    rack = build_rack()
    print(f"=== Placing a {monster.memory_bytes // MiB} MiB VM (each host "
          f"has {rack.server('host-0').free_bytes // MiB} MiB free, host-3 "
          f"is a zombie) ===")
    rack.make_zombie("host-3")
    try:
        ZombieStackOrchestrator(rack, local_threshold=1.0).boot_vm(monster)
    except PlacementError as exc:
        print(f"full-booking Nova (local_threshold=1.0): refused: {exc}")

    rack = build_rack()
    rack.make_zombie("host-3")
    orch = ZombieStackOrchestrator(rack)
    vm = orch.boot_vm(monster)
    remote_mib = monster.memory_bytes * (1 - vm.local_fraction) / MiB
    lenders = sorted(host for host, count
                     in rack.controller.db.allocated_count_by_host().items()
                     if count)
    print(f"ZombieStack Nova (local_threshold=0.5): placed on "
          f"{orch.placements['monster']}, {vm.local_fraction:.0%} local, "
          f"{remote_mib:.0f} MiB remote on {lenders}")


def consolidation() -> None:
    print("\n=== One consolidation cycle after a burst ===")
    rack = build_rack()
    orch = ZombieStackOrchestrator(rack, vcpu_capacity=32,
                                   underload_vcpu_fraction=0.4)
    # Stacking placement fills the most-booked host first; the two bursts
    # push the small VMs onto hosts of their own.
    for name, vcpus, mem_mib in (("web", 24, 64), ("burst-1", 28, 32),
                                 ("cache", 4, 128), ("burst-2", 28, 32),
                                 ("logger", 2, 16)):
        vm = orch.boot_vm(VmSpec(name, mem_mib * MiB, vcpus=vcpus))
        hv = rack.server(orch.placements[name]).hypervisor
        for ppn in range(0, vm.spec.total_pages, 2):
            hv.access(vm, ppn)  # give the VM resident state to migrate
    for name in ("burst-1", "burst-2"):
        orch.stop_vm(name)
    show(rack, "after the burst:")
    underloaded = [s.name for s in orch.underloaded_servers()]
    print(f"  underloaded (< {orch.underload_vcpu_fraction:.0%} of "
          f"{orch.vcpu_capacity} vCPUs): {underloaded}")

    report = orch.consolidate()
    show(rack, "after consolidate():")
    print(f"  migrations={report.migrations} parked in Sz={report.new_zombies} "
          f"then demoted to S3={report.demoted_to_s3}")


def main() -> None:
    placement()
    consolidation()


if __name__ == "__main__":
    main()
