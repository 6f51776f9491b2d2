"""The RAM-Ext data path: pinned counters and no hidden Enum lookups.

A host-time change to the hit, fault, verb or Explicit SD path must leave
every simulated value where it was, so a fixed RAM-Ext workload's
counters are pinned to the last digit.  And because reading an Enum
member through its class (``PageLocation.LOCAL``) is an attribute lookup
cProfile books to the caller's own time, a bytecode scan holds the data
path's functions to module constants.
"""

import dataclasses
import dis
import enum
import importlib
import types
from pathlib import Path

import pytest

from repro.core.rack import Rack
from repro.hypervisor.vm import VmSpec
from repro.sim.rng import DeterministicRng
from repro.units import MiB
from repro.workloads.patterns import zipf_stream

# -- pinned counters ----------------------------------------------------------

#: Per policy: every ``AccessStats`` field, the fabric's (reads, writes,
#: bytes read, bytes written, busy seconds) and the store's
#: (pages loaded, pages stored, seconds).
PINNED = {
    "Mixed": (
        dict(accesses=20000, page_faults=3916, demand_allocs=1939,
             remote_fills=1977, prefetches=0, evictions=2892,
             policy_cycles=370460, time_total_s=0.026700507999995432,
             time_faults_s=0.025413787999999462),
        (1977, 2892, 8097792, 11845632, 0.01959203066666458),
        (1977, 2892, 0.019391603999997953),
    ),
    "FIFO": (
        dict(accesses=20000, page_faults=4517, demand_allocs=1939,
             remote_fills=2578, prefetches=0, evictions=3493,
             policy_cycles=251496, time_total_s=0.03229350773332843,
             time_faults_s=0.031054867733332218),
        (2578, 3493, 10559488, 14307328, 0.024379195999997008),
        (2578, 3493, 0.02417876933333038),
    ),
    "Clock": (
        dict(accesses=20000, page_faults=3970, demand_allocs=1939,
             remote_fills=2031, prefetches=0, evictions=2946,
             policy_cycles=9793280, time_total_s=0.03097644399999358,
             time_faults_s=0.029694043999999097),
        (2031, 2946, 8318976, 12066816, 0.0200221586666645),
        (2031, 2946, 0.01982173199999787),
    ),
}


@pytest.mark.parametrize("policy", sorted(PINNED))
def test_pinned_data_path_counters(policy):
    rack = Rack(["user", "zombie"], memory_bytes=64 * MiB,
                buff_size=4 * MiB, rng_seed=5)
    rack.make_zombie("zombie")
    vm = rack.create_vm("user", VmSpec("vm", 8 * MiB), local_fraction=0.5,
                        policy=policy)
    hv = rack.server("user").hypervisor
    for ppn, write in zipf_stream(vm.spec.total_pages, 20000,
                                  DeterministicRng(5), alpha=0.9,
                                  write_ratio=0.3):
        hv.access(vm, ppn, write)
    stats, fabric, store = PINNED[policy]
    assert dataclasses.asdict(hv.stats("vm")) == stats
    fs = rack.fabric.stats
    assert (fs.reads, fs.writes, fs.bytes_read, fs.bytes_written,
            fs.busy_seconds) == fabric
    page_store = hv.store_for("vm")
    assert (page_store.pages_loaded, page_store.pages_stored,
            page_store.time_spent_s) == store


# -- no Enum member read through its class on the data path ------------------

#: module → the functions (``Class.method``) a hit, a fault, a verb or an
#: Explicit SD access runs.
DATA_PATH = {
    "repro.hypervisor.kvm": (
        "Hypervisor.access", "Hypervisor._handle_fault",
        "Hypervisor._page_in", "Hypervisor._prefetch"),
    "repro.memory.page_table": (
        "PageTable.entry", "PageTable.map_local", "PageTable.demote",
        "PageTable.is_accessed"),
    "repro.memory.replacement": (
        "FifoPolicy._pick", "ClockPolicy._pick", "MixedPolicy._pick",
        "ReplacementPolicy.select_victim"),
    "repro.rdma.fabric": (
        "RdmaNode.verb", "RdmaNode.cpu_alive", "RdmaNode.memory_reachable"),
    "repro.memory.buffers": (
        "RemotePageStore.exchange", "RemotePageStore.load",
        "RemotePageStore.free", "RemotePageStore._place",
        "RemotePageStore._settle"),
    "repro.hypervisor.explicit_sd": (
        "ExplicitSdVm.access", "ExplicitSdVm._fault"),
}


def _code_objects(code, prefix=""):
    """Every code object nested in ``code``, by dotted name."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            name = prefix + const.co_name
            yield name, const
            yield from _code_objects(const, name + ".")


def _enum_reads(code, namespace):
    """``Enum.MEMBER`` reads in ``code``: a global bound to an Enum
    subclass, then an attribute load."""
    instructions = list(dis.get_instructions(code))
    return [f"{first.argval}.{second.argval}"
            for first, second in zip(instructions, instructions[1:])
            if first.opname == "LOAD_GLOBAL"
            and second.opname in ("LOAD_ATTR", "LOAD_METHOD")
            and isinstance(namespace.get(first.argval), type)
            and issubclass(namespace[first.argval], enum.Enum)]


def _module_reads(module_name):
    """Per data-path function of the module: its Enum member reads.

    The module's source is compiled afresh, so a hook wrapped around a
    method at run time (MemSan's ``verb`` and ``free``) does not hide the
    method's own bytecode.
    """
    module = importlib.import_module(module_name)
    path = Path(module.__file__)
    codes = dict(_code_objects(compile(path.read_text(), str(path), "exec")))
    found = {}
    for name in DATA_PATH[module_name]:
        assert name in codes, f"{module_name}: no function {name}"
        reads = []
        for qualname, code in codes.items():
            if qualname == name or qualname.startswith(name + "."):
                reads += _enum_reads(code, vars(module))
        found[name] = reads
    return found


@pytest.mark.parametrize("module_name", sorted(DATA_PATH))
def test_no_enum_member_read_through_its_class(module_name):
    offenders = {name: reads for name, reads in
                 _module_reads(module_name).items() if reads}
    assert offenders == {}


def test_the_scan_sees_an_enum_member_read():
    from repro.memory.page_table import PageLocation
    source = "def hit(entry):\n    return entry.location is PageLocation.LOCAL\n"
    (_, code), = _code_objects(compile(source, "<hit>", "exec"))
    assert _enum_reads(code, {"PageLocation": PageLocation}) == [
        "PageLocation.LOCAL"]
    assert _enum_reads(code, {"PageLocation": object}) == []
