"""Every public name in the system is reached from the program itself.

Collects each public module-level function or class, and each public
method or property of a module-level class, in ``src/repro`` outside the
checkers (``lint/``, ``check/``, ``sanitize/``).  A name is *reached* when
``src/``, ``benchmarks/`` or ``examples/`` spell it as a name, an
attribute, an imported name (a package re-export declares its API) or a
string holding nothing but a dotted name (``getattr``, the span tables).
Comments and prose docstrings do not count, and neither do tests: a name
only tests call is an extension point no workload uses.

A name that stays because a tier-1 test needs it to observe or drive the
system goes on ``KEEP`` with its reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CHECKERS = ("lint", "check", "sanitize")
REFERRERS = (ROOT / "src", ROOT / "benchmarks", ROOT / "examples")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

#: Public names no program code reaches by a name token, each with the
#: reason it stays.  Keys are ``module:Name`` or ``module:Class.method``.
KEEP: Dict[str, str] = {
    "core.database:BufferDatabase.free_buffers":
        "reference scan the pool-index oracle test checks the indexes against",
    "hypervisor.kvm:Hypervisor.read_page":
        "content oracle: tests read back the bytes write_page moved",
    "rdma.fabric:MessageFaultInjector.script_rack":
        "chaos hook: the federation chaos matrix scripts inter-rack faults",
    "rdma.fabric:MessageFaultInjector.set_rack_link":
        "chaos hook: the federation chaos matrix sets inter-rack link faults",
    "rdma.fabric:Fabric.current_deadline":
        "observer of the deadline stack the exactly-once tests assert on",
    "rdma.verbs:MemoryRegion.resident_bytes":
        "observer proving the sparse backing allocates only written pages",
    "hypervisor.split_driver:SplitDriverSwap.remote_fraction":
        "observer of where the split driver's pages sit",
    "cloud.admission:AdmissionController.resize_rack":
        "scenario setter the admission tests drive a rack resize with",
    "core.events:EventLog.of_kind":
        "the fault-injection and controller tests filter the event log with it",
    "fed.lending:LendingManager.loans_from":
        "observer of a donor rack's outstanding loans in federation tests",
    "memory.buffers:RemotePageStore.store_fallback":
        "drives the local-fallback store path the page-store tests cover",
    "memory.buffers:RemotePageStore.used_slot_count":
        "observer of remote slot occupancy in the page-store tests",
    "memory.page_table:PageTable.mark_accessed":
        "drives the accessed bit the replacement-policy tests rely on",
    "hypervisor.kvm:Hypervisor.write_page":
        "content oracle: gives a page bytes so the chaos tests can check every fill",
    "acpi.states:SleepState.memory_remotely_accessible":
        "the Sz contract the state tests pin: only S0 and Sz serve RDMA",
    "acpi.platform:ServerPlatform.memory_remotely_accessible":
        "observer of the platform's NIC-to-DRAM path per sleep state",
    "acpi.devices:InfinibandCard.dma_to_memory":
        "the device tests check the NIC-to-DRAM DMA gate through it",
    "core.recovery:FaultSchedule.randomized":
        "the rack chaos tests draw replayable random fault schedules from it",
    "fed.gateway:FederationGateway.transfer":
        "GS_transfer through the gateway; the tests check it refuses cross-rack moves",
    "fed.lending:LendingManager.pump_recalls":
        "the federation chaos tests drive deferred recall retries with it",
    "fed.ring:ConsistentHashRing.preference":
        "the ring tests check the failover order starts at the home rack",
    "hypervisor.split_driver:SplitDriverSwap.repair":
        "the split-driver tests re-home fallback pages through it",
}


def _modules() -> Iterator[Tuple[str, ast.Module]]:
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[0] in CHECKERS:
            continue
        dotted = ".".join(rel.with_suffix("").parts)
        yield dotted.removesuffix(".__init__"), ast.parse(path.read_text())


def _public_defs(body, kinds):
    return [node for node in body
            if isinstance(node, kinds) and not node.name.startswith("_")]


def public_names() -> Dict[str, str]:
    """``module:qualname`` -> the bare name a reference must use."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found: Dict[str, str] = {}
    for module, tree in _modules():
        for node in _public_defs(tree.body, functions + (ast.ClassDef,)):
            found[f"{module}:{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in _public_defs(node.body, functions):
                    found[f"{module}:{node.name}.{item.name}"] = item.name
    return found


def referenced_tokens() -> Set[str]:
    tokens: Set[str] = set()
    for root in REFERRERS:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    tokens.add(node.id)
                elif isinstance(node, ast.Attribute):
                    tokens.add(node.attr)
                elif isinstance(node, ast.alias):
                    tokens.add(node.name.rpartition(".")[2])
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and DOTTED.fullmatch(node.value)):
                    tokens.update(node.value.split("."))
    return tokens


def test_every_public_name_is_reached_from_the_program():
    tokens = referenced_tokens()
    unreached = sorted(
        key for key, name in public_names().items() if name not in tokens and key not in KEEP
    )
    assert not unreached, (
        f"{len(unreached)} public names are reached from none of src/, benchmarks/ "
        f"or examples/; delete them or add each to KEEP with its reason: {unreached}"
    )


def test_every_keep_entry_names_something_that_exists():
    names = public_names()
    stale = sorted(key for key in KEEP if key not in names)
    assert not stale, f"KEEP names what no longer exists: {stale}"
