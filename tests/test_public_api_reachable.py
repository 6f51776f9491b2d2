"""Every public name in the system is reached, and every public field read.

Collects, in ``src/repro`` outside the checkers (``lint/``, ``check/``,
``sanitize/``):

- each public module-level function, class or constant, and each public
  method or property of a module-level class.  A name is *reached* when
  ``src/`` or ``benchmarks/`` load it as a name or an attribute, import
  it, or spell it in a string holding nothing but a dotted name
  (``getattr``, the span tables).  A package ``__init__.py`` does not
  reach what it imports or lists in ``__all__``: a re-export only repeats
  a name.  Comments, prose docstrings, examples and tests do not count: a
  name only tests call is an extension point no workload uses, and an
  example shows a caller without being one.
- each public instance attribute (``self.x = ...``) and each public
  dataclass or NamedTuple field of a module-level class.  A field is
  *read* when ``src/``, ``benchmarks/``, ``examples/`` or ``tests/`` load
  it as an attribute or spell it in a dotted string.  An example or a test
  that reads a field is its observer, so fields need no keep-list.

A name that stays because a tier-1 test needs it to observe or drive the
system goes on ``KEEP`` with its reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CHECKERS = ("lint", "check", "sanitize")
PROGRAM = (ROOT / "src", ROOT / "benchmarks")
OBSERVERS = PROGRAM + (ROOT / "examples", ROOT / "tests")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

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
    "memory.buffers:RemotePageStore.store":
        "reference write the page-store tests check exchange against",
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
    "core.recovery:FaultSchedule.randomized":
        "the rack chaos tests draw replayable random fault schedules from it",
    "fed.gateway:FederationGateway.transfer":
        "GS_transfer through the gateway; the tests check it refuses cross-rack moves",
    "fed.lending:LendingManager.pump_recalls":
        "the federation chaos tests drive deferred recall retries with it",
    "hypervisor.split_driver:SplitDriverSwap.repair":
        "the split-driver tests re-home fallback pages through it",
    "dc.packing:pack_neat":
        "first-fit-decreasing Neat packing the aggregate-model tests compare against",
    "dc.packing:pack_zombiestack":
        "first-fit-decreasing ZombieStack packing the aggregate-model tests compare against",
    "dc.packing:tasks_active_at":
        "the slot demand the packing reference and its tests start from",
    "traces.google:trace_from_csv":
        "reads back and validates the CSV `python -m repro trace` writes",
    "traces.stats:compute_stats":
        "reference statistics the columnar-trace tests check a trace against",
}


def _modules() -> Iterator[Tuple[str, ast.Module]]:
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[0] in CHECKERS:
            continue
        dotted = ".".join(rel.with_suffix("").parts)
        yield dotted.removesuffix(".__init__"), ast.parse(path.read_text())


def _public(name: str) -> bool:
    return not name.startswith("_")


def _targets(node: ast.AST) -> List[ast.expr]:
    """The flattened assignment targets of ``node`` (none if it assigns nothing)."""
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        pending = [node.target]
    else:
        return []
    flat = []
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        else:
            flat.append(target)
    return flat


def _spelled(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or NamedTuple: its annotated class-body names are fields."""
    decorators = (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    return (any(_spelled(d) == "dataclass" for d in decorators)
            or any(_spelled(base) == "NamedTuple" for base in cls.bases))


def _fields(cls: ast.ClassDef) -> Iterator[str]:
    if _is_record(cls):
        for item in cls.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield item.target.id
    for node in ast.walk(cls):
        for target in _targets(node):
            if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                yield target.attr


def public_names() -> Dict[str, str]:
    """``module:qualname`` -> the bare name a reference must use."""
    found: Dict[str, str] = {}
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                if _public(node.name):
                    found[f"{module}:{node.name}"] = node.name
                if isinstance(node, ast.ClassDef) and _public(node.name):
                    for item in node.body:
                        if isinstance(item, FUNCTIONS) and _public(item.name):
                            found[f"{module}:{node.name}.{item.name}"] = item.name
            for target in _targets(node):
                if isinstance(target, ast.Name) and _public(target.id):
                    found[f"{module}:{target.id}"] = target.id
    return found


def public_fields() -> Dict[str, str]:
    """``module:Class.field`` -> the attribute name a read must use."""
    found: Dict[str, str] = {}
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _public(node.name):
                for name in _fields(node):
                    if _public(name):
                        found[f"{module}:{node.name}.{name}"] = name
    return found


def _reexports(tree: ast.Module) -> Set[int]:
    """Ids of an ``__init__.py``'s import aliases and ``__all__`` strings."""
    skipped: Set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in _targets(node)):
            skipped.update(id(child) for child in ast.walk(node))
    return skipped


def _tokens(roots, loads_only: bool) -> Set[str]:
    """Every name the files under ``roots`` use, skipping package re-exports.

    A plain name counts only when loaded, so a constant's own assignment
    does not reach it; ``loads_only`` extends that to attributes, so a
    field that is only ever written is not read.
    """
    tokens: Set[str] = set()
    for root in roots:
        for path in root.rglob("*.py"):
            tree = ast.parse(path.read_text())
            skipped = _reexports(tree) if path.name == "__init__.py" else set()
            for node in ast.walk(tree):
                if id(node) in skipped:
                    continue
                if isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Load):
                        tokens.add(node.id)
                elif isinstance(node, ast.Attribute):
                    if isinstance(node.ctx, ast.Load) or not loads_only:
                        tokens.add(node.attr)
                elif isinstance(node, ast.alias):
                    tokens.add(node.name.rpartition(".")[2])
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and DOTTED.fullmatch(node.value)):
                    tokens.update(node.value.split("."))
    return tokens


def referenced_tokens() -> Set[str]:
    return _tokens(PROGRAM, loads_only=False)


def read_tokens() -> Set[str]:
    return _tokens(OBSERVERS, loads_only=True)


def test_every_public_name_is_reached_from_the_program():
    tokens = referenced_tokens()
    unreached = sorted(
        key for key, name in public_names().items() if name not in tokens and key not in KEEP
    )
    assert not unreached, (
        f"{len(unreached)} public names are reached from neither src/ nor "
        f"benchmarks/; delete them or add each to KEEP with its reason: {unreached}"
    )


def test_every_public_field_is_read():
    tokens = read_tokens()
    unread = sorted(key for key, name in public_fields().items() if name not in tokens)
    assert not unread, (
        f"{len(unread)} public fields are written but read by none of src/, "
        f"benchmarks/, examples/ or tests/; delete them: {unread}"
    )


def test_every_keep_entry_names_something_that_exists():
    names = public_names()
    stale = sorted(key for key in KEEP if key not in names)
    assert not stale, f"KEEP names what no longer exists: {stale}"
