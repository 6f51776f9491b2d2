"""ZomBench span recorder: per-layer host time, measured from outside.

Nothing under ``src/`` knows about this module.  For one traced run it
wraps, at class level, the public entry points of every layer's
boundary classes and functions (see :func:`boundaries`), and records a
span — name, layer, start, end, parent, driver-op id — each time a call
*crosses* into a layer.  A call that stays inside the layer it came
from (``RpcClient.call`` reaching ``RpcServer.dispatch``, ``Engine.run``
calling ``Engine.step``) is not a boundary crossing and is part of the
enclosing span.

A layer's **self time** is the sum, over its spans, of the span's
duration minus the part its child spans cover.  The simulator is single
threaded, so child spans never overlap and the covered part is simply
the sum of the children's durations; re-entrant nesting (a controller
handler issuing a mirror RPC from inside an RPC dispatch) needs no
special case.  Self times of all layers, plus the driver's own time
(wall time outside every span), add up to the traced wall time.

Wall-clock reads live here and in the other ``benchmarks/wall`` files
only — ZL009/ZL013 keep them out of ``src/repro``.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Layer name for system code that belongs to none of the reported
#: layers (rack/server/federation assembly); its self time is reported
#: as ``bench.unattributed_s``.
GLUE = "glue"

# Frame slots of an open span.
_LAYER, _START, _CHILD_NS, _SID = range(4)
# Per-name aggregate slots.
CALLS, SELF_NS, TOTAL_NS, DESCENDED, DESCENDED_NS, UNITS = range(6)


class SpanRecorder:
    """Aggregates span self time per layer; keeps a sample of full spans.

    ``clock`` returns integer nanoseconds (injectable for the unit
    tests).  Self time and counts are aggregated for every span; full
    ``(id, name, layer, start, end, parent id, op)`` records are kept only for
    the first of every ``keep_every`` driver ops, so memory stays
    bounded however long the run is.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 keep_every: int = 64):
        self.clock = clock
        self.keep_every = keep_every
        self.active = False
        self.wall_ns = 0
        self.spans = 0
        self.op_id = 0
        self.layer_self_ns: Dict[str, int] = {}
        #: span name -> [calls, self ns, inclusive ns, calls that entered
        #: another layer, their inclusive ns, work units]
        self.by_name: Dict[str, List[int]] = {}
        self.records: List[tuple] = []
        self._stack: List[list] = []
        self._keep = False
        self._started_at = 0

    # -- the timed region ---------------------------------------------------
    def start(self) -> None:
        """Begin attributing time; must be called outside every span."""
        if self.active or self._stack:
            raise RuntimeError("recorder started twice or inside a span")
        self.active = True
        self._started_at = self.clock()

    def stop(self) -> None:
        if not self.active or self._stack:
            raise RuntimeError("recorder stopped while idle or inside a span")
        self.wall_ns += self.clock() - self._started_at
        self.active = False

    def next_op(self) -> None:
        """The driver is about to issue its next op."""
        self.op_id += 1
        self._keep = (self.op_id - 1) % self.keep_every == 0

    # -- wrapping -----------------------------------------------------------
    def wrap(self, fn: Callable, name: str, layer: str,
             units: Optional[Callable[[tuple], int]] = None) -> Callable:
        """``fn`` with a span around every call that enters ``layer``.

        ``units(args)`` reports how many work items one call handles
        (frames for ``alloc_many``); the default is one.
        """
        stats = self.by_name.setdefault(name, [0, 0, 0, 0, 0, 0])
        stack = self._stack
        clock = self.clock
        layer_self = self.layer_self_ns
        layer_self.setdefault(layer, 0)
        rec = self

        def span(*args, **kwargs):
            if not rec.active or (stack and stack[-1][_LAYER] == layer):
                return fn(*args, **kwargs)
            frame = [layer, 0, 0, rec.spans]
            rec.spans += 1
            stack.append(frame)
            frame[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - frame[_START]
                own = total - frame[_CHILD_NS]
                layer_self[layer] += own
                stats[CALLS] += 1
                stats[SELF_NS] += own
                stats[TOTAL_NS] += total
                if frame[_CHILD_NS]:
                    stats[DESCENDED] += 1
                    stats[DESCENDED_NS] += total
                stats[UNITS] += units(args) if units is not None else 1
                parent = None
                if stack:
                    stack[-1][_CHILD_NS] += total
                    parent = stack[-1][_SID]
                if rec._keep:
                    rec.records.append((frame[_SID], name, layer,
                                        frame[_START], end, parent,
                                        rec.op_id))

        span.zombench_original = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = fn.__doc__
        return span

    # -- results ------------------------------------------------------------
    def busy_s(self, layer: str) -> float:
        return self.layer_self_ns.get(layer, 0) / 1e9

    def attributed_ns(self) -> int:
        """Self time of every span, the glue layer included."""
        return sum(self.layer_self_ns.values())

    def driver_s(self) -> float:
        """Traced wall time spent outside every span: the driver itself."""
        return (self.wall_ns - self.attributed_ns()) / 1e9

    def calls(self, *names: str) -> int:
        return sum(self.by_name[n][CALLS] for n in names if n in self.by_name)

    def write_jsonl(self, path: str) -> int:
        """Write the kept span records; returns how many were written."""
        with open(path, "w") as handle:
            for sid, name, layer, start, end, parent, op in self.records:
                handle.write(json.dumps({
                    "id": sid, "name": name, "layer": layer,
                    "start_ns": start, "end_ns": end, "parent": parent,
                    "op": op}) + "\n")
        return len(self.records)


# -- what to wrap -------------------------------------------------------------

#: Sub-100 ns accessors on hot paths: a span around them would measure
#: the span, not the accessor.  Their time stays in the caller's layer.
DENY = frozenset({
    "Tracer.current_context", "Tracer.wire_context",
    "Tracer.push_wire_context", "Tracer.pop_wire_context",
    "Hypervisor.stats", "Hypervisor.store_for",
    "FrameAllocator.is_allocated", "Engine.pending",
    "ReplacementPolicy.forget",
})

#: (layer, module, class or None for module-level functions, names or
#: None for "every public function the class defines").
_BOUNDARIES = (
    ("sim", "repro.sim.engine", "Engine", None),
    ("sim", "repro.sim.process", "PeriodicProcess", None),
    ("rdma.fabric", "repro.rdma.fabric", "RdmaNode",
     ("rdma_read", "rdma_read_timed", "rdma_write", "rdma_write_timed")),
    ("rdma.rpc", "repro.rdma.rpc", "RpcClient", None),
    ("rdma.rpc", "repro.rdma.rpc", "RpcServer", None),
    ("core.controller", "repro.core.controller", "GlobalMemoryController",
     None),
    ("core.secondary", "repro.core.secondary", "SecondaryController", None),
    ("core.manager", "repro.core.manager", "RemoteMemoryManager", None),
    ("core.recovery", "repro.core.recovery", "RecoveryCoordinator", None),
    ("core.recovery", "repro.core.recovery", "FaultSchedule", None),
    ("hypervisor", "repro.hypervisor.kvm", "Hypervisor", None),
    ("hypervisor", "repro.hypervisor.migration", None,
     ("migrate_native", "migrate_zombiestack", "migrate_vm_zombiestack")),
    ("memory.frames", "repro.memory.frames", "FrameAllocator", None),
    ("memory.buffers", "repro.memory.buffers", "RemotePageStore", None),
    ("memory.replacement", "repro.memory.replacement", "ReplacementPolicy",
     None),
    ("acpi", "repro.acpi.platform", "ServerPlatform",
     ("suspend", "go_zombie", "wake")),
    ("acpi", "repro.acpi.ospm", "Ospm",
     ("write_sysfs_power_state", "suspend", "resume")),
    ("acpi", "repro.acpi.firmware", "Firmware", ("enter_sleep", "wake")),
    ("cloud", "repro.cloud.zombiestack", "ZombieStackOrchestrator", None),
    ("energy", "repro.energy.rack_monitor", "RackEnergyMonitor", None),
    ("traces", "repro.traces.google", None, ("generate_trace",)),
    ("traces", "repro.traces.transform", None,
     ("double_memory_demand", "scale_demand")),
    ("dc", "repro.dc.datacenter", None, ("aggregate_demand",)),
    ("dc", "repro.dc.energy_sim", None,
     ("simulate_energy", "energy_saving_comparison")),
    ("dc", "repro.dc.fleet", "FederationFleet", None),
    ("dc", "repro.dc.fleet", None, ("build_fleet",)),
    ("fed", "repro.fed.gateway", "FederationGateway", None),
    ("fed", "repro.fed.lending", "LendingManager", None),
    ("fed", "repro.fed.lending", "LendingAgent", None),
    ("fed", "repro.fed.directory", "FederationDirectory", None),
    ("obs", "repro.obs.tracing", "Tracer", None),
    ("obs", "repro.obs.metrics", "MetricsRegistry", None),
    ("obs", "repro.obs.export", None,
     ("to_chrome_trace", "to_prometheus_text", "validate_chrome_trace",
      "validate_prometheus_text")),
    (GLUE, "repro.core.rack", "Rack", None),
    (GLUE, "repro.core.server", "RackServer", None),
    (GLUE, "repro.fed.federation", "Federation", None),
)

#: Work units per call where one call handles many items.
_UNITS = {
    "FrameAllocator.alloc_many": lambda args: args[1],
    "FrameAllocator.free_many": lambda args: len(args[1]),
}

LAYERS = tuple(dict.fromkeys(row[0] for row in _BOUNDARIES if row[0] != GLUE))


def boundaries() -> Iterator[Tuple[str, object, str, str]]:
    """Every ``(layer, owner, attribute, span name)`` to wrap.

    ``owner`` is the class, or the module for module-level functions.
    Only plain functions a class defines itself are taken, which leaves
    out properties, inherited methods, and ``_private`` helpers.
    """
    for layer, module_name, class_name, names in _BOUNDARIES:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        prefix = "" if class_name is None else f"{class_name}."
        if names is None:
            names = [n for n, v in vars(owner).items()
                     if isinstance(v, types.FunctionType)
                     and not n.startswith("_")]
        for attr in names:
            if prefix + attr not in DENY:
                yield layer, owner, attr, prefix + attr


@contextmanager
def instrumented(recorder: SpanRecorder):
    """Wrap every layer boundary for the duration of the block.

    Install *before* building racks: RPC handlers are registered as
    bound methods at construction time, so a controller built earlier
    would keep serving through the unwrapped functions.  Every patched
    attribute is restored on exit, whatever the block raised.
    """
    patched: List[Tuple[object, str, object]] = []
    try:
        for layer, owner, attr, name in boundaries():
            original = vars(owner)[attr]
            if is_wrapped(original):
                raise RuntimeError(f"{name} is already instrumented")
            setattr(owner, attr, recorder.wrap(original, name, layer,
                                               _UNITS.get(name)))
            patched.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def is_wrapped(fn: object) -> bool:
    return hasattr(fn, "zombench_original")


def assert_uninstrumented() -> None:
    """Refuse to take an end-to-end number through a wrapper."""
    wrapped = [name for _, owner, attr, name in boundaries()
               if is_wrapped(vars(owner)[attr])]
    if wrapped:
        raise RuntimeError(
            f"untraced run would go through span wrappers: {wrapped[:5]}")
