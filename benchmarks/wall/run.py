#!/usr/bin/env python3
"""ZomBench: host-time and sim-time numbers for ZombieStack-in-Python.

    python3 benchmarks/wall/run.py                       # all workloads
    python3 benchmarks/wall/run.py --workload fed_churn --seed 7 \
            --seconds 10 --trace 0                       # one, as the pipeline runs it
    python3 benchmarks/wall/run.py --trace               # per-layer tables
    python3 benchmarks/wall/run.py --check               # determinism + invariants

One run is one workload in one fresh process (the buffer-id and rkey
counters are process-global, and ``ru_maxrss`` never goes down).  With
``--workload`` this process is that run; without it, each workload is
spawned as a child.  The last line of a run's standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it (``{"info": ...}``) carries everything else a human or
``--check`` wants: sample counts, the calibration loop, the noisy flag,
and every sim-domain value.

The exit code is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
#: Builds of the system per run; ``setup_s`` reports their median.
SETUPS = 3

sys.path.insert(0, str(HERE))
import calib  # noqa: E402
KERNEL = calib.Kernel()

_slice_before_import = KERNEL.speed()
_import_started = time.perf_counter_ns()
sys.path.insert(0, str(HERE.parents[1] / "src"))
import layers  # noqa: E402
import spans  # noqa: E402
from metrics import END_TO_END, PER_LAYER, RUN_SECONDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from repro.errors import ReproError  # noqa: E402
#: Calibrated seconds to import every ``repro`` layer the harness drives.
IMPORT_S = calib.calibrated_s(time.perf_counter_ns() - _import_started,
                              _slice_before_import, KERNEL.speed())


class OpMeter:
    """Counts driver ops and failures; one latency sample per timed call."""

    def __init__(self, recorder: Optional[spans.SpanRecorder] = None):
        self.recorder = recorder
        self.ops = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Host microseconds per op, one entry per timed call.
        self.samples = array("d")

    def _timed(self, fn, args, kwargs, counted: bool):
        if self.recorder is not None:
            self.recorder.next_op()
        started = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except ReproError as exc:
            # An op that raises to the driver is a failed op, not a
            # harness error; anything else is a bug and propagates.
            self.ops += 1
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        elapsed_us = (time.perf_counter_ns() - started) / 1e3
        ops = result if counted else 1
        self.ops += ops
        self.samples.append(elapsed_us / ops)
        return result

    def op(self, fn, *args, **kwargs):
        """One driver op; returns what ``fn`` returned (None if it raised)."""
        return self._timed(fn, args, kwargs, counted=False)

    def batch(self, fn, *args, **kwargs) -> None:
        """Many ops under one sample; ``fn`` returns how many it did."""
        self._timed(fn, args, kwargs, counted=True)


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _window(wl, meter: OpMeter, index: int) -> int:
    """Drive window ``index``; returns its wall time in nanoseconds."""
    first = index * wl.window_chunks
    started = time.perf_counter_ns()
    for chunk in range(first, first + wl.window_chunks):
        wl.chunk(meter, chunk)
    return time.perf_counter_ns() - started


def _prefix(wl, meter: OpMeter) -> None:
    """Drive the fixed prefix with no calibration slices in between."""
    for index in range(wl.prefix_windows):
        _window(wl, meter, index)


def _noisy(slices: List[float]) -> bool:
    """Did the calibration kernel's speed move by more than 10 %?"""
    return max(slices) > 1.10 * min(slices)


def _finish(wl, meter: OpMeter, problems: List[str]) -> List[str]:
    """Drain and check; failed ops are counted, not listed, here."""
    try:
        return problems + wl.finish(meter.ops)
    except ReproError as exc:
        return problems + [f"drain raised {type(exc).__name__}: {exc}"]


def _sim_values(wl, sim_s: float, ops: int) -> Dict[str, float]:
    values = {"sim_us_per_op": sim_s * 1e6 / ops,
              "energy_saving_pct": wl.energy_saving_pct(),
              "prefix_ops": ops}
    values.update(layers.public_counters(wl.world()))
    return values


def run_untraced(name: str, seed: int, scale: float, seconds: float):
    """End-to-end metrics, taken with no instrumentation installed.

    Host times are in calibrated seconds (see calib.py): every build
    and every window is bracketed by two slices of the calibration
    kernel.  ``ops_per_s`` is the median of the windows' rates; each
    window is one whole cycle of the workload, so they are comparable.
    """
    spans.assert_uninstrumented()
    wl = WORKLOADS[name](seed, scale)
    started = time.perf_counter()
    wl.make_inputs()
    input_s = time.perf_counter() - started
    builds = []
    inputs = dict(vars(wl))
    # Three builds when measuring, one for a check-only run.
    for _ in range(SETUPS if seconds else 1):
        # Drop the previous build first: two live at once would double
        # peak_rss_mib.
        vars(wl).clear()
        vars(wl).update(inputs)
        gc.collect()
        before = KERNEL.speed()
        started = time.perf_counter_ns()
        wl.setup()
        wall_ns = time.perf_counter_ns() - started
        builds.append(calib.calibrated_s(wall_ns, before, KERNEL.speed()))
    gc.collect()

    meter = OpMeter()
    sim_before = wl.sim_seconds()
    rates, wall_ns, slices = [], 0, []
    problems: List[str] = []
    sim: Dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    while len(rates) < wl.prefix_windows or time.perf_counter() < deadline:
        # Collect what the last window dropped, then freeze what it left:
        # inside a window the cyclic collector only ever looks at that
        # window's own objects.  Left alone, its full passes (hundreds
        # of ms on a 300 MiB federation whose journals keep growing)
        # land on windows at random and grow with the run's length.
        gc.collect()
        gc.freeze()
        before = slices[-1] if slices else KERNEL.speed()
        ops, first_sample = meter.ops, len(meter.samples)
        window_ns = _window(wl, meter, len(rates))
        slices.append(KERNEL.speed())
        wall_ns += window_ns
        factor = calib.calibrated_s(1e9, before, slices[-1])
        rates.append((meter.ops - ops) / (window_ns / 1e9 * factor))
        for i in range(first_sample, len(meter.samples)):
            meter.samples[i] *= factor
        if len(rates) == wl.prefix_windows:
            # Off the clock: sim-domain readings and whole-trace checks.
            paused = time.perf_counter()
            sim = _sim_values(wl, wl.sim_seconds() - sim_before, meter.ops)
            problems = wl.at_prefix()
            deadline += time.perf_counter() - paused
            slices.append(KERNEL.speed())
    gc.unfreeze()

    problems = _finish(wl, meter, problems)
    ordered = sorted(meter.samples)
    values = {
        "setup_s": IMPORT_S + statistics.median(builds),
        "ops_per_s": statistics.median(rates),
        "op_p50_us": percentile(ordered, 50),
        "op_p99_us": percentile(ordered, 99),
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_us_per_op": sim["sim_us_per_op"],
        "energy_saving_pct": sim["energy_saving_pct"],
    }
    info = {
        "workload": name, "seed": seed, "scale": scale, "traced": False,
        "op_unit": wl.op_unit, "samples": len(ordered),
        "windows": len(rates), "wall_s": wall_ns / 1e9,
        "uncalibrated_ops_per_s": meter.ops / (wall_ns / 1e9),
        "import_s": IMPORT_S, "input_s": input_s, "build_s": builds,
        "calib_ms": [slices[0] / 1e6, slices[-1] / 1e6],
        "noisy": _noisy(slices),
        "problems": problems, "op_errors": meter.errors, "sim": sim,
    }
    metrics = {m.name: {"value": values[m.name], "unit": m.unit}
               for m in END_TO_END}
    return metrics, meter, info


def run_traced(name: str, seed: int, scale: float):
    """Per-layer metrics over the fixed prefix, span wrappers installed.

    The same prefix is first driven untraced in this process, so the
    tracing overhead is a ratio over identical work.  Times here are
    plain host seconds: shares of one run, not rates to compare.
    """
    ref = WORKLOADS[name](seed, scale)
    ref.make_inputs()
    ref.setup()
    ref_meter = OpMeter()
    started = time.perf_counter()
    _prefix(ref, ref_meter)
    untraced_s_per_op = (time.perf_counter() - started) / ref_meter.ops
    del ref
    gc.collect()

    recorder = spans.SpanRecorder()
    slice_before = KERNEL.speed()
    with spans.instrumented(recorder):
        wl = WORKLOADS[name](seed, scale)
        wl.make_inputs()
        wl.setup()
        before = layers.public_counters(wl.world())
        meter = OpMeter(recorder)
        recorder.start()
        _prefix(wl, meter)
        recorder.stop()
        after = layers.public_counters(wl.world())
        problems = _finish(wl, meter, wl.at_prefix())
    slice_after = KERNEL.speed()
    # obs.series is a level, everything else accumulates.
    counts = {key: value if key == "obs.series"
              else value - before.get(key, 0)
              for key, value in after.items()}
    values = layers.per_layer_metrics(
        recorder, counts, export_s=wl.export_s,
        untraced_s_per_op=untraced_s_per_op, traced_ops=meter.ops)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    kept = recorder.write_jsonl(str(out_dir / f"spans-{name}.jsonl"))
    info = {
        "workload": name, "seed": seed, "scale": scale, "traced": True,
        "op_unit": wl.op_unit, "wall_s": recorder.wall_ns / 1e9,
        "spans_kept": kept,
        "calib_ms": [slice_before / 1e6, slice_after / 1e6],
        "noisy": _noisy([slice_before, slice_after]),
        "problems": problems, "op_errors": meter.errors,
    }
    metrics = {m.name: {"value": values[m.name], "unit": m.unit}
               for m in PER_LAYER}
    return metrics, meter, info


def _print_run(metrics: dict, meter: OpMeter, info: dict) -> None:
    domains = {m.name: m.domain for m in END_TO_END + PER_LAYER}
    print(f"== {info['workload']}  seed={info['seed']} scale={info['scale']}"
          f"  {'traced' if info['traced'] else 'untraced'}"
          f"  op = one {info['op_unit']}")
    if info["traced"]:
        wall = info["wall_s"]
        overhead = metrics["bench.trace_overhead_ratio"]["value"]
        print(f"   traced wall {wall:.3f} s; bench.trace_overhead_ratio "
              f"{overhead:.2f}x untraced — shares below are of traced time")
    for name, cell in metrics.items():
        share = ""
        if (info["traced"] and domains[name] == "host"
                and name.endswith(("busy_s", "driver_s", "unattributed_s"))):
            share = f"  {100 * cell['value'] / info['wall_s']:5.1f} %"
        print(f"   {name:38s} {cell['value']:16.6g} {cell['unit']:6s}"
              f" [{domains[name]}]{share}")
    print(f"   ops_attempted {meter.ops}  ops_failed {meter.failed}"
          f"  samples {len(meter.samples)}"
          f"  windows {info.get('windows', '-')}"
          f"  calib_ms {info['calib_ms'][0]:.2f} -> {info['calib_ms'][1]:.2f}"
          f"{'  NOISY' if info['noisy'] else ''}")
    for error in info["op_errors"]:
        print(f"   OP FAILED: {error}")
    for problem in info["problems"]:
        print(f"   CHECK FAILED: {problem}")


def run_one(args) -> int:
    if args.trace:
        metrics, meter, info = run_traced(args.workload, args.seed,
                                          args.scale)
    else:
        metrics, meter, info = run_untraced(args.workload, args.seed,
                                            args.scale, args.seconds)
    _print_run(metrics, meter, info)
    correct = not info["problems"]
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": meter.ops,
                      "failed": meter.failed, "metrics": metrics}))
    return 0 if correct else 1


# -- all workloads, each in a child process -----------------------------------

def _spawn(workload: str, seed: int, seconds: float, scale: float,
           trace: int) -> subprocess.Popen:
    """Start one workload in a fresh process."""
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--scale",
         str(scale), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)


def _reap(child: subprocess.Popen, echo: bool):
    """Wait for a child; returns (exit code, result, info)."""
    try:
        out, _ = child.communicate(timeout=600)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        return 1, None, None
    lines = out.strip().splitlines()
    if echo:
        print("\n".join(lines[:-2]))
    if len(lines) < 2 or not lines[-1].startswith("{"):
        return child.returncode or 1, None, None
    return (child.returncode, json.loads(lines[-1]),
            json.loads(lines[-2])["info"])


def run_all(args) -> int:
    """Every workload in turn, one process at a time."""
    worst = 0
    for name in WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            code, _, _ = _reap(_spawn(name, args.seed, args.seconds,
                                      args.scale, trace), echo=True)
            worst = max(worst, code)
    return worst


def run_check(args) -> int:
    """Determinism: sim-domain values repeat exactly; invariants hold.

    Two runs of seed 7 and one of seed 19 per workload, on the fixed
    prefix at scale 0.05.  Nothing is timed, so the three run side by
    side.
    """
    failures = 0
    for name in WORKLOADS:
        children = [_spawn(name, seed, 0, 0.05, 0) for seed in (7, 7, 19)]
        runs = [_reap(child, echo=False) for child in children]
        for (code, result, info), seed in zip(runs, (7, 7, 19)):
            if code or not result["correct"] or result["failed"]:
                failures += 1
                print(f"{name}: seed {seed}: check failed: "
                      f"{info['problems'] if info else 'no result'}")
        first, second = runs[0][2], runs[1][2]
        if not first or not second:
            continue
        drift = {key: (value, second["sim"].get(key))
                 for key, value in first["sim"].items()
                 if second["sim"].get(key) != value}
        if drift or first["sim"].keys() != second["sim"].keys():
            failures += 1
            print(f"{name}: sim-domain values differ between two runs of "
                  f"seed 7: {drift}")
        else:
            print(f"{name}: {len(first['sim'])} sim-domain values identical "
                  "across two runs of seed 7; invariants hold on seed 19")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="time budget of the untraced timed region; "
                        "0 = the fixed prefix only")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="size of the fixed prefix")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 = per-layer metrics from a traced run")
    parser.add_argument("--check", action="store_true",
                        help="determinism and invariant check at scale 0.05")
    args = parser.parse_args(argv)
    if args.check:
        return run_check(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
