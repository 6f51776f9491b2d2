"""Smoke test of the whole harness: ``pytest benchmarks/wall -q``.

Every workload at ``--scale 0.02`` (fixed prefix only), untraced and
traced; the ``--check`` determinism pass; and BENCHMARK.json against
the metric tables.  Not part of the tier-1 ``testpaths``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def runs():
    """Ten runs — five workloads, untraced and traced — side by side."""
    started = {
        (workload, trace): subprocess.Popen(
            RUN + ["--workload", workload, "--scale", "0.02", "--seconds",
                   "0", "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True)
        for workload in metrics.WORKLOADS for trace in (0, 1)}
    done = {}
    for key, process in started.items():
        out, _ = process.communicate(timeout=120)
        lines = out.strip().splitlines()
        done[key] = (process.returncode, json.loads(lines[-1]),
                     json.loads(lines[-2])["info"])
    return done


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_untraced_run_passes_its_checks(runs, workload):
    code, result, info = runs[workload, 0]
    assert info["problems"] == []
    assert code == 0 and result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in metrics.END_TO_END]
    for metric in metrics.END_TO_END:
        cell = result["metrics"][metric.name]
        assert cell["unit"] == metric.unit
        assert cell["value"] > 0, f"{metric.name} must never be 0"


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_traced_run_reports_every_layer(runs, workload):
    code, result, info = runs[workload, 1]
    assert info["problems"] == []
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in metrics.PER_LAYER]
    assert (HERE / "out" / f"spans-{workload}.jsonl").stat().st_size > 0


def test_each_workload_does_what_it_was_chosen_for(runs):
    """The traced shares that justify the five workloads."""
    def values(workload):
        cells = runs[workload, 1][1]["metrics"]
        layers = {name: cell["value"] for name, cell in cells.items()}
        wall = runs[workload, 1][2]["wall_s"]
        return layers, lambda *names: sum(
            layers[f"{n}.busy_s"] for n in names) / wall

    paging, share = values("ramext_paging")
    assert share("hypervisor", "memory.buffers", "memory.replacement",
                 "rdma.fabric") >= 0.5
    assert paging["rdma.rpc.calls"] == 0 and paging["hypervisor.faults"] > 0

    churn, share = values("fed_churn")
    assert share("rdma.rpc", "core.controller", "core.secondary",
                 "core.manager", "fed", "memory.frames") >= 0.5
    assert churn["hypervisor.accesses"] == 0
    assert churn["fed.borrows"] > 0 and churn["fed.recalls"] > 0

    traced, _ = values("rack_day_traced")
    assert traced["rdma.rpc.retries"] > 0
    assert traced["rdma.rpc.dedup_replays"] > 0
    assert traced["obs.spans"] > 0 and traced["obs.export_s"] > 0

    sweep, share = values("fig10_sweep")
    assert share("traces", "dc") >= 0.4

    for workload in metrics.WORKLOADS:
        layers, share = values(workload)
        on_engine = workload.startswith("rack_day")
        assert (layers["sim.events"] > 0) == on_engine
        if workload != "rack_day_traced":
            assert layers["obs.spans"] == 0
        wall = runs[workload, 1][2]["wall_s"]
        assert layers["bench.unattributed_s"] <= 0.15 * wall
        assert layers["bench.trace_overhead_ratio"] > 0


def test_check_mode_finds_sim_values_deterministic():
    done = subprocess.run(RUN + ["--check"], stdout=subprocess.PIPE,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout
    assert done.stdout.count("identical") == len(metrics.WORKLOADS)


def test_no_result_without_the_program(tmp_path):
    """Only BENCHMARK.json + paths: exit non-zero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "wall",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/wall/run.py", "--workload", "fed_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_is_derived_from_the_tables():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.benchmark_json()
    assert list(on_disk) == ["command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"]
    assert on_disk["paths"] == ["benchmarks/wall"]
    assert 1 <= on_disk["run_seconds"] <= 60


def test_metric_tables_are_well_formed():
    workloads = metrics.WORKLOADS
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert len(metrics.PER_LAYER) == 66 <= 128
    names = ([m.name for m in metrics.END_TO_END]
             + [m.name for m in metrics.PER_LAYER] + list(workloads))
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    for workload, why in workloads.items():
        assert 0 < len(why) <= 200 and "\n" not in why
    end_to_end = {m.name for m in metrics.END_TO_END}
    assert "setup_s" in end_to_end
    for metric in metrics.END_TO_END:
        assert metric.unit and metric.domain in ("host", "sim")
        assert metric.better in ("higher", "lower")
        assert 0 < metric.bound <= 0.25 and metric.definition
    for metric in metrics.PER_LAYER:
        assert metric.domain in ("host", "sim")
        assert metric.better in ("higher", "lower")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric.unit)
        # Every per-layer metric names what it is expected to move.
        assert metric.moves
        for moved, workload in metric.moves:
            assert moved in end_to_end and workload in workloads
        assert set(metric.unmoved) <= set(workloads)
