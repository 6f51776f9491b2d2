"""Experiment harnesses and small-scale experiment smoke checks.

Full-scale experiment assertions live in the benchmarks; here every
experiment runs at a reduced size to verify wiring and the headline shapes.
"""

import math

import pytest

from repro.analysis.experiments import (micro_reserved_pages,
                                        migration_comparison,
                                        ram_ext_penalty_table,
                                        replacement_policy_comparison,
                                        swap_technology_table,
                                        sz_energy_table)
from repro.analysis.figures import aws_memory_cpu_ratio, server_capacity_ratio
from repro.acpi.states import SleepState
from repro.analysis.harness import ExplicitSdHarness, RamExtHarness
from repro.errors import ConfigurationError, QueuePairError, RdmaError
from repro.memory.page_table import PageLocation
from repro.rdma.verbs import QpState
from repro.workloads.driver import WorkloadResult
from repro.workloads.macro import DataCaching
from repro.workloads.microbench import MicroBenchmark

TINY_MICRO = MicroBenchmark(wss_pages=256, passes=6)
TINY_DC = DataCaching(wss_pages=256)
FRACS = (0.4, 0.6)


class TestHarnesses:
    def test_ram_ext_harness_runs(self):
        harness = RamExtHarness(vm_pages=300, local_fraction=0.5)
        result = harness.run(TINY_MICRO.stream(), TINY_MICRO.compute_s)
        assert result.accesses > 0
        assert harness.stats.page_faults > 0

    def test_fully_local_harness(self):
        harness = RamExtHarness(vm_pages=300, local_fraction=1.0)
        result = harness.run(TINY_MICRO.stream(), TINY_MICRO.compute_s)
        assert harness.stats.evictions == 0

    def test_explicit_sd_harness_devices(self):
        for device in ("remote-ram", "local-ssd", "local-hdd"):
            harness = ExplicitSdHarness(vm_pages=128, local_fraction=0.5,
                                        device=device)
            result = harness.run(iter([(0, False), (1, True)]), 1e-6)
            assert result.accesses == 2

    def test_unknown_device_rejected(self):
        with pytest.raises(ConfigurationError):
            ExplicitSdHarness(vm_pages=64, local_fraction=0.5,
                              device="tape")

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            RamExtHarness(vm_pages=64, local_fraction=0.0)


#: Table 2's remote-RAM Explicit SD cells (the v2-ESD column) at the
#: reduced scale.  The values were recorded on the fixed-capacity
#: remote-RAM device the split driver replaced: the two agree bit for bit.
PINNED_ESD = {
    ("micro", 0.4): WorkloadResult(6035, 0.049306644399995284,
                                   0.04840139439999528,
                                   0.0009052500000000001),
    ("micro", 0.6): WorkloadResult(6035, 0.002550693199999856,
                                   0.0016454431999998558,
                                   0.0009052500000000001),
    ("dc", 0.4): WorkloadResult(1536, 0.0061656106666666405,
                                0.0015576106666666404, 0.004608),
    ("dc", 0.6): WorkloadResult(1536, 0.0053558581333333355,
                                0.000747858133333335, 0.004608),
}


class TestExplicitSdColumn:
    """The remote-RAM Explicit SD runs on the split driver, bit for bit."""

    @pytest.mark.parametrize("name,fraction", sorted(PINNED_ESD))
    def test_remote_ram_cell_is_pinned(self, name, fraction):
        workload, vm_pages = {
            "micro": (TINY_MICRO, micro_reserved_pages(TINY_MICRO)),
            "dc": (TINY_DC, TINY_DC.wss_pages),
        }[name]
        harness = ExplicitSdHarness(vm_pages, fraction, device="remote-ram")
        result = harness.run(workload.stream(), workload.compute_s)
        assert result == PINNED_ESD[name, fraction]
        assert harness.device.store.fallback_count == 0


def _harness_with_remote_page():
    """A timing-only RAM Ext harness after one pass over its VM; returns
    the harness and a page that now lives remotely as a zero page."""
    harness = RamExtHarness(vm_pages=300, local_fraction=0.5)
    for ppn in range(harness.vm.spec.total_pages):
        harness.hypervisor.access(harness.vm, ppn)
    ppn = next(p for p in range(harness.vm.spec.total_pages)
               if harness.vm.table.entry(p).location is PageLocation.REMOTE)
    return harness, ppn


class TestHarnessVerbGating:
    """The harness's zero pages pay the full verb, refusals included."""

    def test_zero_page_load_from_suspended_initiator_is_refused(self):
        harness, ppn = _harness_with_remote_page()
        harness.rack.server("user").platform.suspend(SleepState.S3)
        with pytest.raises(RdmaError, match="suspended"):
            harness.hypervisor.access(harness.vm, ppn)

    def test_zero_page_load_on_a_reset_queue_pair_is_refused(self):
        harness, ppn = _harness_with_remote_page()
        store = harness.hypervisor.store_for("bench-vm")
        for state in store._leases.values():
            state.qp.modify(QpState.RESET)
        with pytest.raises(QueuePairError):
            harness.hypervisor.access(harness.vm, ppn)


class TestExperimentShapes:
    def test_fig8_policy_comparison_structure(self):
        data = replacement_policy_comparison(micro=TINY_MICRO,
                                             fractions=FRACS)
        assert set(data) == {"FIFO", "Clock", "Mixed"}
        for rows in data.values():
            assert set(rows) == set(FRACS)
            for cell in rows.values():
                assert cell["exec_s"] > 0
        # Clock pays the most cycles per fault, FIFO the least.
        for frac in FRACS:
            assert (data["Clock"][frac]["cycles_per_fault"]
                    > data["FIFO"][frac]["cycles_per_fault"])

    def test_table1_penalty_monotone_in_local_memory(self):
        table = ram_ext_penalty_table(
            workloads=[("micro", TINY_MICRO),
                       ("dc", DataCaching(wss_pages=256))],
            fractions=(0.4, 0.8),
        )
        for row in table.values():
            assert row[0.4] >= row[0.8] - 1.0  # small noise tolerance

    def test_table2_device_ordering(self):
        table = swap_technology_table(
            workloads=[("dc", DataCaching(wss_pages=256))],
            fractions=(0.4,),
        )
        cells = table["dc"][0.4]
        assert cells["v1-RE"] <= cells["v2-ESD"] + 1.0
        ordered = [cells["v2-ESD"], cells["v2-LFSD"], cells["v2-LSSD"]]
        finite = [c for c in ordered if not math.isinf(c)]
        assert finite == sorted(finite)

    def test_fig9_migration_shape(self):
        rows = migration_comparison(vm_pages=500_000,
                                    wss_ratios=(0.2, 0.8))
        for row in rows:
            assert row["zombiestack_s"] < row["native_s"]
        # ZombieStack grows with WSS; native stays roughly flat.
        assert rows[1]["zombiestack_s"] > rows[0]["zombiestack_s"]
        assert rows[1]["native_s"] < rows[0]["native_s"] * 1.5

    def test_table3_values(self):
        table = sz_energy_table()
        assert table["HP"]["Sz"] == pytest.approx(12.67, abs=0.01)
        assert table["Dell"]["Sz"] == pytest.approx(11.15, abs=0.01)
        assert table["HP"]["S0WIBOn"] == pytest.approx(53.84, abs=0.01)


class TestMotivationFigures:
    def test_fig2_ratio_grows_over_the_decade(self):
        series = aws_memory_cpu_ratio()
        early = [r for y, r in series if y <= 2008]
        late = [r for y, r in series if y >= 2014]
        assert max(late) > 2 * (sum(early) / len(early))

    def test_fig3_ratio_drops_30pct_every_two_years(self):
        series = dict(server_capacity_ratio(2005, 2013))
        assert series[2005] == 1.0
        assert series[2007] == pytest.approx(0.7, abs=0.01)
        assert series[2013] < 0.3

    def test_fig3_invalid_range(self):
        with pytest.raises(ValueError):
            server_capacity_ratio(2010, 2005)
