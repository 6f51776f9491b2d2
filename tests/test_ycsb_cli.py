"""YCSB workload models and the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.workloads.ycsb import (YCSB_WORKLOADS, YcsbWorkload, workload_a,
                                  workload_c, workload_d, workload_e,
                                  workload_f)


class TestYcsbWorkloads:
    def test_all_six_defined(self):
        assert sorted(YCSB_WORKLOADS) == list("ABCDEF")

    def test_streams_deterministic(self):
        w = workload_a(total_pages=128)
        assert list(w.stream()) == list(w.stream())

    def test_pages_in_range(self):
        for factory in YCSB_WORKLOADS.values():
            w = factory(total_pages=64)
            for ppn, _ in w.stream():
                assert 0 <= ppn < 64

    def test_workload_c_is_read_only(self):
        w = workload_c(total_pages=128)
        assert all(not write for _, write in w.stream())

    def test_workload_a_mixes_writes(self):
        w = workload_a(total_pages=128)
        writes = sum(1 for _, wr in w.stream() if wr)
        total = w.op_count
        assert 0.35 < writes / total < 0.65

    def test_workload_f_touches_twice(self):
        w = workload_f(total_pages=128)
        accesses = list(w.stream())
        # RMW: every op yields the page twice, second time as a write.
        pairs = list(zip(accesses[::2], accesses[1::2]))
        same_page = sum(1 for (p1, _), (p2, w2) in pairs
                        if p1 == p2 and w2)
        assert same_page > len(pairs) * 0.9

    def test_workload_e_has_scan_runs(self):
        w = workload_e(total_pages=256)
        accesses = [ppn for ppn, _ in w.stream()]
        consecutive = sum(1 for a, b in zip(accesses, accesses[1:])
                          if b == (a + 1) % 256)
        assert consecutive > len(accesses) * 0.5

    def test_workload_d_prefers_latest(self):
        w = workload_d(total_pages=256)
        accesses = [ppn for ppn, _ in w.stream()]
        newest_half = sum(1 for p in accesses if p >= 64)
        assert newest_half > len(accesses) * 0.5

    def test_zipf_skew(self):
        w = workload_c(total_pages=1000)
        counts = {}
        for ppn, _ in w.stream():
            counts[ppn] = counts.get(ppn, 0) + 1
        top = sum(counts.get(p, 0) for p in range(50))
        assert top > w.op_count * 0.3  # heavy head, YCSB zipfian

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            YcsbWorkload("bad", 0, read_ratio=0.5)
        with pytest.raises(ConfigurationError):
            YcsbWorkload("bad", 10, read_ratio=1.5)


class TestCli:
    def test_parser_covers_subcommands(self):
        parser = build_parser()
        for argv in (["demo"], ["experiment", "fig4"],
                     ["trace", "x.csv"],
                     ["experiment", "fig10", "--days", "1"], ["ycsb", "A"]):
            args = parser.parse_args(argv)
            assert callable(args.fn)

    def test_demo_runs(self, capsys):
        assert main(["demo", "--memory-mib", "64", "--vm-mib", "16"]) == 0
        out = capsys.readouterr().out
        assert "Sz" in out and "faults" in out

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        out = capsys.readouterr().out
        assert "12.67" in out and "11.15" in out

    def test_experiment_fig4(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        assert "Emax" in capsys.readouterr().out

    def test_trace_generation(self, tmp_path, capsys):
        path = str(tmp_path / "trace.csv")
        assert main(["trace", path, "--servers", "20",
                     "--days", "0.5"]) == 0
        from repro.traces.google import trace_from_csv
        assert len(trace_from_csv(path)) > 0

    def test_modified_trace_flag(self, tmp_path):
        import math
        base = str(tmp_path / "base.csv")
        mod = str(tmp_path / "mod.csv")
        main(["trace", base, "--servers", "20", "--days", "0.5"])
        main(["trace", mod, "--servers", "20", "--days", "0.5",
              "--modified"])
        from repro.traces.google import trace_from_csv
        for task in trace_from_csv(mod):
            if task.cpu_request * 2 <= 0.95:
                assert math.isclose(task.mem_request,
                                    task.cpu_request * 2, abs_tol=1e-5)

    def test_ycsb_sweep(self, capsys):
        assert main(["ycsb", "c", "--pages", "256"]) == 0
        out = capsys.readouterr().out
        assert "YCSB-C" in out and "80% local" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])
