"""CLI experiment subcommands (the fast ones, and a small fig10) and the
report path."""

import re

import pytest

from repro.cli import main


class TestExperimentSubcommands:
    def test_fig1(self, capsys):
        assert main(["experiment", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "100" in out  # both axes reach 100 %

    def test_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "2016" in capsys.readouterr().out

    def test_fig3(self, capsys):
        assert main(["experiment", "fig3"]) == 0
        assert "2005" in capsys.readouterr().out

    def test_fig9(self, capsys):
        assert main(["experiment", "fig9"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines()
                if re.match(r"\s+\d+%\s", line)]
        assert len(rows) == 4  # four WSS ratios

    def test_energy_small(self, capsys):
        assert main(["experiment", "fig10", "--servers", "60",
                     "--days", "1"]) == 0
        out = capsys.readouterr().out
        assert "original traces" in out and "ZombieStack" in out

    def test_servers_and_days_reach_fig10_only(self, capsys):
        assert main(["experiment", "fig1", "--servers", "60"]) == 2
        assert main(["experiment", "fig2", "--days", "1"]) == 2
        assert "fig10 only" in capsys.readouterr().err

    def test_report_small(self, tmp_path, capsys, monkeypatch):
        import repro.analysis.report as report_module
        monkeypatch.setattr(
            report_module, "generate_report",
            lambda quick: "# stub report\n",
        )
        path = str(tmp_path / "r.md")
        assert main(["report", path]) == 0
        with open(path) as handle:
            assert handle.read().startswith("# stub")


class TestRngDeterminismHelpers:
    def test_choice_and_shuffle_deterministic(self):
        from repro.sim.rng import DeterministicRng
        a, b = DeterministicRng(4), DeterministicRng(4)
        seq_a, seq_b = list(range(20)), list(range(20))
        a.shuffle(seq_a)
        b.shuffle(seq_b)
        assert seq_a == seq_b
        assert a.choice(seq_a) == b.choice(seq_b)

    def test_distribution_passthroughs(self):
        from repro.sim.rng import DeterministicRng
        rng = DeterministicRng(4)
        assert 0.0 <= rng.uniform(0.0, 1.0) <= 1.0
        assert 1 <= rng.randint(1, 5) <= 5
        assert rng.expovariate(1.0) >= 0.0
        samples = [rng.gauss(10.0, 0.1) for _ in range(100)]
        assert 9.5 < sum(samples) / 100 < 10.5


class TestQpTransitionMatrix:
    def test_full_legal_matrix(self):
        from repro.errors import QueuePairError
        from repro.rdma.verbs import QpState, QueuePair, _QP_TRANSITIONS
        for source, targets in _QP_TRANSITIONS.items():
            for target in QpState:
                qp = QueuePair("a", "b")
                qp.state = source
                if target in targets:
                    qp.modify(target)
                    assert qp.state is target
                else:
                    with pytest.raises(QueuePairError):
                        qp.modify(target)

    def test_reconnect_after_destroy(self):
        from repro.rdma.verbs import QpState, QueuePair
        qp = QueuePair("a", "b")
        qp.connect()
        qp.destroy()
        qp.connect()
        assert qp.state is QpState.RTS
