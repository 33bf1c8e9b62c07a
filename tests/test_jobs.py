"""Smoke tests for the spark-submit job entrypoints (tiny configurations).

Jobs are imported as ``jobs.<name>``, as the benchmarks import them, and run
via their ``main(argv)`` — the session builder's ``getOrCreate`` reuses the
test fixture's SparkSession.
"""
import importlib

import pandas as pd
import pytest

from jobs import additive_tradeoff, l1_tradeoff, table1_complexity, table2_stats, unbalance_sweep
from repro.graphs.datasets import ALL_KEYS

from .helpers import assert_work_within_bounds


@pytest.fixture
def out_csv(tmp_path):
    return str(tmp_path / "out.csv")


class TestJobs:
    @pytest.mark.parametrize(
        "name", ["table2_stats", "table1_complexity", "additive_tradeoff", "l1_tradeoff"]
    )
    def test_unknown_dataset_refused_before_spark(self, name, monkeypatch, capsys):
        """An unknown ``--datasets`` key is a usage error that names the key
        and the known ones, raised before a Spark session is built."""
        mod = importlib.import_module(f"jobs.{name}")
        started = []
        monkeypatch.setattr(mod, "make_spark", started.append)
        with pytest.raises(SystemExit) as exc:
            mod.main(["--datasets", "BC,XX"])
        assert exc.value.code == 2
        assert not started
        err = capsys.readouterr().err
        assert "'XX'" in err and ",".join(ALL_KEYS) in err

    @pytest.mark.parametrize(
        "name, argv, bad",
        [
            ("additive_tradeoff", ["--rmax-grid", "1e-3,x"], "'x'"),
            ("additive_tradeoff", ["--delta-grid", "1e-1,-1e-2"], "'-1e-2'"),
            ("additive_tradeoff", ["--sources", "0"], "'0'"),
            ("l1_tradeoff", ["--iters-grid", "3,4.5"], "'4.5'"),
            ("l1_tradeoff", ["--iters-grid", "3,-1"], "'-1'"),
            ("l1_tradeoff", ["--eps-grid", "nan"], "'nan'"),
            ("unbalance_sweep", ["--eps-grid", "1e-1,"], "''"),
            ("unbalance_sweep", ["--n", "0"], "'0'"),
            ("table1_complexity", ["--eps", "0"], "'0'"),
            ("table1_complexity", ["--rmax", "-0.001"], "'-0.001'"),
            ("table1_complexity", ["--sources", "2.5"], "'2.5'"),
            ("l1_tradeoff", ["--seed", "-1"], "'-1'"),
            ("table1_complexity", ["--eps", "inf"], "'inf'"),
            ("additive_tradeoff", ["--delta-grid", "1e-1,inf"], "'inf'"),
        ],
    )
    def test_malformed_argument_refused_before_spark(self, name, argv, bad, monkeypatch, capsys):
        """A grid, count or tolerance the harness would refuse is a usage
        error that names the bad value, raised before a Spark session is
        built and the graphs are loaded."""
        mod = importlib.import_module(f"jobs.{name}")
        started = []
        monkeypatch.setattr(mod, "make_spark", started.append)
        with pytest.raises(SystemExit) as exc:
            mod.main(argv)
        assert exc.value.code == 2
        assert not started
        err = capsys.readouterr().err
        assert f"argument {argv[0]}" in err and bad in err

    def test_table2_stats(self, spark, out_csv, capsys):
        table2_stats.main(["--datasets", "BC", "--out", out_csv])
        df = pd.read_csv(out_csv)
        assert list(df["dataset"]) == ["BC"]
        assert "cos2_phi" in df.columns
        assert "BC" in capsys.readouterr().out

    @pytest.mark.parametrize("impl", ["batch", "sequential"])
    def test_table1_complexity(self, spark, out_csv, impl):
        table1_complexity.main(
            ["--datasets", "BC", "--eps", "0.1", "--rmax", "1e-3",
             "--sources", "1", "--impl", impl, "--out", out_csv]
        )
        df = pd.read_csv(out_csv)
        assert list(df["graph"]) == [
            "star(fig1,n=1000)", "complete_unbalanced(n=128)", "BC-lite"
        ]
        if impl == "batch":
            assert (df["measured_ratio_l1"] <= 1.05).all()
        assert_work_within_bounds(df)

    def test_additive_tradeoff(self, spark, out_csv):
        additive_tradeoff.main(
            ["--datasets", "BC", "--sources", "1",
             "--rmax-grid", "1e-3", "--delta-grid", "1e-1", "--out", out_csv]
        )
        df = pd.read_csv(out_csv)
        assert set(df["method"]) == {"EdgePush-Add", "MAPPR", "MC", "FORA", "SpeedPPR"}

    def test_l1_tradeoff(self, spark, out_csv):
        l1_tradeoff.main(
            ["--datasets", "BC", "--sources", "1",
             "--eps-grid", "1e-1", "--iters-grid", "4", "--out", out_csv]
        )
        df = pd.read_csv(out_csv)
        assert set(df["method"]) == {"EdgePush", "PowForPush", "PowerMethod"}

    def test_unbalance_sweep(self, spark, out_csv):
        unbalance_sweep.main(
            ["--n", "80", "--sources", "1",
             "--rmax-grid", "1e-3", "--eps-grid", "1e-1", "--out", out_csv]
        )
        df = pd.read_csv(out_csv)
        assert df["graph"].nunique() == 4
