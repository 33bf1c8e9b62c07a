"""Smoke tests for the spark-submit job entrypoints (tiny configurations).

Jobs are imported by file path and run via their ``main(argv)`` — the
session builder's ``getOrCreate`` reuses the test fixture's SparkSession.
"""
import importlib.util
import sys
from pathlib import Path

import pandas as pd
import pytest

from repro.graphs.datasets import ALL_KEYS

from .helpers import assert_work_within_bounds

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def _load(name: str):
    sys.path.insert(0, str(JOBS))
    spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
        mod = _load(name)
        started = []
        monkeypatch.setattr(mod, "make_spark", started.append)
        with pytest.raises(SystemExit) as exc:
            mod.main(["--datasets", "BC,XX"])
        assert exc.value.code == 2
        assert not started
        err = capsys.readouterr().err
        assert "'XX'" in err and ",".join(ALL_KEYS) in err

    def test_table2_stats(self, spark, out_csv, capsys):
        _load("table2_stats").main(["--datasets", "BC", "--out", out_csv])
        df = pd.read_csv(out_csv)
        assert list(df["dataset"]) == ["BC"]
        assert "cos2_phi" in df.columns
        assert "BC" in capsys.readouterr().out

    @pytest.mark.parametrize("impl", ["batch", "sequential"])
    def test_table1_complexity(self, spark, out_csv, impl):
        _load("table1_complexity").main(
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
        _load("additive_tradeoff").main(
            ["--datasets", "BC", "--sources", "1",
             "--rmax-grid", "1e-3", "--delta-grid", "1e-1", "--out", out_csv]
        )
        df = pd.read_csv(out_csv)
        assert set(df["method"]) == {"EdgePush-Add", "MAPPR", "MC", "FORA", "SpeedPPR"}

    def test_l1_tradeoff(self, spark, out_csv):
        _load("l1_tradeoff").main(
            ["--datasets", "BC", "--sources", "1",
             "--eps-grid", "1e-1", "--iters-grid", "4", "--out", out_csv]
        )
        df = pd.read_csv(out_csv)
        assert set(df["method"]) == {"EdgePush", "PowForPush", "PowerMethod"}

    def test_unbalance_sweep(self, spark, out_csv):
        _load("unbalance_sweep").main(
            ["--n", "80", "--sources", "1",
             "--rmax-grid", "1e-3", "--eps-grid", "1e-1", "--out", out_csv]
        )
        df = pd.read_csv(out_csv)
        assert df["graph"].nunique() == 4
