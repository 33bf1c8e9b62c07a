"""Benchmark/repro of Table 2: dataset metadata (n, m, weights, cos²φ)
for all eight dataset-lites, next to the paper's published values."""
from jobs import table2_stats
from repro.graphs.datasets import ALL_KEYS

from . import RESULTS_DIR


def test_table2_datasets(benchmark, spark):
    argv = ["--datasets", ",".join(ALL_KEYS), "--seed", "0",
            "--out", str(RESULTS_DIR / "table2_datasets.csv")]
    df = benchmark.pedantic(table2_stats.main, args=(argv,), rounds=1, iterations=1)
    assert len(df) == 8
    assert (df["cos2_phi"] > 0).all()
