"""Benchmark/repro of Figures 16/17: EdgePush vs LocalPush on the four
§6.3 affinity graphs calibrated to the paper's cos²φ (0.01 → 0.66); the
work gap must shrink as the weights balance."""
from jobs import unbalance_sweep

from . import RESULTS_DIR


def test_fig_unbalance_sweep(benchmark, spark):
    argv = ["--n", "300", "--sources", "2", "--rmax-grid", "1e-4", "--eps-grid", "1e-2",
            "--seed", "0", "--out", str(RESULTS_DIR / "fig_unbalance_sweep.csv")]
    df = benchmark.pedantic(unbalance_sweep.main, args=(argv,), rounds=1, iterations=1)
    # per-graph mean work ratio EdgePush/LocalPush, ℓ1 regime: should
    # increase (gap shrinks) with the graph's cos²φ
    l1 = df[df["regime"] == "l1"]
    by = l1.groupby(["cos2_phi", "method"])["work"].mean().unstack("method")
    ratio = (by["EdgePush"] / by["LocalPush"]).sort_index()
    assert ratio.iloc[0] < ratio.iloc[-1]
    assert ratio.iloc[0] < 0.3  # big win on the most unbalanced graph
