"""Benchmark/repro of Figures 10/13 (actual ℓ1-error vs cost) and 14/15
(MaxAddErr, precision@50 vs cost): EdgePush (scan-switched) vs PowForPush
vs Power Method on one motif lite (YT) and one real-weighted lite (TA),
each method from 2 degree-sampled sources per dataset (seed 0)."""
from jobs import l1_tradeoff

from . import RESULTS_DIR


def test_fig_l1_tradeoffs(benchmark, spark):
    argv = ["--datasets", "YT,TA", "--sources", "2", "--seed", "0",
            "--eps-grid", "1e-1,1e-2", "--iters-grid", "3,6,9",
            "--out", str(RESULTS_DIR / "fig_l1_tradeoffs.csv")]
    df = benchmark.pedantic(l1_tradeoff.main, args=(argv,), rounds=1, iterations=1)
    # paper's observation: at relatively large ℓ1-error, EdgePush does the
    # least work among the push methods; the curves converge (within a
    # small factor) as the tolerance tightens and EdgePush must touch most
    # edges. Power Method rows provide the error/work reference curve.
    by = (
        df[df["method"].isin(["EdgePush", "PowForPush"])]
        .groupby(["dataset", "param", "method"])["work"]
        .mean()
        .unstack("method")
    )
    assert (by["EdgePush"] <= by["PowForPush"] * 1.1).all()
