"""Benchmark/repro of Figures 10/13 (actual ℓ1-error vs cost) and 14/15
(MaxAddErr, precision@50 vs cost): EdgePush (scan-switched) vs PowForPush
vs Power Method on one motif lite (YT) and one real-weighted lite (TA),
each method from 2 degree-sampled sources per dataset (seed 0)."""
from repro.analysis.experiments import l1_tradeoff
from repro.graphs import datasets as ds

from ._util import run_and_save

DATASETS = ("YT", "TA")


def test_fig_l1_tradeoffs(benchmark, spark):
    def run():
        return l1_tradeoff(
            {key: ds.load(spark, key) for key in DATASETS},
            n_sources=2,
            seed=0,
            eps_grid=(1e-1, 1e-2),
            iters_grid=(3, 6, 9),
        )

    df = run_and_save(benchmark, "fig_l1_tradeoffs", run)
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
