"""Benchmark/repro of Figures 4/7 (normalized MaxAddErr vs cost), 5/8
(normalized precision@50 vs cost) and 6/9 (conductance vs cost): the five
§6.1 methods on one motif-based lite (YT) and one real-weighted lite (TA).

Each method runs from 2 degree-sampled sources per dataset (seed 0). One
row per (dataset, method, source, parameter) carries all three metric
groups; jobs/additive_tradeoff.py runs the full 8-dataset sweep.
"""
from repro.analysis.experiments import additive_tradeoff
from repro.graphs import datasets as ds

from ._util import run_and_save

DATASETS = ("YT", "TA")


def test_fig_additive_tradeoffs(benchmark, spark):
    def run():
        return additive_tradeoff(
            {key: ds.load(spark, key) for key in DATASETS},
            n_sources=2,
            seed=0,
            rmax_grid=(1e-3, 1e-4),
            delta_grid=(1e-1, 1e-2),
        )

    df = run_and_save(benchmark, "fig_additive_tradeoffs", run)
    # the paper's headline (Figs 4/7): at matched r_max EdgePush-Add
    # dominates MAPPR — lower realized error at every tolerance, and less
    # work at the tight tolerances where the methods actually do work.
    # (At the loosest r_max both do O(10) edge touches and the work
    # comparison is noise; params are "rmax=x" vs "theta=x", so compare on
    # the numeric value.)
    push = df[df["method"].isin(["EdgePush-Add", "MAPPR"])].copy()
    push["tol"] = push["param"].str.split("=").str[1].astype(float)
    by = push.groupby(["dataset", "tol", "method"])
    err = by["norm_max_add_err"].mean().unstack("method")
    assert (err["EdgePush-Add"] <= err["MAPPR"] * 1.05).all()
    tight = push[push["tol"] == push["tol"].min()]
    work = tight.groupby(["dataset", "method"])["work"].mean().unstack("method")
    assert (work["EdgePush-Add"] <= work["MAPPR"] * 1.05).all()
