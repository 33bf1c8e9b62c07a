"""Experiment harnesses reproducing the paper's evaluation artifacts (§6).

Each function returns a tidy ``pandas.DataFrame`` of rows, one per
(dataset, method, parameter) point, mirroring the corresponding paper
table/figure. Each artifact has one runner, ``jobs/<name>.py``, a thin
spark-submit CLI over its harness; ``benchmarks/bench_*.py`` run that job
with the committed arguments and write the ``bench_results/*.csv`` that
EXPERIMENTS.md quotes.

Table 1 and Figs 4–17 are one sweep, :func:`_sweep`: a harness takes its
graphs as ``{label: WeightedGraph}`` with ``n_sources`` and ``seed``; per
graph the sweep samples the sources from the degree distribution once,
computes each source's ground truth once, and runs each of the harness's
(method, parameter) points over all of the graph's sources in a row.

Two cost axes are reported for every run (see DESIGN.md §4):

- ``work`` — machine-independent edge touches (pushes + walk steps), the
  quantity the paper's Table-1 theory bounds; shape comparisons use this;
- ``wall_s`` — local-mode Spark wall-clock, dominated by superstep
  overhead, recorded for completeness.
"""
from __future__ import annotations

from collections import defaultdict
from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.analysis import unbalance as U
from repro.core import metrics as M
from repro.core import thresholds as th
from repro.core.edgepush import edge_push
from repro.core.fora import fora, monte_carlo
from repro.core.localpush import local_push
from repro.core.power import ground_truth, power_method
from repro.core.sequential import sequential_edge_push, sequential_local_push
from repro.graphs import datasets as ds
from repro.graphs import generators as gen
from repro.graphs.graph import WeightedGraph

ALPHA = 0.2  # the paper's teleport probability in all experiments


# --------------------------------------------------------------- Table 2
def table2_rows(spark: SparkSession, keys=ds.ALL_KEYS) -> pd.DataFrame:
    """Measured Table-2 metadata for the dataset-lites, next to the paper's."""
    rows = []
    for key in keys:
        csr = ds.load(spark, key).csr
        paper = ds.PAPER_TABLE2[key]
        rows.append(
            {
                "dataset": key,
                "kind": ds.SPECS[key].kind,
                "n": csr.n,
                "m": csr.nnz // 2,
                "mean_weight": round(float(csr.weights.mean()), 2),
                "max_weight": round(float(csr.weights.max()), 1),
                "cos2_phi": round(U.cos2_phi(csr), 3),
                "paper_n": paper["n"],
                "paper_m": paper["m"],
                "paper_mean_w": paper["mean_w"],
                "paper_max_w": paper["max_w"],
                "paper_cos2": paper["cos2"],
            }
        )
    return pd.DataFrame(rows)


# ------------------------------------------------- shared per-run evaluation
def _refuse_truncated(res, ids: dict) -> None:
    """Raise ``ValueError`` for a run stopped at its superstep or push cap,
    whose error and work no bound covers."""
    if not res.converged:
        raise ValueError(f"run did not converge within its cap: {ids}")


def _row(graph: WeightedGraph, gt: np.ndarray, res, /, *, k: int = 50, **ids) -> dict:
    """One result row: the identifying columns ``ids`` in the order given,
    then the run's error, precision, clustering and cost metrics. Raises
    ``ValueError`` for a truncated run."""
    _refuse_truncated(res, ids)
    csr = graph.csr
    est = res.estimate
    best_phi, best_size = M.sweep_conductance(csr, est / csr.deg)
    return {
        **ids,
        "l1_err": M.l1_error(est, gt),
        "max_add_err": M.max_add_err(est, gt),
        "norm_max_add_err": M.normalized_max_add_err(est, gt, csr.deg),
        "precision_norm": M.precision_at_k(est, gt, k=k, deg=csr.deg),
        "precision": M.precision_at_k(est, gt, k=k),
        "conductance": best_phi,
        "cluster_size": best_size,
        "work": res.cost.edge_touches,
        "pushes": res.cost.pushes,
        "walks": res.cost.walks,
        "supersteps": res.cost.supersteps,
        "wall_s": round(res.cost.wall_seconds, 3),
    }


# ------------------------------------------------------- the evaluation sweep
def _sweep(graphs: dict[str, WeightedGraph], runs, *, n_sources: int, seed: int):
    """The sweep behind every harness. For each ``{label: graph}``, sample
    ``n_sources`` sources from the degree distribution (with replacement),
    compute π_s once per distinct source, then call every
    ``(*spec, source → PPRResult)`` of ``runs(label, graph)`` over all of
    the graph's sources in a row. Yields ``(label, graph, source, π_s,
    spec, result)``. Raises ``ValueError`` for ``n_sources`` < 1, whose
    means over no source would be NaN."""
    if n_sources < 1:
        raise ValueError(f"n_sources must be >= 1, got {n_sources}")
    for label, g in graphs.items():
        srcs = g.sample_sources(n_sources, seed=seed)
        gts = {s: ground_truth(g.csr, s, alpha=ALPHA) for s in set(srcs)}
        for *spec, run in runs(label, g):
            for s in srcs:
                yield label, g, s, gts[s], spec, run(s)


def _tradeoff_rows(graphs, runs, *, n_sources: int, seed: int) -> pd.DataFrame:
    """One ``_row`` per (dataset, method, source, param) of a sweep whose
    runs are ``(method, param, run)``."""
    return pd.DataFrame([
        _row(g, gt, res, dataset=label, method=method, source=s, param=param)
        for label, g, s, gt, (method, param), res
        in _sweep(graphs, runs, n_sources=n_sources, seed=seed)
    ])


# ----------------------------------------- Figs 4/7, 5/8, 6/9 (additive regime)
def additive_tradeoff(
    graphs: dict[str, WeightedGraph],
    *,
    n_sources: int = 3,
    seed: int = 0,
    rmax_grid=(1e-3, 1e-4, 1e-5),
    delta_grid=(1e-1, 1e-2, 1e-3),
) -> pd.DataFrame:
    """Error/precision/conductance vs work for the five §6.1 methods.

    EdgePush-Add and MAPPR sweep the (r_max ↔ θ) grid; the Monte-Carlo
    family sweeps δ (with the paper's fixed ε_r = 0.5, p_f = 1/n), its
    walks seeded with ``seed``.
    """
    def runs(_, g):
        for rmax in rmax_grid:
            yield ("EdgePush-Add", f"rmax={rmax:g}",
                   partial(edge_push, g, alpha=ALPHA, mode="additive", tol=rmax))
            yield "MAPPR", f"theta={rmax:g}", partial(local_push, g, alpha=ALPHA, theta=rmax)
        for delta in delta_grid:
            param = f"delta={delta:g}"
            yield "MC", param, partial(monte_carlo, g, alpha=ALPHA, delta=delta, seed=seed)
            yield "FORA", param, partial(fora, g, alpha=ALPHA, delta=delta, seed=seed)
            yield ("SpeedPPR", param,
                   partial(fora, g, alpha=ALPHA, delta=delta, scan=True, seed=seed))

    return _tradeoff_rows(graphs, runs, n_sources=n_sources, seed=seed)


# -------------------------------------------- Figs 10/13, 14/15 (ℓ1 regime)
def l1_tradeoff(
    graphs: dict[str, WeightedGraph],
    *,
    n_sources: int = 3,
    seed: int = 0,
    eps_grid=(1e-1, 1e-2, 1e-3),
    iters_grid=(3, 5, 7, 9),
) -> pd.DataFrame:
    """ℓ1-error vs work for EdgePush (scan-switched) vs PowForPush (LocalPush
    with the same scan switch) vs Power Method — the §6.2 comparison."""
    def runs(_, g):
        for eps in eps_grid:
            param = f"eps={eps:g}"
            yield ("EdgePush", param,
                   partial(edge_push, g, alpha=ALPHA, mode="l1", tol=eps, scan=True))
            yield ("PowForPush", param,
                   partial(local_push, g, alpha=ALPHA, theta=eps / g.csr.norm_a(), scan=True))
        for iters in iters_grid:
            yield ("PowerMethod", f"iters={iters:g}",
                   partial(power_method, g, alpha=ALPHA, iters=iters))

    return _tradeoff_rows(graphs, runs, n_sources=n_sources, seed=seed)


# ----------------------------------------------- Figs 16/17 (unbalancedness)
def unbalance_sweep(
    spark: SparkSession,
    *,
    n: int = 300,
    n_sources: int = 2,
    rmax_grid=(1e-4, 1e-5),
    eps_grid=(1e-1, 1e-2),
    seed: int = 0,
) -> pd.DataFrame:
    """EdgePush vs LocalPush on the four §6.3 affinity graphs.

    Reports each graph's cos²φ and Σn_v·cos²φ_v/2m beside the measured
    work gap; the paper's claim is the gap shrinks as weights balance.
    """
    from repro.graphs.affinity import (
        PAPER_ADD_FACTOR,
        PAPER_CONFIGS,
        PAPER_COS2,
        paper_affinity_graphs,
    )

    graphs, graph_cols = {}, {}
    for i, (cfg, pdf) in enumerate(
        zip(PAPER_CONFIGS, paper_affinity_graphs(n, seed=seed))
    ):
        label = f"affinity-{i+1}(k={cfg['kappa']})"
        graphs[label] = g = WeightedGraph.from_undirected_pandas(spark, pdf)
        graph_cols[label] = {
            "cos2_phi": round(U.cos2_phi(g.csr), 3),
            "add_factor": round(U.additive_unbalance_factor(g.csr), 3),
            "paper_cos2": PAPER_COS2[i],
            "paper_add_factor": PAPER_ADD_FACTOR[i],
        }

    def runs(_, g):
        for rmax in rmax_grid:
            param = f"rmax={rmax:g}"
            yield ("additive", "EdgePush-Add", param,
                   partial(edge_push, g, alpha=ALPHA, mode="additive", tol=rmax))
            yield "additive", "LocalPush", param, partial(local_push, g, alpha=ALPHA, theta=rmax)
        for eps in eps_grid:
            param = f"eps={eps:g}"
            yield "l1", "EdgePush", param, partial(edge_push, g, alpha=ALPHA, mode="l1", tol=eps)
            yield ("l1", "LocalPush", param,
                   partial(local_push, g, alpha=ALPHA, theta=eps / g.csr.norm_a()))

    return pd.DataFrame([
        _row(g, gt, res, graph=label, regime=regime, **graph_cols[label],
             method=method, source=s, param=param)
        for label, g, s, gt, (regime, method, param), res
        in _sweep(graphs, runs, n_sources=n_sources, seed=seed)
    ])


# ------------------------------------------------------ Table 1 (complexity)
def table1_graphs(spark: SparkSession, keys) -> dict[str, WeightedGraph]:
    """The Table-1 graph set: the Figure-1 star (n=1000) and the unbalanced
    complete graph (n=128), then the dataset lites ``keys``, each labelled
    ``"<key>-lite"``."""
    graphs = {
        "star(fig1,n=1000)": WeightedGraph.from_undirected_pandas(
            spark, gen.star_bad_case(1000)
        ),
        "complete_unbalanced(n=128)": WeightedGraph.from_undirected_pandas(
            spark, gen.complete_unbalanced(128)
        ),
    }
    return graphs | {f"{key}-lite": ds.load(spark, key) for key in keys}


def table1_complexity(
    graphs: dict[str, WeightedGraph],
    *,
    eps: float = 1e-3,
    rmax: float = 1e-5,
    n_sources: int = 5,
    seed: int = 0,
    impl: str = "batch",
) -> pd.DataFrame:
    """Measured op counts vs the Table-1 bounds and predictions.

    For each graph and regime (ℓ1 ε, additive r_max): run LocalPush and
    EdgePush over degree-sampled sources and report, each as a mean over
    the sources, the edge touches (``*_work_*``) next to the per-source
    bounds ``*_bound_*``: Lemma 3 at the exact π_s and each algorithm's
    per-edge threshold, which for LocalPush is Lemma 11. The measured
    EdgePush/LocalPush ratio sits next to the predicted improvement factor
    (1-α)·cos²φ (ℓ1) or (1-α)/2m·Σn_v·cos²φ_v (additive). LocalPush runs with θ = ε/‖A‖₁ or r_max, EdgePush with the
    Theorem-2 or Theorem-3 thresholds. Raises ``ValueError`` for a run
    stopped at its cap or ``n_sources`` < 1.

    ``impl`` picks the schedule being measured. ``"batch"`` (default) uses
    the bulk-synchronous Spark implementations, where both algorithms
    amortize residues identically per superstep — the apples-to-apples
    measurement of the node- vs edge-granularity difference the theory
    bounds. ``"sequential"`` uses the faithful one-push-at-a-time
    references; their FIFO edge scheduler splits mass into many small
    pushes on *balanced* graphs, so the measured EdgePush/LocalPush ratio
    can exceed 1 there while each run stays within its own bound.
    """
    if impl not in ("batch", "sequential"):
        raise ValueError(f"unknown impl: {impl!r}")
    # label -> regime -> (EdgePush mode, tol, LocalPush θ, predicted ratio)
    regimes = {
        label: {
            "l1": ("l1", eps, eps / g.csr.norm_a(), U.l1_improvement(g.csr, alpha=ALPHA)),
            "add": ("additive", rmax, rmax, U.additive_improvement(g.csr, alpha=ALPHA)),
        }
        for label, g in graphs.items()
    }

    def runs(label, g):
        csr = g.csr
        for r, (mode, tol, lp_theta, _) in regimes[label].items():
            ep_theta = th.theta_edge(csr, mode, tol)
            if impl == "sequential":
                lp = partial(sequential_local_push, csr, alpha=ALPHA, theta=lp_theta)
                ep = partial(sequential_edge_push, csr, theta_edge=ep_theta, alpha=ALPHA)
            else:
                lp = partial(local_push, g, alpha=ALPHA, theta=lp_theta)
                ep = partial(edge_push, g, alpha=ALPHA, mode=mode, tol=tol)
            bound = partial(th.edgepush_source_cost, csr, alpha=ALPHA)
            yield (r, "LocalPush",
                   partial(bound, theta_edge=th.theta_local(csr, lp_theta, alpha=ALPHA)), lp)
            yield r, "EdgePush", partial(bound, theta_edge=ep_theta), ep

    # (label, regime, method) -> work and bound summed over the sources
    work, bound = defaultdict(np.int64), defaultdict(np.float64)
    for label, _, s, gt, (r, method, source_cost), res in _sweep(
        graphs, runs, n_sources=n_sources, seed=seed
    ):
        _refuse_truncated(res, {"graph": label, "method": method, "source": s, "regime": r})
        work[label, r, method] += res.cost.edge_touches
        bound[label, r, method] += source_cost(gt)
    rows = []
    for label, g in graphs.items():
        csr = g.csr
        row = {"graph": label, "n": csr.n, "2m": csr.nnz,
               "cos2_phi": round(U.cos2_phi(csr), 4)}
        for r, (*_, predicted) in regimes[label].items():
            lp_w, ep_w = (work[label, r, m] for m in ("LocalPush", "EdgePush"))
            lp_b, ep_b = (bound[label, r, m] / n_sources for m in ("LocalPush", "EdgePush"))
            row |= {
                f"lp_work_{r}": lp_w // n_sources,
                f"ep_work_{r}": ep_w // n_sources,
                f"lp_bound_{r}": round(lp_b, 1),
                f"ep_bound_{r}": round(ep_b, 1),
                f"measured_ratio_{r}": round(ep_w / max(lp_w, 1), 4),
                f"predicted_ratio_{r}": round(predicted, 4),
            }
        rows.append(row)
    return pd.DataFrame(rows)
