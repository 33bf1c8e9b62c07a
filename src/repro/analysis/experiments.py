"""Experiment harnesses reproducing the paper's evaluation artifacts (§6).

Each function returns a tidy ``pandas.DataFrame`` of rows, one per
(dataset, method, parameter) point, mirroring the corresponding paper
table/figure. ``jobs/*.py`` are thin spark-submit CLIs over these, and
``benchmarks/bench_*.py`` print the rows that EXPERIMENTS.md quotes.

Two cost axes are reported for every run (see DESIGN.md §4):

- ``work`` — machine-independent edge touches (pushes + walk steps), the
  quantity the paper's Table-1 theory bounds; shape comparisons use this;
- ``wall_s`` — local-mode Spark wall-clock, dominated by superstep
  overhead, recorded for completeness.
"""
from __future__ import annotations

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
from repro.core.runtime import DEFAULT_SCAN_FRAC
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


# ----------------------------------------- Figs 4/7, 5/8, 6/9 (additive regime)
def additive_tradeoff(
    graph: WeightedGraph,
    *,
    dataset: str,
    sources: list[int],
    rmax_grid=(1e-3, 1e-4, 1e-5),
    delta_grid=(1e-1, 1e-2, 1e-3),
    seed: int = 0,
) -> pd.DataFrame:
    """Error/precision/conductance vs work for the five §6.1 methods.

    EdgePush-Add and MAPPR sweep the (r_max ↔ θ) grid; the Monte-Carlo
    family sweeps δ (with the paper's fixed ε_r = 0.5, p_f = 1/n).
    """
    rows = []
    gts = {s: ground_truth(graph.csr, s, alpha=ALPHA) for s in sources}
    for s in sources:
        runs = []
        for rmax in rmax_grid:
            runs += [
                ("EdgePush-Add", f"rmax={rmax:g}",
                 edge_push(graph, s, alpha=ALPHA, mode="additive", tol=rmax)),
                ("MAPPR", f"theta={rmax:g}",
                 local_push(graph, s, alpha=ALPHA, theta=rmax)),
            ]
        for delta in delta_grid:
            param = f"delta={delta:g}"
            runs += [
                ("MC", param, monte_carlo(graph, s, alpha=ALPHA, delta=delta, seed=seed)),
                ("FORA", param, fora(graph, s, alpha=ALPHA, delta=delta, seed=seed)),
                ("SpeedPPR", param,
                 fora(graph, s, alpha=ALPHA, delta=delta,
                      scan_frac=DEFAULT_SCAN_FRAC, seed=seed)),
            ]
        rows += [
            _row(graph, gts[s], res, dataset=dataset, method=m, source=s, param=p)
            for m, p, res in runs
        ]
    return pd.DataFrame(rows)


# -------------------------------------------- Figs 10/13, 14/15 (ℓ1 regime)
def l1_tradeoff(
    graph: WeightedGraph,
    *,
    dataset: str,
    sources: list[int],
    eps_grid=(1e-1, 1e-2, 1e-3),
    iters_grid=(3, 5, 7, 9),
) -> pd.DataFrame:
    """ℓ1-error vs work for EdgePush (scan-switched) vs PowForPush (LocalPush
    with the same scan switch) vs Power Method — the §6.2 comparison."""
    rows = []
    for s in sources:
        gt = ground_truth(graph.csr, s, alpha=ALPHA)
        runs = []
        for eps in eps_grid:
            runs.append((
                "EdgePush", f"eps={eps:g}",
                edge_push(
                    graph, s, alpha=ALPHA, mode="l1", tol=eps,
                    scan_frac=DEFAULT_SCAN_FRAC,
                ),
            ))
            runs.append((
                "PowForPush", f"eps={eps:g}",
                local_push(
                    graph, s, alpha=ALPHA, theta=eps / graph.csr.norm_a(),
                    scan_frac=DEFAULT_SCAN_FRAC,
                ),
            ))
        for iters in iters_grid:
            runs.append((
                "PowerMethod", f"iters={iters:g}",
                power_method(graph, s, alpha=ALPHA, iters=iters),
            ))
        rows += [
            _row(graph, gt, res, dataset=dataset, method=m, source=s, param=p)
            for m, p, res in runs
        ]
    return pd.DataFrame(rows)


# ----------------------------------------------- Figs 16/17 (unbalancedness)
def unbalance_sweep(
    spark: SparkSession,
    *,
    n: int = 300,
    sources: int = 2,
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

    rows = []
    for i, (cfg, pdf) in enumerate(
        zip(PAPER_CONFIGS, paper_affinity_graphs(n, seed=seed))
    ):
        g = WeightedGraph.from_undirected_pandas(spark, pdf)
        csr = g.csr
        c2 = U.cos2_phi(csr)
        add_f = U.additive_unbalance_factor(csr)
        srcs = g.sample_sources(sources, seed=seed)
        for s in srcs:
            gt = ground_truth(csr, s, alpha=ALPHA)
            runs = []
            for rmax in rmax_grid:
                param = f"rmax={rmax:g}"
                runs += [
                    ("additive", "EdgePush-Add", param,
                     edge_push(g, s, alpha=ALPHA, mode="additive", tol=rmax)),
                    ("additive", "LocalPush", param,
                     local_push(g, s, alpha=ALPHA, theta=rmax)),
                ]
            for eps in eps_grid:
                param = f"eps={eps:g}"
                runs += [
                    ("l1", "EdgePush", param,
                     edge_push(g, s, alpha=ALPHA, mode="l1", tol=eps)),
                    ("l1", "LocalPush", param,
                     local_push(g, s, alpha=ALPHA, theta=eps / csr.norm_a())),
                ]
            rows += [
                _row(
                    g, gt, res,
                    graph=f"affinity-{i+1}(k={cfg['kappa']})",
                    regime=regime,
                    cos2_phi=round(c2, 3),
                    add_factor=round(add_f, 3),
                    paper_cos2=PAPER_COS2[i],
                    paper_add_factor=PAPER_ADD_FACTOR[i],
                    method=method,
                    source=s,
                    param=param,
                )
                for regime, method, param, res in runs
            ]
    return pd.DataFrame(rows)


# ------------------------------------------------------ Table 1 (complexity)
def table1_graphs(spark: SparkSession, lites: dict[str, str]) -> dict[str, WeightedGraph]:
    """The Table-1 graph set: the Figure-1 star (n=1000) and the unbalanced
    complete graph (n=128), then the dataset lites given as ``{label: key}``."""
    graphs = {
        "star(fig1,n=1000)": WeightedGraph.from_undirected_pandas(
            spark, gen.star_bad_case(1000)
        ),
        "complete_unbalanced(n=128)": WeightedGraph.from_undirected_pandas(
            spark, gen.complete_unbalanced(128)
        ),
    }
    return graphs | {label: ds.load(spark, key) for label, key in lites.items()}


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
    bounds ``*_bound_*``: Lemma 11 for LocalPush, Lemma 3 for EdgePush, at
    the exact π_s. The measured EdgePush/LocalPush ratio sits next to the
    predicted improvement factor (1-α)·cos²φ (ℓ1) or (1-α)/2m·Σn_v·cos²φ_v
    (additive). LocalPush runs with θ = ε/‖A‖₁ or r_max, EdgePush with the
    Theorem-2 or Theorem-3 thresholds. Raises ``ValueError`` for a run
    stopped at its cap.

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
    rows = []
    for name, g in graphs.items():
        csr = g.csr
        # regime -> (EdgePush mode, tol, LocalPush θ, EdgePush θ per edge, predicted ratio)
        regimes = {
            "l1": ("l1", eps, eps / csr.norm_a(), th.theta_l1(csr, eps),
                   U.l1_improvement(csr, alpha=ALPHA)),
            "add": ("additive", rmax, rmax, th.theta_additive(csr, rmax),
                    U.additive_improvement(csr, alpha=ALPHA)),
        }
        work = {r: np.zeros(2, dtype=np.int64) for r in regimes}  # (LP, EP) sums
        bound = {r: np.zeros(2) for r in regimes}
        srcs = g.sample_sources(n_sources, seed=seed)
        for s in srcs:
            gt = ground_truth(csr, s, alpha=ALPHA)
            for r, (mode, tol, lp_theta, ep_theta, _) in regimes.items():
                if impl == "sequential":
                    lp = sequential_local_push(csr, s, alpha=ALPHA, theta=lp_theta)
                    ep = sequential_edge_push(csr, s, ep_theta, alpha=ALPHA)
                else:
                    lp = local_push(g, s, alpha=ALPHA, theta=lp_theta)
                    ep = edge_push(g, s, alpha=ALPHA, mode=mode, tol=tol)
                for method, res in (("LocalPush", lp), ("EdgePush", ep)):
                    _refuse_truncated(res, {"graph": name, "method": method,
                                            "source": s, "regime": r})
                work[r] += (lp.cost.edge_touches, ep.cost.edge_touches)
                bound[r] += (
                    th.localpush_source_cost(csr, gt, alpha=ALPHA, theta=lp_theta),
                    th.edgepush_source_cost(csr, gt, ep_theta, alpha=ALPHA),
                )
        k = len(srcs)
        row = {"graph": name, "n": csr.n, "2m": csr.nnz,
               "cos2_phi": round(U.cos2_phi(csr), 4)}
        for r, (*_, predicted) in regimes.items():
            (lp_w, ep_w), (lp_b, ep_b) = work[r], bound[r] / k
            row |= {
                f"lp_work_{r}": lp_w // k,
                f"ep_work_{r}": ep_w // k,
                f"lp_bound_{r}": round(lp_b, 1),
                f"ep_bound_{r}": round(ep_b, 1),
                f"measured_ratio_{r}": round(ep_w / max(lp_w, 1), 4),
                f"predicted_ratio_{r}": round(predicted, 4),
            }
        rows.append(row)
    return pd.DataFrame(rows)
