"""FORA baseline (§3): forward (Local)Push followed by Monte-Carlo repair.

Phase 1 runs batch LocalPush with node threshold θ; Lemma 1's invariant
π(t) = π̂(t) + Σ_u r(u)·π_u(t) then says the estimate's deficit is a
mixture of PPRs from the residual nodes — so phase 2 estimates that
mixture by launching ``⌈r(u)·ω⌉`` α-walks from each residual node u, each
contributing ``r(u)/⌈r(u)·ω⌉`` to its terminal node. ω comes from the same
Chernoff bound as plain Monte-Carlo; the push threshold trades phase-1
work against the number of walks (FORA's balanced default:
θ ≈ sqrt(1/(ω·m)) scaled to weighted degrees).
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from repro.core.localpush import local_push
from repro.core.montecarlo import run_walks, walk_count
from repro.core.runtime import PPRResult, few_shuffle_partitions
from repro.graphs.graph import WeightedGraph


def mc_repair(
    graph: WeightedGraph,
    push_res: PPRResult,
    *,
    omega: int,
    alpha: float,
    seed: int,
) -> PPRResult:
    """Phase 2 shared by FORA and SpeedPPR: for each node u with terminal
    residue r(u) > 0 in the LocalPush ``push_res.state``, launch ⌈r(u)·ω⌉
    α-walks each contributing r(u)/⌈r(u)·ω⌉, and add the terminal mass to
    the push estimate. ``push_res`` is left as it was: the walks are booked
    on a copy of its cost.

    Walks are numbered in node order, so the estimate for a given ``seed``
    does not depend on the row order of the state."""
    residual = (
        push_res.state.filter(F.col("r") > 0)
        .select("node", "r")
        .toPandas()
        .sort_values("node", ignore_index=True)
    )
    cost = dataclasses.replace(push_res.cost)
    est = push_res.estimate
    if len(residual):
        r = residual["r"].to_numpy()
        n_walks = np.ceil(r * omega).astype(np.int64)
        starts = pd.DataFrame(
            {
                "walk_id": np.arange(int(n_walks.sum()), dtype=np.int64),
                "start": np.repeat(residual["node"].to_numpy(np.int64), n_walks),
                "contrib": np.repeat(r / n_walks, n_walks),
            }
        )
        with few_shuffle_partitions(graph.spark):
            per_node, steps = run_walks(
                graph.spark, graph.csr, starts, alpha=alpha, seed=seed
            )
        cost.add_walks(walks=int(n_walks.sum()), steps=steps)
        est = (
            pd.concat([est, per_node.rename(columns={"contrib": "est"})])
            .groupby("node", as_index=False)["est"]
            .sum()
        )
    return PPRResult(estimate=est, cost=cost, converged=push_res.converged)


def balanced_theta(graph: WeightedGraph, *, alpha: float, omega: int) -> float:
    """FORA's push/walk balancing: push cost ≈ 2m/(α·θ·‖A‖₁) against
    ≈ θ·‖A‖₁·ω expected walks ⇒ θ* = sqrt(2m/(α·ω))/‖A‖₁."""
    return math.sqrt(graph.num_directed_edges() / (alpha * omega)) / graph.norm_a()


def fora(
    graph: WeightedGraph,
    source: int,
    *,
    alpha: float = 0.2,
    delta: float = 1e-2,
    eps_r: float = 0.5,
    p_f: float | None = None,
    theta: float | None = None,
    seed: int = 0,
) -> PPRResult:
    """FORA SSPPR estimate with relative-error parameters (δ, ε_r, p_f)."""
    if p_f is None:
        p_f = 1.0 / graph.n
    omega = walk_count(delta=delta, eps_r=eps_r, p_f=p_f)
    if theta is None:
        theta = balanced_theta(graph, alpha=alpha, omega=omega)
    push_res = local_push(graph, source, alpha=alpha, theta=theta)
    return mc_repair(graph, push_res, omega=omega, alpha=alpha, seed=seed)
