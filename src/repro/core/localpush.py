"""Distributed batch LocalPush (MAPPR) over DataFrames.

Algorithm 1 of the paper pushes one node at a time; on a dataflow engine we
run the standard bulk-synchronous formulation: every superstep
simultaneously pushes **all** nodes with ``r(u) ≥ d(u)·θ``. A batch push of
a set S applies each node's push on its pre-superstep residue, which
composes to a valid sequence of (partial) pushes, so Lemma 1's invariant —
and therefore Fact 1/2's error bounds at termination — hold unchanged.

Work accounting matches the paper's: each pushed node u costs n(u) edge
touches (the node-granular push must write *every* incident edge — the
inefficiency EdgePush removes).

The superstep, with the PowForPush scan switch over the n nodes (a scan
superstep is a power-iteration pass, cost ≈ 2m), is
:func:`repro.core.runtime.push_supersteps` keyed by ``node``; this module
supplies the node granularity: a pushed u sends ``(1-α)·r(u)·p(u,v)`` to
every neighbour v. State ``(node, deg, nbrs, r, out)``; ``π̂ = α·out``,
computed in numpy over the terminal state the loop collects.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.runtime import (
    CostStats,
    PPRResult,
    check_query,
    few_shuffle_partitions,
    push_supersteps,
    state_checkpoint,
)
from repro.graphs.graph import WeightedGraph


def local_push(
    graph: WeightedGraph,
    source: int,
    *,
    alpha: float = 0.2,
    theta: float = 1e-6,
    scan_frac: float | None = None,
    max_supersteps: int = 500,
) -> PPRResult:
    """Approximate SSPPR by batch LocalPush with global threshold ``θ``.

    ``θ = ε/‖A‖₁`` gives ℓ1-error ≤ ε (Fact 1); ``θ = r_max`` gives
    normalized additive error ≤ r_max (Fact 2). The result's ``state`` is
    the terminal per-node state ``(node, deg, nbrs, r, out)`` as pandas:
    FORA/SpeedPPR compensate its residual with random walks. θ = 0 pushes
    every node with residue, the Power Method. Raises ``ValueError`` for
    α ∉ (0,1), a source that is not a node with edges, or θ < 0 or NaN.
    """
    check_query(graph.csr, source, alpha)
    if not theta >= 0:
        raise ValueError(f"theta must be >= 0, got {theta}")

    r = F.col("r")
    message = [F.col("dst").alias("node"), ((1.0 - alpha) * r * F.col("p")).alias("inc")]
    income = F.sum("inc").alias("inc")

    def send(pushed: DataFrame) -> DataFrame:
        return pushed.join(tedges, "node").select(*message).groupBy("node").agg(income)

    with few_shuffle_partitions(graph.spark):
        # materialized once per query, keyed and partitioned like the state
        tedges = state_checkpoint(
            graph.transition.selectExpr("src AS node", "dst", "p").repartition("node")
        )
        state = graph.degrees.select(
            "node", "deg", "nbrs",
            F.when(F.col("node") == source, 1.0).otherwise(0.0).alias("r"),
            F.lit(0.0).alias("out"),
        )
        cost = CostStats()
        state, converged = push_supersteps(
            state,
            cost,
            key="node",
            send=send,
            received=F.coalesce(F.col("inc"), F.lit(0.0)),
            threshold=F.col("deg") * F.lit(theta),
            touches=F.col("nbrs"),
            scan_size=graph.n,
            scan_frac=scan_frac,
            max_supersteps=max_supersteps,
        )
    est = np.bincount(state["node"], alpha * state["out"], minlength=graph.n)
    return PPRResult(estimate=est, cost=cost, converged=converged, state=state)
