"""EdgePush — the paper's contribution — as a distributed batch algorithm.

Algorithm 2 pushes one *edge* at a time, picked by the two-level structure
of §4.3. On a dataflow engine we run the bulk-synchronous decomposition:
each superstep simultaneously pushes **every** candidate edge
``C = {⟨u,v⟩ : R_uv ≥ θ(u,v)}``. A pushed edge transfers its pre-superstep
residue ``R_uv`` into v's income; the income a node receives feeds the
residues of its out-edges in the *next* superstep. The invariant proof
(Lemma 2 / Appendix A.4) holds for transferring any amount ``y ≤ R_uv``,
so the batch schedule preserves the invariant and the terminal condition
``R_uv < θ(u,v)`` for all edges yields exactly the paper's error bounds
(Lemmas 4–5, Theorems 2–3).

State is one edge-level DataFrame ``(src, dst, p, theta, r, out)``: the
residue ``r`` and ``out``, the residue pushed along the edge so far. The
node income q of Algorithm 2 is then ``q(v) = [v=s] + Σ_u out(u,v)``, summed
once after the loop, and the estimate is ``π̂ = α·q``. Work accounting: each
edge push costs O(1) — one edge touch — which is precisely the quantity
Lemma 3 bounds.

The superstep loop, with the §6.2 scan switch over the 2m edges, is
:func:`repro.core.runtime.push_supersteps`; this module supplies the edge
push rule.
"""
from __future__ import annotations

from typing import Callable

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.runtime import (
    CostStats,
    PPRResult,
    check_query,
    few_shuffle_partitions,
    push_supersteps,
)
from repro.core.thresholds import thresholds_df
from repro.graphs.graph import WeightedGraph


def edge_push(
    graph: WeightedGraph,
    source: int,
    *,
    alpha: float = 0.2,
    mode: str = "l1",
    tol: float = 1e-4,
    scan_frac: float | None = None,
    max_supersteps: int = 500,
) -> PPRResult:
    """Approximate SSPPR by batch EdgePush.

    ``mode``/``tol`` pick the per-edge thresholds: ``("l1", ε)`` uses
    Theorem 2 (ℓ1-error ≤ ε), ``("additive", r_max)`` uses Theorem 3
    (normalized additive error ≤ r_max), ``("uniform", θ)`` is the untuned
    ablation.

    The result's ``state`` is the terminal edge state ``(src, dst, p, theta,
    r, out)``. Raises ``ValueError`` for α ∉ (0,1) or a source that is not a
    node with edges.
    """
    check_query(graph, source, alpha)

    r, p = F.col("r"), F.col("p")
    income = F.sum(r).alias("inc")
    received = (1.0 - alpha) * F.coalesce(F.col("inc"), F.lit(0.0)) * p
    static = [F.col(c) for c in ("src", "dst", "p", "theta")]

    def rule(push_cond: Column) -> Callable[[DataFrame], DataFrame]:
        # the income v receives feeds v's out-edges: rename dst to src to join
        columns = [
            *static,
            (F.when(push_cond, 0.0).otherwise(r) + received).alias("r"),
            (F.col("out") + F.when(push_cond, r).otherwise(0.0)).alias("out"),
        ]

        def step(edges: DataFrame) -> DataFrame:
            inc = (
                edges.filter(push_cond)
                .groupBy("dst")
                .agg(income)
                .withColumnRenamed("dst", "src")
            )
            return edges.join(inc, "src", "left").select(*columns)

        return step

    with few_shuffle_partitions(graph.spark):
        # initial residues: R_sv = (1-α)·A_sv/d(s) on the source's out-edges;
        # partitioned by src, as each superstep's income join leaves it
        edges = (
            thresholds_df(graph, mode=mode, tol=tol)
            .select(
                *static,
                F.when(F.col("src") == source, (1.0 - alpha) * p).otherwise(0.0).alias("r"),
                F.lit(0.0).alias("out"),
            )
            .repartition("src")
        )
        cost = CostStats()
        edges, converged = push_supersteps(
            edges,
            rule,
            cost,
            threshold=F.col("theta"),
            touches=F.lit(1),
            scan_size=graph.csr.nnz,
            scan_frac=scan_frac,
            max_supersteps=max_supersteps,
        )
        # π̂(v) = α·q(v); the source has an in-edge, as the graph is symmetric
        q = F.sum("out") + F.when(F.col("dst") == source, 1.0).otherwise(0.0)
        est = (
            edges.groupBy("dst")
            .agg((F.lit(alpha) * q).alias("est"))
            .filter(F.col("est") > 0)
            .withColumnRenamed("dst", "node")
            .toPandas()
        )
    return PPRResult(estimate=est, cost=cost, converged=converged, state=edges)
