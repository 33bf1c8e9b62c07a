"""Power Method for SSPPR (baseline, §3) and the numpy ground truth.

The paper computes ground truths by running Power Method
``π^{(ℓ+1)} = (1-α)·P·π^{(ℓ)} + α·e_s`` for 100 iterations. We provide

- :func:`ground_truth` — a driver-side numpy implementation over the CSR
  (bincount-based sparse mat-vec), used as the oracle for every PPR test
  and for the error axes of all experiment tables;
- :func:`power_method` — the distributed DataFrame baseline: one
  join+groupBy message-passing superstep per iteration, cost Θ(m) per
  iteration (the inefficiency the paper contrasts local methods against).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.graph import CSR, WeightedGraph
from repro.core.runtime import CostStats, few_shuffle_partitions, state_checkpoint


def ground_truth(csr: CSR, source: int, *, alpha: float = 0.2, iters: int = 120) -> np.ndarray:
    """Exact-up-to-(1-α)^iters SSPPR vector π_s via power iteration.

    Matches Equation (4): each iteration scatters ``(1-α)·π(u)·A_uv/d(u)``
    along every directed edge and re-injects ``α`` at the source. With the
    default 120 iterations the truncation error is ‖·‖₁ ≤ (1-α)^120 ≈ 2e-12
    (α=0.2), comfortably below every tolerance used in the experiments.
    """
    src, dst = csr.src, csr.indices
    coef = (1.0 - alpha) * csr.weights / csr.deg[src]
    pi = np.zeros(csr.n)
    pi[source] = 1.0
    for _ in range(iters):
        nxt = np.bincount(dst, weights=pi[src] * coef, minlength=csr.n)
        nxt[source] += alpha
        pi = nxt
    # final vector of eq. (4) after L iters is (1-α)P π + α e_s repeatedly;
    # normalize nothing — π sums to α·Σ(1-α)^i + tail ≈ 1.
    return pi


@dataclass
class PPRResult:
    """Estimate + work accounting returned by every SSPPR algorithm.

    ``estimate`` maps node -> π̂(node) (nodes with π̂=0 may be absent).
    ``cost`` is the machine-independent work metric (edge touches), the
    quantity the paper's Table 1 bounds. ``converged`` is False when a push
    run stopped at its superstep cap with candidates left, so the paper's
    bound does not hold for ``estimate``.
    """

    estimate: pd.DataFrame  # columns: node, est
    cost: CostStats
    converged: bool = True

    def vector(self, n: int) -> np.ndarray:
        v = np.zeros(n)
        v[self.estimate["node"].to_numpy(np.int64)] = self.estimate["est"].to_numpy()
        return v


def power_method(
    graph: WeightedGraph, source: int, *, alpha: float = 0.2, iters: int = 10
) -> PPRResult:
    """Distributed Power Method over the transition-probability edge DataFrame."""
    spark = graph.spark
    two_m = graph.num_directed_edges()
    tedges = graph.transition.select("src", "dst", "p")
    with few_shuffle_partitions(spark):
        state = spark.createDataFrame(
            pd.DataFrame({"node": [source], "pi": [1.0]})
        )
        cost = CostStats().start()
        for _ in range(iters):
            msgs = (
                state.join(tedges, state.node == tedges.src)
                .select(
                    F.col("dst").alias("node"),
                    ((1.0 - alpha) * F.col("pi") * F.col("p")).alias("contrib"),
                )
                .groupBy("node")
                .agg(F.sum("contrib").alias("pi"))
            )
            inject = spark.createDataFrame(pd.DataFrame({"node": [source], "pi": [alpha]}))
            state = msgs.unionByName(inject).groupBy("node").agg(F.sum("pi").alias("pi"))
            state = state_checkpoint(state)
            cost.add_superstep(pushes=two_m, edge_touches=two_m)
        cost.stop()
        out = state.toPandas().rename(columns={"pi": "est"})
    return PPRResult(estimate=out, cost=cost)
