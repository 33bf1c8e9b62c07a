"""Weighted-graph substrate for the EdgePush reproduction.

The paper (§2) works on an *undirected, weighted* graph ``G=(V,E)`` whose
bi-directional edge set is ``Ē`` (every undirected edge appears in both
directions, and the two directions are treated as distinct directed edges).
This module provides the canonical representation used by every algorithm
in ``repro.core``:

- a :class:`WeightedGraph` wrapping a Spark ``DataFrame`` of *directed*
  edges ``(src, dst, weight)`` that is symmetric (both directions present),
  with node ids contiguous in ``[0, n)``;
- derived Spark DataFrames: per-node weighted degree ``d(u)``, neighborhood
  size ``n(u)``, and transition probabilities ``p = A_uv / d(u)``;
- a driver-side :class:`CSR` export used by the numpy ground truth, the
  sequential reference implementations, the Monte-Carlo walker, and the
  sweep-cut metric.

All aggregate statistics of the paper's Table 2 (``n``, ``m``, mean/max
weight, ``cos²φ``) are computed here with Spark SQL so they can be checked
against the DuckDB oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


@dataclass(frozen=True)
class CSR:
    """Driver-side compressed-sparse-row view of the bi-directed edge set.

    Rows (source nodes) are ``0..n-1``; ``indices[indptr[u]:indptr[u+1]]``
    are u's neighbors sorted ascending, with parallel ``weights``. ``deg``
    is the weighted degree ``d(u)``; ``nnz == |Ē| == 2m``.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    deg: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        d = np.bincount(src, weights=self.weights, minlength=self.n)
        object.__setattr__(self, "deg", d.astype(np.float64))

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def src(self) -> np.ndarray:
        """Source node of each directed edge, parallel to ``indices``."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def out_degree(self) -> np.ndarray:
        """Neighborhood size n(u) per node."""
        return np.diff(self.indptr).astype(np.int64)

    def norm_a(self) -> float:
        """Total edge weight ``‖A‖₁ = Σ_{⟨u,v⟩∈Ē} A_uv``."""
        return float(self.weights.sum())

    def cum_prob(self) -> np.ndarray:
        """Within-node cumulative transition probabilities in ``(0, 1]``.

        Used by the vectorized Monte-Carlo walker: because edges are grouped
        by ascending ``src`` and the cumulative probability is strictly
        increasing within a node, the array ``src + cum_prob`` is globally
        sorted, so weighted neighbor sampling for a batch of walkers is a
        single ``np.searchsorted``.
        """
        cw = np.cumsum(self.weights)
        base = np.concatenate([[0.0], cw])[self.indptr[:-1]]
        d_per_edge = self.deg[self.src]
        cp = (cw - np.repeat(base, np.diff(self.indptr))) / d_per_edge
        # guard against float drift: force each node's last entry to 1.0
        last = self.indptr[1:] - 1
        cp[last[np.diff(self.indptr) > 0]] = 1.0
        return cp


class WeightedGraph:
    """An undirected weighted graph held as a symmetric directed edge DataFrame.

    ``edges`` has columns ``src: long, dst: long, weight: double`` and
    contains **both** directions of every undirected edge. Node ids must be
    contiguous ``0..n-1`` (generators guarantee this; use
    :func:`from_undirected_pandas` to build/remap from raw pairs).
    """

    def __init__(self, spark: SparkSession, edges: DataFrame, n: int):
        self.spark = spark
        self.edges = edges
        self.n = n

    # ---------------------------------------------------------- construction
    @staticmethod
    def from_undirected_pandas(
        spark: SparkSession, pdf: pd.DataFrame, *, n: int | None = None
    ) -> "WeightedGraph":
        """Build from an undirected edge list (one row per undirected edge).

        ``pdf`` columns: ``src, dst, weight`` with ``src != dst`` and
        positive weights. Zero-weight edges are dropped (the paper's motif
        weighting can produce φ(e)=0); both directions are materialized.
        """
        pdf = pdf[pdf["weight"] > 0].copy()
        sym = pd.concat(
            [
                pdf[["src", "dst", "weight"]],
                pdf.rename(columns={"src": "dst", "dst": "src"})[
                    ["src", "dst", "weight"]
                ],
            ],
            ignore_index=True,
        )
        if n is None:
            n = int(max(sym["src"].max(), sym["dst"].max())) + 1
        sym["src"] = sym["src"].astype("int64")
        sym["dst"] = sym["dst"].astype("int64")
        sym["weight"] = sym["weight"].astype("float64")
        return WeightedGraph(spark, spark.createDataFrame(sym), n)

    @staticmethod
    def from_csr(spark: SparkSession, csr: CSR) -> "WeightedGraph":
        pdf = pd.DataFrame(
            {"src": csr.src, "dst": csr.indices, "weight": csr.weights}
        )
        return WeightedGraph(spark, spark.createDataFrame(pdf), csr.n)

    # ------------------------------------------------------------- derived DFs
    @cached_property
    def degrees(self) -> DataFrame:
        """Per-node ``deg`` (weighted degree d(u)) and ``nbrs`` (n(u))."""
        return (
            self.edges.groupBy("src")
            .agg(F.sum("weight").alias("deg"), F.count("*").alias("nbrs"))
            .withColumnRenamed("src", "node")
        )

    @cached_property
    def transition(self) -> DataFrame:
        """Edges with transition probability ``p = A_uv / d(u)``."""
        return (
            self.edges.join(self.degrees, self.edges.src == F.col("node"))
            .select("src", "dst", "weight", (F.col("weight") / F.col("deg")).alias("p"))
        )

    # ------------------------------------------------------------- statistics
    def num_directed_edges(self) -> int:
        """|Ē| = 2m."""
        return self.edges.count()

    def norm_a(self) -> float:
        return self.edges.agg(F.sum("weight")).collect()[0][0]

    def stats(self) -> dict:
        """Table-2 style metadata: n, m, mean/max weight, cos²φ.

        ``cos²φ = (Σ_{Ē}√A_uv)² / (2m · ‖A‖₁)`` (Lemma 6): the squared
        cosine between the characteristic vectors ζ=(√A_uv) and the all-one
        vector χ. Small cos²φ ⇔ unbalanced weights.
        """
        row = self.edges.agg(
            F.count("*").alias("dir_edges"),
            F.sum("weight").alias("norm_a"),
            F.sum(F.sqrt("weight")).alias("sqrt_sum"),
            F.mean("weight").alias("mean_w"),
            F.max("weight").alias("max_w"),
        ).collect()[0]
        two_m = row["dir_edges"]
        cos2 = row["sqrt_sum"] ** 2 / (two_m * row["norm_a"])
        return {
            "n": self.n,
            "m": two_m // 2,
            "mean_weight": row["mean_w"],
            "max_weight": row["max_w"],
            "norm_a": row["norm_a"],
            "cos2_phi": cos2,
        }

    # ------------------------------------------------------------ driver view
    @cached_property
    def csr(self) -> CSR:
        """Collect the edge set into a driver-side CSR (sorted by src, dst)."""
        pdf = self.edges.toPandas().sort_values(["src", "dst"])
        src = pdf["src"].to_numpy(np.int64)
        counts = np.bincount(src, minlength=self.n)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return CSR(
            n=self.n,
            indptr=indptr,
            indices=pdf["dst"].to_numpy(np.int64),
            weights=pdf["weight"].to_numpy(np.float64),
        )

    def sample_sources(self, k: int, *, seed: int = 0) -> list[int]:
        """Sample query sources from the degree distribution (paper protocol:
        "source node chosen according to the degree distribution")."""
        csr = self.csr
        g = np.random.default_rng(seed)
        p = csr.deg / csr.deg.sum()
        return [int(x) for x in g.choice(csr.n, size=k, replace=True, p=p)]
