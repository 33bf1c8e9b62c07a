"""Weighted-graph substrate for the EdgePush reproduction.

The paper (§2) works on an *undirected, weighted* graph ``G=(V,E)`` whose
bi-directional edge set is ``Ē`` (every undirected edge appears in both
directions, and the two directions are treated as distinct directed edges).
This module provides the canonical representation used by every algorithm
in ``repro.core``:

- a driver-side :class:`CSR` of the *directed* edges ``(src, dst, weight)``,
  symmetric (both directions present), with node ids in ``[0, n)``. It is
  the graph: the push loops' thresholds, 2m, ‖A‖₁, cos²φ, the numpy ground
  truth, the sequential references, the Monte-Carlo walker and the
  sweep-cut metric all read it;
- a :class:`WeightedGraph` that holds the CSR and derives from it Spark
  DataFrames of the edges with transition probabilities ``p = A_uv / d(u)``
  and further per-edge columns, among them the one static edge frame the
  distributed push loops read (``repro.core.runtime.static_edges``).

Every graph is built from an undirected edge list on the driver
(:meth:`WeightedGraph.from_undirected_pandas`), which is where the input is
checked.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


@dataclass(frozen=True)
class CSR:
    """Driver-side compressed-sparse-row view of the bi-directed edge set.

    Rows (source nodes) are ``0..n-1``; ``indices[indptr[u]:indptr[u+1]]``
    are u's neighbors sorted ascending, with parallel ``weights``. ``src``
    is the source node of each directed edge, parallel to ``indices``, and
    ``deg`` the weighted degree ``d(u)``; ``nnz == |Ē| == 2m``.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    src: np.ndarray = field(init=False)
    deg: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        d = np.bincount(src, weights=self.weights, minlength=self.n)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "deg", d.astype(np.float64))

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

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
    """An undirected weighted graph held as a symmetric directed edge CSR.

    ``csr`` contains **both** directions of every undirected edge, sorted by
    ``(src, dst)``, with node ids in ``[0, n)`` and positive weights. Build
    from raw pairs with :meth:`from_undirected_pandas`, which checks them;
    the constructor takes a CSR as it is.

    ``spark`` is the graph's own session, new from the one it is given: it
    shares that session's SparkContext and cache but has its own SQL conf.
    Every frame of the graph lives in it: the push loop's state, whose
    settings the loop sets there (``repro.core.runtime.set_loop_conf``),
    and the ``transition`` and ``degrees`` views.

    ``frame`` is the graph's static edge frame, ``None`` until the first
    push query builds it (``repro.core.runtime.static_edges``): the edges
    with ``p``, LocalPush's push unit and θ's per-edge factors, partitioned
    by ``src`` and checkpointed. Every push query on the graph reads it, and
    its checkpoint is released with the graph.
    """

    def __init__(self, spark: SparkSession, csr: CSR):
        self.spark = spark.newSession()
        self.csr = csr
        self.n = csr.n
        self.frame: DataFrame | None = None

    # ---------------------------------------------------------- construction
    @staticmethod
    def from_undirected_pandas(
        spark: SparkSession, pdf: pd.DataFrame, *, n: int | None = None
    ) -> "WeightedGraph":
        """Build from an undirected edge list (one row per undirected edge).

        ``pdf`` columns: ``src, dst, weight``. Zero-weight edges are
        dropped; both directions of the others are stored. ``n`` defaults to
        the largest id kept plus one. Raises ``ValueError`` for a NaN,
        infinite or negative weight, a self-loop, a pair given twice (in
        either order), an id that is not an integer or lies outside
        ``[0, n)``, or, when ``n`` is not given, no edge of positive weight.
        """
        for col in ("src", "dst"):
            ids = pdf[col].to_numpy(np.float64)
            if not (np.isfinite(ids) & (ids == np.round(ids))).all():
                raise ValueError("node ids must be integers")
        w = pdf["weight"].to_numpy(np.float64)
        if not np.isfinite(w).all() or (w < 0).any():
            raise ValueError("edge weights must be finite and non-negative")
        keep = w > 0
        u = pdf["src"].to_numpy(np.int64)[keep]
        v = pdf["dst"].to_numpy(np.int64)[keep]
        w = w[keep]
        if (u == v).any():
            raise ValueError("the edge list has a self-loop")
        if n is None:
            if not u.size:
                raise ValueError("the edge list has no edge of positive weight")
            n = int(max(u.max(), v.max())) + 1
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise ValueError(f"node ids must lie in [0, {n})")
        src, dst = np.concatenate([u, v]), np.concatenate([v, u])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        dup = np.flatnonzero((src[1:] == src[:-1]) & (dst[1:] == dst[:-1]))
        if dup.size:
            a, b = src[dup[0]], dst[dup[0]]
            raise ValueError(f"the edge list has the pair ({a}, {b}) twice")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
        csr = CSR(n=n, indptr=indptr, indices=dst, weights=np.concatenate([w, w])[order])
        return WeightedGraph(spark, csr)

    # ------------------------------------------------------------ Spark views
    def edge_frame(self, **columns: np.ndarray) -> DataFrame:
        """The directed edges as a Spark DataFrame ``(src, dst, weight, p,
        *columns)``, in CSR order, with transition probability
        ``p = A_uv / d(u)``; each keyword is one more per-edge column."""
        c = self.csr
        return self.spark.createDataFrame(
            pd.DataFrame(
                {
                    "src": c.src,
                    "dst": c.indices,
                    "weight": c.weights,
                    "p": c.weights / c.deg[c.src],
                    **columns,
                }
            )
        )

    @cached_property
    def transition(self) -> DataFrame:
        """Edges ``(src, dst, weight, p)`` with ``p = A_uv / d(u)``."""
        return self.edge_frame()

    @cached_property
    def degrees(self) -> DataFrame:
        """Per-node ``deg`` (weighted degree d(u)) and ``nbrs`` (n(u)), over
        the nodes with edges. No algorithm reads it; the benchmark's traced
        ``graphs.derive`` span (``perfbench/run.py``) does, so it stays until
        that span goes."""
        c = self.csr
        nbrs = c.out_degree()
        node = np.flatnonzero(nbrs)
        return self.spark.createDataFrame(
            pd.DataFrame({"node": node, "deg": c.deg[node], "nbrs": nbrs[node]})
        )

    def sample_sources(self, k: int, *, seed: int = 0) -> list[int]:
        """Sample query sources from the degree distribution (paper protocol:
        "source node chosen according to the degree distribution")."""
        csr = self.csr
        g = np.random.default_rng(seed)
        p = csr.deg / csr.deg.sum()
        return [int(x) for x in g.choice(csr.n, size=k, replace=True, p=p)]
