"""The distributed α-walker behind every walk-based method (§3).

π(u) is the probability that an α-random walk from s stops at u, so walks
give an unbiased estimate. The walk phase of
:mod:`repro.core.fora` (plain Monte-Carlo, FORA and SpeedPPR) builds the
walk starts and calls :func:`run_walks`; this module only simulates them.

Distributed execution: the walk *starts* live in a DataFrame
``(walk_id, start, contrib)``; the graph is broadcast to executors as CSR
arrays and ``mapInPandas`` simulates every partition's walks fully
vectorized. Weighted neighbor sampling uses the sorted-key trick: with
edges grouped by ascending ``src`` and within-node cumulative transition
probabilities ``cp ∈ (0,1]``, the array ``key = src + cp`` is globally
sorted, so one ``np.searchsorted(key, cur + U(0,1))`` picks a
weight-proportional neighbor for a whole batch of walkers at once.

The standard walk count for relative error ε_r with failure probability
p_f at threshold δ (following FORA/SpeedPPR):
``ω = (2ε_r/3 + 2)·ln(2/p_f) / (ε_r²·δ)``.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.graphs.graph import CSR

WALK_PARTITIONS = 16  # Spark partitions the walks are simulated in


def walk_count(*, delta: float, eps_r: float = 0.5, p_f: float) -> int:
    """ω = (2ε_r/3 + 2)·ln(2/p_f)/(ε_r²·δ) (FORA's Chernoff-derived count)."""
    return int(math.ceil((2 * eps_r / 3 + 2) * math.log(2 / p_f) / (eps_r**2 * delta)))


def run_walks(
    spark: SparkSession,
    csr: CSR,
    starts: pd.DataFrame,
    *,
    alpha: float = 0.2,
    seed: int = 0,
) -> tuple[pd.DataFrame, int]:
    """Simulate one α-walk per row of ``starts`` (columns: walk_id, start,
    contrib). Returns (terminal contributions per node, total steps taken).

    Each executor partition simulates its walks in a vectorized numpy loop:
    per round every alive walk stops with probability α, survivors move to
    a weight-proportional neighbor in one searchsorted. Deterministic in
    ``seed`` (per-partition streams keyed by the partition's min walk_id).
    """
    key = csr.src.astype(np.float64) + csr.cum_prob()
    indices = csr.indices
    bc = spark.sparkContext.broadcast((key, indices))

    def simulate(batches):
        k, idx = bc.value
        for pdf in batches:
            if not len(pdf):
                continue
            rng = np.random.default_rng((seed, int(pdf["walk_id"].min())))
            cur = pdf["start"].to_numpy(np.int64).copy()
            contrib = pdf["contrib"].to_numpy(np.float64)
            alive = np.ones(cur.size, dtype=bool)
            steps = 0
            while alive.any():
                a_idx = np.flatnonzero(alive)
                stop = rng.random(a_idx.size) < alpha
                move = a_idx[~stop]
                alive[a_idx[stop]] = False
                if move.size:
                    u = cur[move]
                    x = rng.random(move.size) * (1 - 1e-12)
                    e = np.searchsorted(k, u + x, side="right")
                    cur[move] = idx[e]
                    steps += move.size
            out = pd.DataFrame({"node": cur, "contrib": contrib})
            out = out.groupby("node", as_index=False)["contrib"].sum()
            out["steps"] = 0.0
            if len(out):
                out.loc[out.index[0], "steps"] = float(steps)
            yield out

    try:
        sdf = spark.createDataFrame(starts).repartition(WALK_PARTITIONS, "walk_id")
        res = sdf.mapInPandas(
            simulate, schema="node long, contrib double, steps double"
        ).toPandas()
    finally:
        bc.destroy()
    total_steps = int(res["steps"].sum())
    per_node = res.groupby("node", as_index=False)["contrib"].sum()
    return per_node, total_steps

