"""Shared runtime helpers for the iterative dataflow algorithms.

Iterative DataFrame algorithms need two things a one-shot query does not:

- **lineage truncation** — each superstep derives the new state from the
  old one; without truncation Catalyst replans an ever-growing tree.
  :func:`state_checkpoint` eagerly ``localCheckpoint``s the state.
- **a loop-scoped shuffle layout** — the session default of 64 shuffle
  partitions is tuned for SF=0.1 OLAP scans, not for a 20k-row edge state
  updated dozens of times, and adaptive query execution (AQE) would run
  every shuffle stage of a superstep as its own Spark job and coalesce the
  partitions, so a checkpointed state would lose its hash partitioning and
  the next superstep would shuffle all of it again.
  :func:`few_shuffle_partitions` scopes a partition count sized to the edge
  state (:func:`shuffle_partitions`: one partition per
  :data:`ROWS_PER_PARTITION` edge rows, at most ``defaultParallelism``)
  with AQE off to the algorithm's loop and restores the session values
  afterwards (the session is shared with other tests). At one partition
  Catalyst plans a superstep's ``groupBy`` and join with no exchange, so
  the superstep is one stage and one task.

:func:`push_supersteps` is the one bulk-synchronous loop behind batch
EdgePush, LocalPush and the Power Method. It owns the edge state, its
Spark frame and the superstep's update; each method supplies only numpy
arrays of its per-edge threshold θ(u,v) and push unit (LocalPush is
EdgePush at θ(u,v) = (1-α)·θ·A_uv with one push per node). A superstep is
one Spark job: the checkpoint that materializes the new state also counts its candidates. Every Column a
superstep uses is built once per query, before the loop, so a superstep
only chains Dataset calls on the driver. One collect of the terminal state
ends the loop; what follows it is numpy.

:class:`PPRResult` is what every SSPPR method returns, and
:class:`CostStats` is the machine-independent work metric inside it: the
paper's Table 1 bounds exactly these counts (edge touches / pushes), so
shape comparisons in EXPERIMENTS.md use them alongside wall-clock.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.graphs.graph import CSR, WeightedGraph

DEFAULT_SCAN_FRAC = 0.125  # PowForPush's "scanThreshold" as a fraction of the push units


@dataclass
class CostStats:
    """Work + time accounting for one SSPPR query."""

    supersteps: int = 0
    pushes: int = 0  # #push operations (node pushes or edge pushes)
    edge_touches: int = 0  # total edges read/written — the Table-1 quantity
    walks: int = 0  # Monte-Carlo walks simulated
    walk_steps: int = 0  # Monte-Carlo steps taken (each touches one edge)
    wall_seconds: float = 0.0
    _t0: float = field(default=0.0, repr=False)

    def start(self) -> "CostStats":
        self._t0 = time.perf_counter()
        return self

    def stop(self) -> "CostStats":
        self.wall_seconds = time.perf_counter() - self._t0
        return self

    def add_superstep(self, *, pushes: int, edge_touches: int) -> None:
        self.supersteps += 1
        self.pushes += int(pushes)
        self.edge_touches += int(edge_touches)

    def add_walks(self, *, walks: int, steps: int) -> None:
        self.walks += int(walks)
        self.walk_steps += int(steps)
        self.edge_touches += int(steps)


@dataclass
class PPRResult:
    """Estimate + work accounting returned by every SSPPR algorithm, Spark
    or sequential.

    ``estimate`` is π̂ as a dense vector over the n nodes. ``cost`` is the
    machine-independent work metric (edge touches), the quantity the
    paper's Table 1 bounds. ``converged`` is False when a push run stopped
    at its superstep or push cap with candidates left, so the paper's bound
    does not hold for ``estimate``. ``state`` is the terminal state of a
    push run as pandas, ``None`` for the walk methods and the Power Method:
    EdgePush (batch or sequential) ``(src, dst, r, out)`` in CSR order,
    LocalPush (batch or sequential) ``(node, r, out)`` over all n nodes;
    ``out`` is the residue pushed so far.
    """

    estimate: np.ndarray  # π̂ per node
    cost: CostStats
    converged: bool = True
    state: pd.DataFrame | None = None

    def vector(self, n: int) -> np.ndarray:
        """π̂ over the ``n`` nodes: the estimate itself. Nothing in the
        program calls it; the benchmark's correctness checker
        (``perfbench/run.py``) does, so it stays until that checker reads
        ``estimate``."""
        return self.estimate


# Edge rows per shuffle partition of the push loop. At one partition a
# superstep has no exchange; warm edge_push on local[4] (4 vCPUs), s per
# superstep at 4 partitions against 1: 0.24-0.29 vs 0.19-0.20 at 21.8k
# rows, 0.20-0.27 vs 0.15-0.17 at 96k, even at 201k, and 0.37-0.39 vs
# 0.40-0.43 at 397k, where one partition is ~8% slower.
ROWS_PER_PARTITION = 100_000


def shuffle_partitions(rows: int, cores: int) -> int:
    """The push loop's shuffle-partition count for an edge state of
    ``rows`` rows on ``cores`` cores: one per :data:`ROWS_PER_PARTITION`
    rows, at most ``cores``."""
    return min(cores, -(-rows // ROWS_PER_PARTITION))


@contextmanager
def few_shuffle_partitions(spark: SparkSession, rows: int):
    """Temporarily size ``spark.sql.shuffle.partitions`` to an edge state of
    ``rows`` rows (:func:`shuffle_partitions` over ``defaultParallelism``)
    and turn AQE off for a tight loop, so that a checkpointed state keeps
    its partitioning."""
    partitions = shuffle_partitions(rows, spark.sparkContext.defaultParallelism)
    settings = {
        "spark.sql.shuffle.partitions": str(partitions),
        "spark.sql.adaptive.enabled": "false",
    }
    old = {key: spark.conf.get(key) for key in settings}
    for key, value in settings.items():
        spark.conf.set(key, value)
    try:
        yield
    finally:
        for key, value in old.items():
            spark.conf.set(key, value)


def state_checkpoint(df: DataFrame) -> DataFrame:
    """Materialize and truncate lineage of per-superstep state."""
    return df.localCheckpoint(eager=True)


def check_query(csr: CSR, source: int, alpha: float) -> None:
    """Reject α ∉ (0,1), a source that is not an integer in [0, n) and a
    source with no edges, from the graph's CSR and without a Spark job."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not isinstance(source, (int, np.integer)) or isinstance(source, bool):
        raise ValueError(f"source must be an integer node id, got {source!r}")
    if not 0 <= source < csr.n:
        raise ValueError(f"source {source} is not a node id in [0, {csr.n})")
    if csr.deg[source] == 0:
        raise ValueError("the source has no edges")


def push_supersteps(
    graph: WeightedGraph,
    cost: CostStats,
    *,
    theta: np.ndarray,
    unit: np.ndarray | None = None,
    source: int,
    alpha: float,
    scan_frac: float | None,
    max_supersteps: int,
) -> tuple[pd.DataFrame, bool]:
    """Run a batch edge push from ``source`` to termination; return the
    terminal edge state ``(src, dst, r, out)`` in CSR order, collected to
    the driver as pandas, and whether the run converged.

    ``theta`` (θ(u,v)) and ``unit`` (the pushes a pushed edge books; one if
    ``None``) are numpy arrays in CSR order. The state is the 2m edges of
    ``graph.edge_frame`` with the residue ``r``, (1-α)·p on the source's
    out-edges, and ``out``, the residue pushed along the edge so far. Each
    superstep simultaneously pushes every candidate ``r ≥ theta``: its
    pre-superstep ``r`` moves to ``out``, the pushed ``r`` summed by
    ``dst`` is the income inc, and every edge ⟨v,w⟩ gains (1-α)·inc(v)·p.
    The strict ``r > 0`` guard keeps zero residues from ever being
    candidates, even where a threshold is or underflows to 0. A pushed edge
    is one edge touch.

    Scan switch (§6.2, Wu et al.'s PowForPush): when the candidates' units
    outnumber ``scan_frac · Σunit``, the superstep pushes *every* edge with
    r > 0, a sequential pass over the residue array, instead of only the
    candidates; pushes and touches are booked for what is pushed.

    In :func:`few_shuffle_partitions` over the 2m rows, the state is
    partitioned by ``src``, so a superstep shuffles at most the income, and
    nothing at one partition (every state of at most
    :data:`ROWS_PER_PARTITION` rows); it is checkpointed initially and
    after every superstep. The checkpoint's own job also computes, as
    observed metrics (``DataFrame.observe``), the next superstep's candidate
    edges and units, and the same for r > 0. So a superstep is one Spark
    job. The run stops when no edge is a candidate, or unconverged after
    ``max_supersteps``; ``cost`` brackets the loop, and one job after it
    collects the terminal state.
    """
    csr = graph.csr
    per_edge = {"theta": theta} if unit is None else {"theta": theta, "unit": unit}
    edges = graph.edge_frame(**per_edge).select("src", "dst", "p", *per_edge)
    units, scan_size = (F.lit(1), csr.nnz) if unit is None else (F.col("unit"), int(unit.sum()))
    r, out, p = F.col("r"), F.col("out"), F.col("p")
    is_cand = (r >= F.col("theta")) & (r > 0)
    nonzero = r > 0
    counts = (
        F.sum(is_cand.cast("long")).alias("n_cand"),
        F.sum(F.when(is_cand, units).otherwise(0)).alias("cand_units"),
        F.sum(nonzero.cast("long")).alias("n_nz"),
        F.sum(F.when(nonzero, units).otherwise(0)).alias("nz_units"),
    )
    static = [F.col(c) for c in edges.columns]
    income = F.sum("r").alias("inc")
    received = (1.0 - alpha) * F.coalesce(F.col("inc"), F.lit(0.0)) * p

    def step(push_cond: Column) -> Callable[[DataFrame], DataFrame]:
        columns = [
            *static,
            (F.when(push_cond, 0.0).otherwise(r) + received).alias("r"),
            (out + F.when(push_cond, r).otherwise(0.0)).alias("out"),
        ]
        # the income v receives feeds v's out-edges: rename dst to src to join
        return lambda s: s.join(
            s.filter(push_cond).groupBy("dst").agg(income).withColumnRenamed("dst", "src"),
            "src",
            "left",
        ).select(*columns)

    def counted_checkpoint(df: DataFrame) -> tuple[DataFrame, dict]:
        obs = Observation()
        df = state_checkpoint(df.observe(obs, *counts))
        return df, obs.get

    cand_step = step(is_cand)
    scan_step = step(nonzero) if scan_frac is not None else None
    state = edges.select(
        *static,
        F.when(F.col("src") == source, (1.0 - alpha) * p).otherwise(0.0).alias("r"),
        F.lit(0.0).alias("out"),
    )
    with few_shuffle_partitions(graph.spark, csr.nnz):
        state, agg = counted_checkpoint(state.repartition("src"))
        cost.start()
        for _ in range(max_supersteps):
            if not agg["n_cand"]:
                break
            scan = scan_frac is not None and agg["cand_units"] > scan_frac * scan_size
            cost.add_superstep(
                pushes=agg["nz_units"] if scan else agg["cand_units"],
                edge_touches=agg["n_nz"] if scan else agg["n_cand"],
            )
            state, agg = counted_checkpoint((scan_step if scan else cand_step)(state))
        cost.stop()
        final = state.select("src", "dst", "r", "out").toPandas()
    return final.sort_values(["src", "dst"], ignore_index=True), not agg["n_cand"]
