"""Shared runtime helpers for the iterative dataflow algorithms.

Iterative DataFrame algorithms need two things a one-shot query does not:

- **lineage truncation** — each superstep derives the new state from the
  old one; without truncation Catalyst replans an ever-growing tree.
  :func:`state_checkpoint` eagerly ``localCheckpoint``s the state.
- **settings of its own** — :func:`set_loop_conf` sets the four settings
  the loop's plan depends on in the graph's own Spark session, with no
  restore; the caller's session is never written to:

  - shuffle partitions sized to the edge state (:func:`shuffle_partitions`:
    one per :data:`ROWS_PER_PARTITION` edge rows, at most
    ``defaultParallelism``); at one partition a superstep's ``groupBy`` and
    join need no exchange, so the superstep is one stage and one task;
  - adaptive query execution off: it would run every shuffle stage as its
    own Spark job and coalesce the partitions, so a checkpointed state
    would lose its hash partitioning and be shuffled again;
  - broadcast joins off: at Spark's default threshold the income join is
    a broadcast with a Spark job of its own every superstep;
  - Arrow on, for the static edge frame and the terminal collect.

The graph stays fixed while the residues move (Lemma 2), so each graph has
one static edge frame (:func:`static_edges`), built by its first push
query and kept on the graph: the directed edges with ``p``, LocalPush's
push unit and θ's per-edge factors, partitioned and sorted by ``src``
under :func:`set_loop_conf` and checkpointed.

:func:`push_supersteps` is the one bulk-synchronous loop behind batch
EdgePush, LocalPush and the Power Method. It owns the edge state and the
superstep's update; each method supplies only its per-edge threshold
θ(u,v), as a function of :class:`repro.core.thresholds.Factors`, and
whether pushes count per node (LocalPush is EdgePush at
θ(u,v) = (1-α)·θ·A_uv with one push per node). θ is a Column over the
static frame, bit-identical to the numpy θ the driver counts the first
candidates with. A superstep is one Spark job: the checkpoint that
materializes the new state also counts its candidates. Every Column a
superstep uses is built once per query, before the loop, so a superstep
only chains Dataset calls on the driver. One collect of the terminal state
ends the loop; what follows it is numpy.

:class:`PPRResult` is what every SSPPR method returns, and
:class:`CostStats` is the machine-independent work metric inside it: the
paper's Table 1 bounds exactly these counts (edge touches / pushes), so
shape comparisons in EXPERIMENTS.md use them alongside wall-clock.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.core import thresholds as th
from repro.graphs.graph import CSR, WeightedGraph

SCAN_FRAC = 0.125  # PowForPush's "scanThreshold" as a fraction of the push units


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


def set_loop_conf(spark: SparkSession, rows: int) -> None:
    """Set the push loop's settings in ``spark``, a graph's own session:
    shuffle partitions for an edge state of ``rows`` rows, AQE off,
    broadcast joins off, Arrow on."""
    partitions = shuffle_partitions(rows, spark.sparkContext.defaultParallelism)
    spark.conf.set("spark.sql.shuffle.partitions", str(partitions))
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    spark.conf.set("spark.sql.autoBroadcastJoinThreshold", "-1")
    spark.conf.set("spark.sql.execution.arrow.pyspark.enabled", "true")


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


def static_edges(graph: WeightedGraph) -> DataFrame:
    """The graph's static edge frame, built by the first call and kept as
    ``graph.frame``: ``(src, dst, weight, p, unit, sqrt_weight, deg_dst,
    sqrt_sum_dst)`` per directed edge, with ``unit`` 1 on each node's first
    edge and θ's per-edge factors of :func:`repro.core.thresholds.edge_factors`.
    The build sets :func:`set_loop_conf` for the 2m rows in
    ``graph.spark``, partitions and sorts the edges by ``src`` and
    checkpoints them, one Spark job; the frame goes with the graph."""
    if graph.frame is None:
        csr = graph.csr
        set_loop_conf(graph.spark, csr.nnz)
        f = th.edge_factors(csr)
        edges = graph.edge_frame(
            unit=(np.diff(csr.src, prepend=-1) != 0).astype(np.int8),
            **{c: getattr(f, c) for c in th.FACTOR_COLUMNS if c != "weight"},
        )
        graph.frame = state_checkpoint(edges.repartition("src").sortWithinPartitions("src"))
    return graph.frame


def column_factors(f: th.Factors) -> th.Factors:
    """The factors ``f`` as Columns of the static edge frame, with the
    same Σ√A and a Spark floor."""
    return dataclasses.replace(
        f,
        **{c: F.col(c) for c in th.FACTOR_COLUMNS},
        floor=lambda x: F.greatest(x, F.lit(th.THETA_FLOOR)),
    )


def thresholds_df(graph: WeightedGraph, *, mode: str, tol: float) -> DataFrame:
    """``(src, dst, weight, p, theta)`` over the static edge frame, with
    EdgePush's θ for ``mode`` (:func:`repro.core.thresholds.edge_rule`) as
    the Column the push loop computes. No algorithm calls it; the
    benchmark's traced layer hooks look it up in ``repro.core.edgepush``."""
    rule = th.edge_rule(mode, tol)
    theta = rule(column_factors(th.edge_factors(graph.csr)))
    return static_edges(graph).select("src", "dst", "weight", "p", theta.alias("theta"))


def push_supersteps(
    graph: WeightedGraph,
    cost: CostStats,
    *,
    theta: Callable[[th.Factors], Any],
    per_node: bool = False,
    source: int,
    alpha: float,
    scan: bool,
    max_supersteps: int,
) -> tuple[pd.DataFrame, bool]:
    """Run a batch edge push from ``source`` to termination; return the
    terminal edge state ``(src, dst, r, out)`` in CSR order, collected to
    the driver as pandas, and whether the run converged.

    ``theta`` maps :class:`repro.core.thresholds.Factors` to θ(u,v): the
    loop evaluates it once on numpy factors and once on the Columns of the
    graph's static edge frame (:func:`static_edges`, built here on a
    graph's first query), which give the same doubles. A pushed edge books
    one push, or, with ``per_node``, the edge's ``unit``: one push per
    node, on its first edge. The state is the 2m edges with the residue
    ``r``, (1-α)·p on the source's out-edges, and ``out``, the residue
    pushed along the edge so far. Each superstep simultaneously pushes
    every candidate ``r ≥ theta``: its pre-superstep ``r`` moves to
    ``out``, the pushed ``r`` summed by ``dst`` is the income inc, and every
    edge ⟨v,w⟩ gains (1-α)·inc(v)·p. The strict ``r > 0`` guard keeps zero
    residues from ever being candidates, even where a threshold is or
    underflows to 0. A pushed edge is one edge touch.

    Scan switch (§6.2, Wu et al.'s PowForPush): with ``scan`` set, a
    superstep whose candidates' units outnumber :data:`SCAN_FRAC` · Σunit
    pushes *every* edge with r > 0, a sequential pass over the residue
    array, instead of only the candidates; pushes and touches are booked
    for what is pushed.

    Superstep 1 reads a projection of the static frame (θ, r, ``out`` = 0),
    partitioned by ``src`` like every state after it, so a superstep
    shuffles at most the income, and nothing at one partition (every state
    of at most :data:`ROWS_PER_PARTITION` rows). The driver counts
    superstep 1's candidate edges and units, and the same for r > 0, in
    numpy over the source's out-edges; the checkpoint after each superstep
    computes the next superstep's counts as observed metrics
    (``DataFrame.observe``) in its own job. So a superstep is one Spark job.
    The run stops when no edge is a candidate, or unconverged after
    ``max_supersteps``; ``cost`` brackets the loop, and one job after it
    collects the terminal state: a query on a graph whose frame is built
    launches supersteps + 1 jobs.
    """
    csr = graph.csr
    edges = static_edges(graph)
    factors = th.edge_factors(csr)
    lo, hi = csr.indptr[source], csr.indptr[source + 1]
    r0 = (1.0 - alpha) * (csr.weights[lo:hi] / csr.deg[source])  # the frame's (1-α)·p
    cand0 = (r0 >= theta(factors)[lo:hi]) & (r0 > 0)
    nz0 = r0 > 0
    if per_node:  # the source's unit sits on its first edge
        unit_col, units, scan_size = ["unit"], F.col("unit"), int(np.count_nonzero(np.diff(csr.indptr)))
        unit0 = np.arange(hi - lo) == 0
    else:
        unit_col, units, scan_size = [], F.lit(1), csr.nnz
        unit0 = np.ones(hi - lo, dtype=bool)
    agg = {
        "n_cand": int(cand0.sum()),
        "cand_units": int(unit0[cand0].sum()),
        "n_nz": int(nz0.sum()),
        "nz_units": int(unit0[nz0].sum()),
    }
    r, out, p = F.col("r"), F.col("out"), F.col("p")
    is_cand = (r >= F.col("theta")) & (r > 0)
    nonzero = r > 0
    counts = (
        F.sum(is_cand.cast("long")).alias("n_cand"),
        F.sum(F.when(is_cand, units).otherwise(0)).alias("cand_units"),
        F.sum(nonzero.cast("long")).alias("n_nz"),
        F.sum(F.when(nonzero, units).otherwise(0)).alias("nz_units"),
    )
    static = [F.col(c) for c in ("src", "dst", "p", "theta", *unit_col)]
    income = F.sum("r").alias("inc")
    # the income v receives feeds v's out-edges: group it by dst as src
    dst_as_src = F.col("dst").alias("src")
    received = (1.0 - alpha) * F.coalesce(F.col("inc"), F.lit(0.0)) * p

    def step(push_cond: Column) -> Callable[[DataFrame], DataFrame]:
        columns = [
            *static,
            (F.when(push_cond, 0.0).otherwise(r) + received).alias("r"),
            (out + F.when(push_cond, r).otherwise(0.0)).alias("out"),
        ]
        return lambda s: s.join(
            s.filter(push_cond).groupBy(dst_as_src).agg(income), "src", "left"
        ).select(*columns)

    def counted_checkpoint(df: DataFrame) -> tuple[DataFrame, dict]:
        obs = Observation()
        df = state_checkpoint(df.observe(obs, *counts))
        return df, obs.get

    cand_step = step(is_cand)
    scan_step = step(nonzero) if scan else None
    state = edges.select(
        "src",
        "dst",
        "p",
        theta(column_factors(factors)).alias("theta"),
        *unit_col,
        F.when(F.col("src") == source, (1.0 - alpha) * p).otherwise(0.0).alias("r"),
        F.lit(0.0).alias("out"),
    )
    cost.start()
    for _ in range(max_supersteps):
        if not agg["n_cand"]:
            break
        scans = scan and agg["cand_units"] > SCAN_FRAC * scan_size
        cost.add_superstep(
            pushes=agg["nz_units"] if scans else agg["cand_units"],
            edge_touches=agg["n_nz"] if scans else agg["n_cand"],
        )
        state, agg = counted_checkpoint((scan_step if scans else cand_step)(state))
    cost.stop()
    final = state.select("src", "dst", "r", "out").toPandas()
    return final.sort_values(["src", "dst"], ignore_index=True), not agg["n_cand"]
