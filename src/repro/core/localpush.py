"""Distributed batch LocalPush (MAPPR) over DataFrames.

Algorithm 1 of the paper pushes one node at a time; on a dataflow engine we
run the standard bulk-synchronous formulation: every superstep
simultaneously pushes **all** nodes with ``r(u) ≥ d(u)·θ``. A batch push of
a set S applies each node's push on its pre-superstep residue, which
composes to a valid sequence of (partial) pushes, so Lemma 1's invariant —
and therefore Fact 1/2's error bounds at termination — hold unchanged.

Write u's residue on its edges as R_uv = (1-α)·r(u)·A_uv/d(u), the mass a
push of u sends along ⟨u,v⟩. The node test then holds on every edge of u at
once exactly when R_uv ≥ (1-α)·θ·A_uv
(:func:`repro.core.thresholds.theta_local`), and the income a node receives
feeds its out-edges as EdgePush's does: batch LocalPush is batch EdgePush at
that threshold. So the superstep, with the PowForPush scan switch over the
nodes with edges (a scan superstep is a power-iteration pass, cost ≈ 2m),
is :func:`repro.core.runtime.push_supersteps` with one push per node: its
unit is 1 on each node's first CSR edge. Work accounting matches the paper's:
each pushed node u costs n(u) edge touches, one per edge it writes (the
inefficiency EdgePush removes), and Lemma 11's bound is Lemma 3's at that
threshold.

The per-node state ``(node, r, out)`` is numpy over the terminal edge state
the loop collects: a node's r and pushed mass are its edges' sums divided by
(1-α), since Σ_v A_uv/d(u) = 1, and ``π̂ = α·out``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.runtime import CostStats, PPRResult, check_query, push_supersteps
from repro.core.thresholds import theta_local
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
    the terminal per-node state ``(node, r, out)`` over all n nodes as
    pandas: FORA/SpeedPPR compensate its residual with random walks. θ = 0
    pushes every node with residue, the Power Method. Raises ``ValueError``
    for α ∉ (0,1), a source that is not a node with edges, or θ < 0 or NaN.

    Scan supersteps and θ = 0 push every edge with R_uv > 0. Where
    (1-α)·inc·p underflows to 0 on an edge of a node that still holds
    residue (weights down to ~1e-300), that edge is neither pushed nor
    booked; it carries no mass, so every bound holds, but such a run's
    pushes and touches can fall below a node-level replay's.
    """
    check_query(graph.csr, source, alpha)
    if not theta >= 0:
        raise ValueError(f"theta must be >= 0, got {theta}")

    csr = graph.csr
    cost = CostStats()
    edges, converged = push_supersteps(
        graph,
        cost,
        theta=theta_local(csr, theta, alpha=alpha),
        unit=(np.diff(csr.src, prepend=-1) != 0).astype(np.int8),  # u's first edge
        source=source,
        alpha=alpha,
        scan_frac=scan_frac,
        max_supersteps=max_supersteps,
    )
    src = edges["src"].to_numpy()
    r, out = (np.bincount(src, edges[c], minlength=graph.n) / (1.0 - alpha) for c in ("r", "out"))
    state = pd.DataFrame({"node": np.arange(graph.n), "r": r, "out": out})
    return PPRResult(estimate=alpha * out, cost=cost, converged=converged, state=state)
