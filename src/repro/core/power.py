"""Power Method for SSPPR (baseline, §3) and the numpy ground truth.

The paper computes ground truths by running Power Method
``π^{(ℓ+1)} = (1-α)·P·π^{(ℓ)} + α·e_s`` for 100 iterations. We provide

- :func:`ground_truth` — a driver-side numpy implementation over the CSR
  (bincount-based sparse mat-vec), used as the oracle for every PPR test
  and for the error axes of all experiment tables;
- :func:`power_method` — the distributed baseline, run as LocalPush with
  θ = 0: every node holding residue, i.e. every edge with residue, pushes
  in every superstep (Wu et al.'s PowForPush observation). After L
  supersteps from π̂_0 = 0, r_0 = e_s, π̂_L = α·Σ_{i<L}((1-α)P)^i·e_s and
  r_L = ((1-α)P)^L·e_s, so π̂_L + r_L = π^{(L)}, the L-th iterate above.
  Each iteration is booked as one Θ(m) pass, 2m pushes and 2m edge touches
  (the inefficiency the paper contrasts local methods against), whatever
  the residue's support. The iterate π̂_L + r_L is numpy over LocalPush's
  dense per-node state.
"""
from __future__ import annotations

import numpy as np

from repro.core.localpush import local_push
from repro.core.runtime import CostStats, PPRResult
from repro.graphs.graph import CSR, WeightedGraph


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


def power_method(
    graph: WeightedGraph, source: int, *, alpha: float = 0.2, iters: int = 10
) -> PPRResult:
    """Distributed Power Method: ``iters`` supersteps of θ = 0 LocalPush,
    estimate π̂ + r = α·out + r. Raises ``ValueError`` for α ∉ (0,1), a
    source that is not a node with edges, or ``iters`` that is not an
    integer ≥ 0."""
    if not isinstance(iters, (int, np.integer)) or isinstance(iters, bool) or iters < 0:
        raise ValueError(f"iters must be an integer >= 0, got {iters!r}")
    res = local_push(graph, source, alpha=alpha, theta=0.0, max_supersteps=iters)
    est = res.estimate + res.state["r"].to_numpy()
    two_m = graph.csr.nnz
    cost = CostStats(
        supersteps=iters,
        pushes=iters * two_m,
        edge_touches=iters * two_m,
        wall_seconds=res.cost.wall_seconds,
    )
    return PPRResult(estimate=est, cost=cost)
