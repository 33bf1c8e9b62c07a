"""Driver-side references that every benchmarked query is checked against.

- :func:`batch_edge_push` / :func:`batch_local_push` replay the Spark batch
  schedule of ``repro.core.edgepush`` / ``repro.core.localpush`` in numpy:
  every superstep pushes all candidates at once. They return the number of
  supersteps and edge touches that schedule must produce, so a Spark query
  whose work count differs from them is a failure. (The sequential FIFO
  references in ``repro.core.sequential`` push in another order and touch a
  different number of edges, so they serve for timing only.)
- :func:`error_to_bound` is the measured error of an estimate divided by the
  bound the paper proves for its mode; a ratio above 1 breaks the bound.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.graph import CSR


def batch_edge_push(
    csr: CSR, source: int, theta_edge: np.ndarray, *, alpha: float
) -> tuple[int, int]:
    """(supersteps, edge touches) of batch EdgePush with per-edge ``theta_edge``."""
    src, dst = csr.src, csr.indices
    p = csr.weights / csr.deg[src]
    r = np.where(src == source, (1.0 - alpha) * p, 0.0)
    supersteps = touches = 0
    while True:
        cand = (r >= theta_edge) & (r > 0)
        k = int(cand.sum())
        if not k:
            return supersteps, touches
        inc = np.bincount(dst[cand], weights=r[cand], minlength=csr.n)
        r = np.where(cand, 0.0, r) + (1.0 - alpha) * inc[src] * p
        supersteps += 1
        touches += k


def batch_local_push(
    csr: CSR, source: int, *, alpha: float, theta: float
) -> tuple[int, int]:
    """(supersteps, edge touches) of batch LocalPush with node threshold ``d(u)·θ``."""
    src, dst = csr.src, csr.indices
    p = csr.weights / csr.deg[src]
    nbrs = csr.out_degree()
    r = np.zeros(csr.n)
    r[source] = 1.0
    supersteps = touches = 0
    while True:
        active = (r >= csr.deg * theta) & (r > 0)
        if not active.any():
            return supersteps, touches
        sent = np.where(active, r, 0.0)
        inc = np.bincount(dst, weights=(1.0 - alpha) * sent[src] * p, minlength=csr.n)
        r = np.where(active, 0.0, r) + inc
        supersteps += 1
        touches += int(nbrs[active].sum())


def error_to_bound(
    mode: str, est: np.ndarray, gt: np.ndarray, deg: np.ndarray, tol: dict
) -> float:
    """Measured error over the paper's bound for ``mode``.

    - ``l1``: ‖π̂ − π‖₁ / ε (Lemma 4, Theorem 2; Fact 1 for LocalPush);
    - ``additive``: max_u |π̂(u) − π(u)| / d(u) / r_max (Theorem 3);
    - ``relative``: max over π(u) ≥ δ of |π̂(u) − π(u)| / (ε_r·π(u)) (FORA).
    """
    diff = np.abs(est - gt)
    if mode == "l1":
        return float(diff.sum() / tol["eps"])
    if mode == "additive":
        return float((diff / deg).max() / tol["rmax"])
    if mode == "relative":
        big = gt >= tol["delta"]
        return float((diff[big] / (tol["eps_r"] * gt[big])).max())
    raise ValueError(f"unknown error mode: {mode!r}")
