"""Termination-threshold settings (Theorems 2 & 3) and Table-1 cost bounds.

EdgePush's key knob is the per-edge termination threshold θ(u,v). The paper
derives Cauchy–Schwarz-optimal settings:

- ℓ1-error ε (Theorem 2):   θ(u,v) = ε·√A_uv / Σ_{⟨x,y⟩∈Ē} √A_xy
- normalized additive error r_max (Theorem 3):
                            θ(u,v) = r_max·d(v)·√A_uv / Σ_{x∈N(v)} √A_xv

LocalPush's node threshold d(u)·θ is the per-edge threshold
θ(u,v) = (1-α)·θ·A_uv on its edge residues (:func:`theta_local`).

All three are numpy arrays over the CSR's directed edges; the sequential
reference reads them directly and :func:`thresholds_df` attaches them to
the edges as a Spark DataFrame for the distributed batch EdgePush.

One cost bound serves both push algorithms, per source s with PPR vector
π_s: Lemma 3's :func:`edgepush_source_cost`, which at :func:`theta_local`
is Lemma 11's bound for LocalPush term for term. The Table-1 experiment
checks measured work against it. The expected cost over a degree-sampled
source is the same bound at the stationary vector π̄ = d/‖A‖₁, the mean of
π_s under that distribution.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.graphs.graph import CSR, WeightedGraph


# Smallest normal double. θ ∝ √A_uv can *underflow to 0* on graphs with
# extreme weight ranges (e.g. Gaussian-kernel affinity weights ~1e-300);
# a zero threshold makes zero-residue edges permanently eligible
# (0 ≥ 0), so every θ is floored here. The floor adds ≤ 2m·2.2e-308 to the
# Lemma-4/5 error budgets — far below double precision of any tolerance.
THETA_FLOOR = float(np.finfo(np.float64).tiny)


# --------------------------------------------------------------- numpy (CSR)
def theta_l1(csr: CSR, eps: float) -> np.ndarray:
    """Theorem-2 thresholds, per directed edge of the CSR."""
    sq = np.sqrt(csr.weights)
    return np.maximum(eps * sq / sq.sum(), THETA_FLOOR)


def theta_additive(csr: CSR, rmax: float) -> np.ndarray:
    """Theorem-3 thresholds, per directed edge ⟨u,v⟩ of the CSR.

    Depends on the *destination* v: θ(u,v) = r_max·d(v)·√A_uv / S(v) with
    S(v) = Σ_{x∈N(v)} √A_xv. The graph is symmetric, so S(v) equals the
    sqrt-weight sum over v's out-edges.
    """
    sq = np.sqrt(csr.weights)
    s_per_node = np.bincount(csr.src, weights=sq, minlength=csr.n)
    v = csr.indices
    return np.maximum(rmax * csr.deg[v] * sq / s_per_node[v], THETA_FLOOR)


def theta_local(csr: CSR, theta: float, *, alpha: float) -> np.ndarray:
    """LocalPush's node test r(u) ≥ d(u)·θ as a per-edge threshold
    (1-α)·θ·A_uv on its edge residues R_uv = (1-α)·r(u)·A_uv/d(u). No
    floor: θ = 0 is the Power Method, which pushes every edge with
    residue."""
    return (1.0 - alpha) * theta * csr.weights


# ------------------------------------------------------------ Spark builder
_THETAS = {"l1": theta_l1, "additive": theta_additive}


def thresholds_df(graph: WeightedGraph, *, mode: str, tol: float) -> DataFrame:
    """Edge DataFrame ``(src, dst, weight, p, theta)`` for batch EdgePush.

    ``mode``: ``"l1"`` (Theorem 2, ``tol`` = ε) or ``"additive"`` (Theorem 3,
    ``tol`` = r_max).
    """
    if mode not in _THETAS:
        raise ValueError(f"unknown threshold mode: {mode!r}")
    return graph.edge_frame(theta=_THETAS[mode](graph.csr, tol))


# ------------------------------------------------------------ Table-1 cost bounds
def edgepush_source_cost(
    csr: CSR, pi: np.ndarray, theta_edge: np.ndarray, *, alpha: float
) -> float:
    """Lemma 3's per-source bound Σ_Ē (1-α)·π(u)·A_uv/(α·d(u)·θ(u,v)). At
    :func:`theta_local` it is Lemma 11's Σ_u n(u)·π(u)/(α·θ·d(u)), summed
    over the directed edges so that a node without edges adds nothing."""
    u = csr.src
    return float(
        np.sum((1.0 - alpha) * pi[u] * csr.weights / (alpha * csr.deg[u] * theta_edge))
    )
