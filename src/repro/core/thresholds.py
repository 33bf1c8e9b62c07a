"""Termination-threshold settings (Theorems 2 & 3) and Table-1 cost bounds.

EdgePush's key knob is the per-edge termination threshold θ(u,v). The paper
derives Cauchy–Schwarz-optimal settings:

- ℓ1-error ε (Theorem 2):   θ(u,v) = ε·√A_uv / Σ_{⟨x,y⟩∈Ē} √A_xy
- normalized additive error r_max (Theorem 3):
                            θ(u,v) = r_max·d(v)·√A_uv / Σ_{x∈N(v)} √A_xv

Both are numpy arrays over the CSR's directed edges; the sequential
reference reads them directly and :func:`thresholds_df` attaches them to
the edges as a Spark DataFrame for the distributed batch EdgePush. The
predicted expected-cost bounds of Table 1 / Lemma 3
are also computed here for the complexity-reproduction experiment.
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


def theta_uniform(csr: CSR, theta: float) -> np.ndarray:
    """A flat per-edge threshold (ablation: EdgePush without Thm-2/3 tuning)."""
    return np.full(csr.nnz, max(theta, THETA_FLOOR))


# ------------------------------------------------------------ Spark builder
_THETAS = {"l1": theta_l1, "additive": theta_additive, "uniform": theta_uniform}


def thresholds_df(graph: WeightedGraph, *, mode: str, tol: float) -> DataFrame:
    """Edge DataFrame ``(src, dst, weight, p, theta)`` for batch EdgePush.

    ``mode``: ``"l1"`` (Theorem 2, ``tol`` = ε), ``"additive"`` (Theorem 3,
    ``tol`` = r_max) or ``"uniform"`` (flat θ = ``tol``).
    """
    if mode not in _THETAS:
        raise ValueError(f"unknown threshold mode: {mode!r}")
    return graph.edge_frame(theta=_THETAS[mode](graph.csr, tol))


# ----------------------------------------------------- Table-1 cost predictions
def localpush_expected_cost(csr: CSR, *, alpha: float, theta: float) -> float:
    """Fact 1/2, Lemma 11: E[cost] = 2m / (α·θ·‖A‖₁) for a degree-sampled source."""
    return csr.nnz / (alpha * theta * csr.norm_a())


def edgepush_expected_cost(csr: CSR, theta_edge: np.ndarray, *, alpha: float) -> float:
    """Lemma 3: E[cost] = Σ_Ē (1-α)·A_uv / (α·‖A‖₁·θ(u,v))."""
    return float(
        np.sum((1.0 - alpha) * csr.weights / (alpha * csr.norm_a() * theta_edge))
    )


def localpush_source_cost(csr: CSR, pi: np.ndarray, *, alpha: float, theta: float) -> float:
    """Lemma 11's per-source bound Σ_u n(u)·π(u)/(α·θ·d(u))."""
    n_u = csr.out_degree()
    return float(np.sum(n_u * pi / (alpha * theta * csr.deg)))


def edgepush_source_cost(
    csr: CSR, pi: np.ndarray, theta_edge: np.ndarray, *, alpha: float
) -> float:
    """Lemma 3's per-source bound Σ_Ē (1-α)·π(u)·A_uv/(α·d(u)·θ(u,v))."""
    u = csr.src
    return float(
        np.sum((1.0 - alpha) * pi[u] * csr.weights / (alpha * csr.deg[u] * theta_edge))
    )
