"""Unbalancedness characterization (§5.3): cos²φ and cos²φ_v.

These quantities predict EdgePush's advantage over LocalPush:

- ``cos²φ`` — squared cosine between ζ = (√A_uv)_{⟨u,v⟩∈Ē} and the all-one
  vector; the ℓ1-regime improvement factor is (1-α)·cos²φ (Lemma 6).
- ``cos²φ_v`` — per-node analogue over v's incident edges; the additive
  regime factor is (1-α)/2m · Σ_v n(v)·cos²φ_v (Lemma 7).
"""
from __future__ import annotations

import numpy as np

from repro.graphs.graph import CSR


def cos2_phi(csr: CSR) -> float:
    """(Σ_Ē √A_uv)² / (2m · ‖A‖₁) — Lemma 6's unbalancedness measure."""
    sq = np.sqrt(csr.weights).sum()
    return float(sq * sq / (csr.nnz * csr.weights.sum()))


def cos2_phi_v(csr: CSR) -> np.ndarray:
    """Per-node (Σ_{x∈N(v)}√A_xv)² / (n(v)·d(v)); by symmetry computed
    over each node's out-edges."""
    sq_sum = np.bincount(csr.src, weights=np.sqrt(csr.weights), minlength=csr.n)
    n_v = csr.out_degree().astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(n_v > 0, sq_sum**2 / (n_v * csr.deg), 0.0)
    return c


def additive_unbalance_factor(csr: CSR) -> float:
    """Σ_v n(v)·cos²φ_v / 2m ∈ (0, 1] — Lemma 7 / Figs 16–17's x-axis."""
    return float((csr.out_degree() * cos2_phi_v(csr)).sum() / csr.nnz)


def l1_improvement(csr: CSR, *, alpha: float) -> float:
    """Predicted EdgePush/LocalPush cost ratio, ℓ1 regime: (1-α)·cos²φ."""
    return (1.0 - alpha) * cos2_phi(csr)


def additive_improvement(csr: CSR, *, alpha: float) -> float:
    """Predicted cost ratio, additive regime: (1-α)/2m · Σ n(v)cos²φ_v."""
    return (1.0 - alpha) * additive_unbalance_factor(csr)

