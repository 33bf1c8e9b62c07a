"""Termination-threshold settings (Theorems 2 & 3) and Table-1 cost bounds.

EdgePush's key knob is the per-edge termination threshold θ(u,v). The paper
derives Cauchy–Schwarz-optimal settings:

- ℓ1-error ε (Theorem 2):   θ(u,v) = ε·√A_uv / Σ_{⟨x,y⟩∈Ē} √A_xy
- normalized additive error r_max (Theorem 3):
                            θ(u,v) = r_max·d(v)·√A_uv / Σ_{x∈N(v)} √A_xv

LocalPush's node threshold d(u)·θ is the per-edge threshold
θ(u,v) = (1-α)·θ·A_uv on its edge residues (:func:`local`).

Each formula is written once (:func:`l1`, :func:`additive`, :func:`local`)
over :class:`Factors` and evaluated two ways: on numpy arrays in CSR order
(:func:`edge_factors`), which :func:`theta_l1`, :func:`theta_additive` and
:func:`theta_local` return for the sequential references and the Table-1
bounds, and on the Columns of a graph's static edge frame
(``repro.core.runtime.column_factors``), where the push loop computes θ.
Both apply the same operations in the same order and the same floor, so
the two θ are bit-identical.

One cost bound serves both push algorithms, per source s with PPR vector
π_s: Lemma 3's :func:`edgepush_source_cost`, which at :func:`theta_local`
is Lemma 11's bound for LocalPush term for term. The Table-1 experiment
checks measured work against it. The expected cost over a degree-sampled
source is the same bound at the stationary vector π̄ = d/‖A‖₁, the mean of
π_s under that distribution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.graphs.graph import CSR


# Smallest normal double. θ ∝ √A_uv can *underflow to 0* on graphs with
# extreme weight ranges (e.g. Gaussian-kernel affinity weights ~1e-300);
# a zero threshold makes zero-residue edges permanently eligible
# (0 ≥ 0), so every θ is floored here. The floor adds ≤ 2m·2.2e-308 to the
# Lemma-4/5 error budgets — far below double precision of any tolerance.
THETA_FLOOR = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class Factors:
    """θ's factors over the directed edges ⟨u,v⟩: A_uv (``weight``), √A_uv,
    d(v) and S(v) = Σ_{x∈N(v)} √A_xv, as numpy arrays in CSR order or as
    Spark Columns of the same names; ``sqrt_total`` = Σ_Ē √A_xy, a double
    either way; and ``floor``, the elementwise max with :data:`THETA_FLOOR`
    for that kind of value."""

    weight: Any
    sqrt_weight: Any
    deg_dst: Any
    sqrt_sum_dst: Any
    sqrt_total: float
    floor: Callable[[Any], Any]


# the per-edge fields of Factors: the factor columns of the static edge frame
FACTOR_COLUMNS = ("weight", "sqrt_weight", "deg_dst", "sqrt_sum_dst")


def edge_factors(csr: CSR) -> Factors:
    """θ's factors as numpy arrays over the CSR's directed edges. The graph
    is symmetric, so S(v) is the sqrt-weight sum over v's out-edges."""
    sq = np.sqrt(csr.weights)
    s_per_node = np.bincount(csr.src, weights=sq, minlength=csr.n)
    v = csr.indices
    return Factors(
        weight=csr.weights,
        sqrt_weight=sq,
        deg_dst=csr.deg[v],
        sqrt_sum_dst=s_per_node[v],
        sqrt_total=float(sq.sum()),
        floor=lambda x: np.maximum(x, THETA_FLOOR),
    )


# ------------------------------------------------------------- the formulas
def l1(f: Factors, eps: float):
    """Theorem 2: θ(u,v) = ε·√A_uv / Σ√A, floored."""
    return f.floor(eps * f.sqrt_weight / f.sqrt_total)


def additive(f: Factors, rmax: float):
    """Theorem 3: θ(u,v) = r_max·d(v)·√A_uv / S(v), floored."""
    return f.floor(rmax * f.deg_dst * f.sqrt_weight / f.sqrt_sum_dst)


def local(f: Factors, theta: float, *, alpha: float):
    """LocalPush's node test r(u) ≥ d(u)·θ as a per-edge threshold
    (1-α)·θ·A_uv on its edge residues R_uv = (1-α)·r(u)·A_uv/d(u). No
    floor: θ = 0 is the Power Method, which pushes every edge with
    residue."""
    return (1.0 - alpha) * theta * f.weight


_RULES = {"l1": l1, "additive": additive}


def edge_rule(mode: str, tol: float) -> Callable[[Factors], Any]:
    """EdgePush's θ for ``mode`` as a function of the factors: ``"l1"``
    (Theorem 2, ``tol`` = ε) or ``"additive"`` (Theorem 3, ``tol`` =
    r_max). Raises ``ValueError`` for another mode."""
    if mode not in _RULES:
        raise ValueError(f"unknown threshold mode: {mode!r}")
    rule = _RULES[mode]
    return lambda f: rule(f, tol)


# --------------------------------------------------------------- numpy (CSR)
def theta_l1(csr: CSR, eps: float) -> np.ndarray:
    """Theorem-2 thresholds, per directed edge of the CSR."""
    return l1(edge_factors(csr), eps)


def theta_additive(csr: CSR, rmax: float) -> np.ndarray:
    """Theorem-3 thresholds, per directed edge ⟨u,v⟩ of the CSR."""
    return additive(edge_factors(csr), rmax)


def theta_local(csr: CSR, theta: float, *, alpha: float) -> np.ndarray:
    """LocalPush's per-edge thresholds (:func:`local`) over the CSR."""
    return local(edge_factors(csr), theta, alpha=alpha)


def theta_edge(csr: CSR, mode: str, tol: float) -> np.ndarray:
    """EdgePush's thresholds for ``mode`` (:func:`edge_rule`) over the CSR."""
    return edge_rule(mode, tol)(edge_factors(csr))


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
