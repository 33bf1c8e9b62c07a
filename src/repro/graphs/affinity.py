"""Fully-connected affinity graphs (§6.3 unbalancedness analysis).

The paper generates four affinity graphs with 10⁵ nodes: each node is a
data point x_i ~ N(0, σ_N²·I_κ); every pair is connected with weight
``A_ij = exp(-‖x_i-x_j‖²/(2σ²))``. Their four configurations
(κ, σ_N², c) = (1,10³,0.1), (1,50,1), (13,50,1), (20,50,1) yield graphs
with cos²φ = (0.01, 0.14, 0.38, 0.66) — increasing balance as dimension κ
grows because pairwise distances concentrate.

The paper's exact kernel width σ² = c·d²·σ_N² is ambiguous (the symbol d
is not defined in §6.3) and, at laptop-scale n, plausible readings do not
land on their cos²φ values. Since Figures 16/17 are *parameterized by*
cos²φ — it is the x-axis of the claim being tested — we keep the paper's
construction (Gaussian points, Gaussian kernel, same κ/σ_N² per config)
and calibrate σ² by bisection so each graph hits the paper's published
cos²φ. This substitution is recorded in DESIGN.md §5.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

# (κ, σ_N²) for the four graphs of Figures 16–17, left to right.
PAPER_CONFIGS = [
    {"kappa": 1, "sigma_n2": 1e3},
    {"kappa": 1, "sigma_n2": 50.0},
    {"kappa": 13, "sigma_n2": 50.0},
    {"kappa": 20, "sigma_n2": 50.0},
]
# the paper's measured unbalancedness for those graphs, left to right
PAPER_COS2 = [0.01, 0.14, 0.38, 0.66]
PAPER_ADD_FACTOR = [0.01, 0.14, 0.41, 0.77]

_W_FLOOR = 1e-300  # exp underflow guard; keeps the graph fully connected


def _pairwise_d2(n: int, kappa: int, sigma_n2: float, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed)
    x = g.normal(0.0, np.sqrt(sigma_n2), size=(n, kappa))
    sq = (x**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    iu, ju = np.triu_indices(n, k=1)
    return d2[iu, ju]


def _cos2_of_weights(w: np.ndarray) -> float:
    return float(np.sqrt(w).sum() ** 2 / (w.size * w.sum()))


def _kernel(d2: np.ndarray, sigma2: float) -> np.ndarray:
    """Gaussian-kernel weights exp(-d²/2σ²), floored at ``_W_FLOOR``."""
    return np.maximum(np.exp(-d2 / (2.0 * sigma2)), _W_FLOOR)


def calibrated_affinity_graph(
    n: int, *, kappa: int, sigma_n2: float, target_cos2: float, seed: int = 0
) -> pd.DataFrame:
    """Affinity graph whose kernel width is bisected to hit ``target_cos2``.

    cos²φ of exp(-d²/2σ²) weights is strictly increasing in σ² (σ²→∞ gives
    all-equal weights, cos²φ→1; σ²→0 concentrates all weight on the closest
    pair), so bisection on log σ² converges for any target in (0, 1).
    """
    d2 = _pairwise_d2(n, kappa, sigma_n2, seed)
    scale = float(np.mean(d2))

    def cos2_at(log_mult: float) -> float:
        return _cos2_of_weights(_kernel(d2, scale * np.exp(log_mult)))

    lo, hi = -12.0, 12.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cos2_at(mid) < target_cos2:
            lo = mid
        else:
            hi = mid
    sigma2 = scale * np.exp(0.5 * (lo + hi))
    iu, ju = np.triu_indices(n, k=1)
    return pd.DataFrame({"src": iu, "dst": ju, "weight": _kernel(d2, sigma2)})


def paper_affinity_graphs(n: int, *, seed: int = 0) -> list[pd.DataFrame]:
    """The four §6.3 graphs, calibrated to the paper's cos²φ values."""
    return [
        calibrated_affinity_graph(
            n, **cfg, target_cos2=c2, seed=seed + i
        )
        for i, (cfg, c2) in enumerate(zip(PAPER_CONFIGS, PAPER_COS2))
    ]
