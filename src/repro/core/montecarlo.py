"""The α-walker behind every walk-based method (§3).

π(u) is the probability that an α-random walk from s stops at u, so walks
give an unbiased estimate. The walk phase of
:mod:`repro.core.fora` (plain Monte-Carlo, FORA and SpeedPPR) builds the
walk starts and calls :func:`run_walks`; this module only simulates them.

The walks run on the driver, over the graph's CSR that every walk query
already collects (``WeightedGraph.csr``), in one vectorized numpy loop: per
round every alive walk stops with probability α and the survivors move at
once. Weighted neighbor sampling uses the sorted-key trick: with edges
grouped by ascending ``src`` and within-node cumulative transition
probabilities ``cp ∈ (0,1]``, the array ``key = src + cp`` is globally
sorted, so one ``np.searchsorted(key, cur + U(0,1))`` picks a
weight-proportional neighbor for a whole batch of walkers at once. One RNG
stream, seeded per call, draws for all walks in the order of their starts.
FORA and SpeedPPR walk single-threaded over an in-memory CSR the same way;
the largest walk count the experiments reach (plain MC at δ = 1e-3 on
TH-lite, about 75k walks) runs in well under a second, so the loop is not
chunked.

The standard walk count for relative error ε_r with failure probability
p_f at threshold δ (following FORA/SpeedPPR):
``ω = (2ε_r/3 + 2)·ln(2/p_f) / (ε_r²·δ)``.
"""
from __future__ import annotations

import math

import numpy as np

from repro.graphs.graph import CSR


def walk_count(*, delta: float, eps_r: float = 0.5, p_f: float) -> int:
    """ω = (2ε_r/3 + 2)·ln(2/p_f)/(ε_r²·δ) (FORA's Chernoff-derived count).
    Raises ``ValueError`` unless δ > 0, ε_r > 0 and 0 < p_f < 1."""
    if not (delta > 0 and eps_r > 0 and 0 < p_f < 1):
        raise ValueError(
            f"walk parameters need delta > 0, eps_r > 0 and 0 < p_f < 1, "
            f"got delta={delta}, eps_r={eps_r}, p_f={p_f}"
        )
    return int(math.ceil((2 * eps_r / 3 + 2) * math.log(2 / p_f) / (eps_r**2 * delta)))


def run_walks(
    csr: CSR,
    start: np.ndarray,
    contrib: np.ndarray,
    *,
    alpha: float = 0.2,
    seed: int = 0,
) -> tuple[np.ndarray, int]:
    """Simulate one α-walk from each ``start[i]``, adding ``contrib[i]`` to
    its terminal node. Returns (the summed contributions as a dense vector
    over the n nodes, total steps taken).

    Per round every alive walk stops with probability α, survivors move to
    a weight-proportional neighbor in one searchsorted. Deterministic in
    ``seed`` and the order of ``start``.
    """
    key = csr.src.astype(np.float64) + csr.cum_prob()
    rng = np.random.default_rng(seed)
    cur = np.array(start, dtype=np.int64)
    alive = np.arange(cur.size)
    steps = 0
    while alive.size:
        alive = alive[rng.random(alive.size) >= alpha]
        x = rng.random(alive.size) * (1 - 1e-12)
        cur[alive] = csr.indices[np.searchsorted(key, cur[alive] + x, side="right")]
        steps += alive.size
    return np.bincount(cur, weights=contrib, minlength=csr.n), steps
