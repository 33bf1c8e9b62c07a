"""Evaluation metrics used in the paper's experiment section (§6).

- ``actual ℓ1-error``          ‖π̂ − π‖₁
- ``MaxAddErr``                max_u |π̂(u) − π(u)|
- ``normalized MaxAddErr``     max_u |π̂(u)−π(u)|/d(u)
- ``precision@k``              overlap of estimated vs true top-k
  (``normalized`` variant ranks by π(u)/d(u), the local-clustering score)
- ``conductance`` + the sweep-cut procedure of §2 (steps i–iii), the local
  clustering application driving Figs 6/9.

All metrics are numpy: vector metrics over dense vectors indexed by node id
(a ``PPRResult.estimate``), conductance over the graph's CSR.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.graph import CSR


def l1_error(est: np.ndarray, gt: np.ndarray) -> float:
    return float(np.abs(est - gt).sum())


def max_add_err(est: np.ndarray, gt: np.ndarray) -> float:
    return float(np.abs(est - gt).max())


def normalized_max_add_err(est: np.ndarray, gt: np.ndarray, deg: np.ndarray) -> float:
    """max over nodes with d(u) > 0: a node without edges has π = π̂ = 0
    under every method, and 0/0 would make the maximum NaN."""
    has_edges = deg > 0
    return float((np.abs(est - gt)[has_edges] / deg[has_edges]).max())


def precision_at_k(
    est: np.ndarray, gt: np.ndarray, *, k: int = 50, deg: np.ndarray | None = None
) -> float:
    """Fraction of the true top-k recovered by the estimate's top-k; on a
    graph with fewer than k nodes the top-k is every node, so the fraction
    is of min(k, n).

    With ``deg`` given this is the paper's *normalized precision@k*: both
    sides rank by π(u)/d(u). Ties are broken by node id (stable argsort on
    the negated scores), matching a deterministic C++ sort.
    """
    s_est = est / deg if deg is not None else est
    s_gt = gt / deg if deg is not None else gt
    top_est = np.argsort(-s_est, kind="stable")[:k]
    top_gt = np.argsort(-s_gt, kind="stable")[:k]
    return len(set(top_est.tolist()) & set(top_gt.tolist())) / min(k, len(gt))


def conductance_of_set(csr: CSR, members: np.ndarray) -> float:
    """Φ(S) = cut(S) / min(vol(S), vol(V∖S)) for a boolean membership mask."""
    vol_s = float(csr.deg[members].sum())
    vol_rest = float(csr.deg.sum()) - vol_s
    crossing = members[csr.src] != members[csr.indices]
    cut = float(csr.weights[crossing].sum()) / 2.0  # each undirected edge seen twice
    denom = min(vol_s, vol_rest)
    return cut / denom if denom > 0 else np.inf


def sweep_conductance(csr: CSR, score: np.ndarray) -> tuple[float, int]:
    """The §2 sweep: order nodes by ``score`` (callers pass π̂(u)/d(u))
    descending over its support, and return the minimum conductance over
    all prefixes S_i with that prefix's size. Incremental: adding v changes
    cut += d(v) − 2·w(v→S), vol += d(v).

    Returns ``inf`` when the score has empty support (e.g. a push run whose
    threshold was too loose to ever push — on heavily weighted graphs
    ``r(s) = 1 < d(s)·θ`` can hold already at the source): no cluster found.
    """
    order = np.argsort(-score, kind="stable")
    order = order[score[order] > 0]
    total_vol = float(csr.deg.sum())
    in_s = np.zeros(csr.n, dtype=bool)
    vol = 0.0
    cut = 0.0
    best = np.inf
    best_size = 0
    for i, v in enumerate(order):
        lo, hi = csr.indptr[v], csr.indptr[v + 1]
        w_to_s = float(csr.weights[lo:hi][in_s[csr.indices[lo:hi]]].sum())
        cut += csr.deg[v] - 2.0 * w_to_s
        vol += csr.deg[v]
        in_s[v] = True
        denom = min(vol, total_vol - vol)
        phi = cut / denom if denom > 0 else np.inf
        if phi < best:
            best, best_size = phi, i + 1
    return best, best_size

