"""Synthetic weighted-graph generators.

The paper evaluates on (i) unweighted graphs turned into motif-weighted
graphs, (ii) real weighted graphs with skewed weight distributions, and
(iii) fully-connected affinity graphs. We cannot download the originals in
this offline reproduction, so these generators produce deterministic
laptop-scale graphs with controllable *unbalancedness* — the one property
the paper's theory says EdgePush's advantage depends on (``cos²φ``,
Lemma 6).

All generators return an undirected edge list as a pandas DataFrame with
columns ``src, dst, weight`` (one row per undirected edge, ``src < dst``),
node ids contiguous in ``[0, n)``; wrap with
:func:`repro.graphs.graph.WeightedGraph.from_undirected_pandas`. The weight
models (:func:`lognormal_weights`, :func:`zipf_weights`,
:func:`motif_weights`) take such a list and return one with new weights;
all of this is numpy on the driver.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def _dedup(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalize (min,max), drop self-loops and duplicates."""
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return pairs[:, 0], pairs[:, 1]


def _ensure_connected_ids(src: np.ndarray, dst: np.ndarray, n: int):
    """Chain-link any isolated node so ids stay contiguous and every node
    has at least one edge (keeps degree-based source sampling well-defined)."""
    present = np.zeros(n, dtype=bool)
    present[src] = True
    present[dst] = True
    missing = np.flatnonzero(~present)
    if missing.size:
        extra_src = missing
        extra_dst = (missing + 1) % n
        src = np.concatenate([src, extra_src])
        dst = np.concatenate([dst, extra_dst])
        src, dst = _dedup(src, dst)
    return src, dst


def star_bad_case(n: int = 100, *, tail: int = 1) -> pd.DataFrame:
    """The paper's Figure-1 adversarial graph for LocalPush.

    Hub ``u = 0`` has one *heavy* edge to ``v1 = 1`` of weight ``1 - 1/n``
    and ``n-2`` *light* edges to ``2..n-1`` sharing total weight ``1/n``.
    ``v1`` additionally chains to ``tail`` extra nodes (the paper's node
    ``w``). LocalPush pays Θ(n) per push at the hub; EdgePush with the
    Theorem-2 thresholds only pushes the heavy edge.
    """
    assert n >= 4
    light = (1.0 / n) / (n - 2)
    src = [0] * (n - 1)
    dst = list(range(1, n))
    w = [1.0 - 1.0 / n] + [light] * (n - 2)
    for t in range(tail):
        src.append(1 if t == 0 else n + t - 1)
        dst.append(n + t)
        w.append(1.0)
    return pd.DataFrame({"src": src, "dst": dst, "weight": np.asarray(w)})


def complete_unbalanced(n: int = 64, *, heavy: float = 1.0, light: float | None = None) -> pd.DataFrame:
    """Complete graph where each node is ≈(1/n, 1-1/n)-unbalanced.

    A ring of heavy edges (weight ``heavy``) overlaid on a complete graph of
    light edges; with ``light = heavy/n²`` each node's two ring edges carry
    ≈ all of its degree, so ``cos²φ = Θ(1/n)`` — the paper's O(n)-speedup
    regime (§5.3, second bullet).
    """
    if light is None:
        light = heavy / (n * n)
    iu, ju = np.triu_indices(n, k=1)
    w = np.full(iu.size, light)
    ring = (ju - iu == 1) | ((iu == 0) & (ju == n - 1))
    w[ring] = heavy
    return pd.DataFrame({"src": iu, "dst": ju, "weight": w})


def er_graph(n: int, p: float, *, seed: int = 0) -> pd.DataFrame:
    """Erdős–Rényi topology, unit weights."""
    g = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = g.random(iu.size) < p
    src, dst = _ensure_connected_ids(iu[keep], ju[keep], n)
    return pd.DataFrame({"src": src, "dst": dst, "weight": np.ones(src.size)})


def powerlaw_graph(n: int, m: int, *, exponent: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """Skewed-degree topology via a Chung–Lu-style configuration sample.

    Endpoints are drawn i.i.d. from a Zipf(``exponent``) distribution over
    nodes; duplicates and self-loops are dropped, so the realized edge count
    is slightly below ``m``. Unit weights (weight models are applied on
    top, e.g. :func:`lognormal_weights` or :func:`motif_weights`).
    """
    g = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1)
    p = 1.0 / ranks**exponent
    p /= p.sum()
    draws = int(m * 1.35) + 8
    src = g.choice(n, size=draws, p=p)
    dst = g.choice(n, size=draws, p=p)
    src, dst = _dedup(src, dst)
    if src.size > m:
        sel = g.choice(src.size, size=m, replace=False)
        src, dst = src[sel], dst[sel]
    src, dst = _ensure_connected_ids(src, dst, n)
    return pd.DataFrame({"src": src, "dst": dst, "weight": np.ones(src.size)})


def lognormal_weights(
    edges: pd.DataFrame, *, target_cos2: float, seed: int = 0
) -> pd.DataFrame:
    """Replace weights with i.i.d. log-normals tuned to hit ``cos²φ``.

    For i.i.d. weights, ``cos²φ → E[√W]²/E[W]``; with ``W ~ LogNormal(0,σ²)``
    that ratio is ``exp(-σ²/4)``, so ``σ² = 4·ln(1/target)`` hits the target
    in expectation. This is how we match each real dataset's published
    unbalancedness (Table 2) without its data.
    """
    assert 0 < target_cos2 <= 1
    sigma = 2.0 * np.sqrt(np.log(1.0 / target_cos2))
    g = np.random.default_rng(seed)
    out = edges.copy()
    out["weight"] = g.lognormal(mean=0.0, sigma=sigma, size=len(edges))
    return out


def zipf_weights(edges: pd.DataFrame, *, alpha: float = 1.5, seed: int = 0) -> pd.DataFrame:
    """Heavy-tailed integer-ish weights (Pareto), like motif/count weights."""
    g = np.random.default_rng(seed)
    out = edges.copy()
    out["weight"] = np.ceil(g.pareto(alpha, size=len(edges)) + 1.0)
    return out


def motif_weights(edges: pd.DataFrame) -> pd.DataFrame:
    """Weight each edge by φ(e), the number of triangles it lies on.

    This is MAPPR's clique3 motif weighting (Yin et al., KDD 2017), which
    the paper applies to its four unweighted datasets: φ(u,v) =
    |N(u) ∩ N(v)|. The input's weights are ignored and its pairs are
    canonicalized; edges with φ = 0 drop out, and the ids of the nodes
    left are remapped to a contiguous ``[0, n)``. Raises ``ValueError``
    when no edge lies on a triangle, which would leave no node to query.
    """
    src, dst = _dedup(edges["src"].to_numpy(np.int64), edges["dst"].to_numpy(np.int64))
    # both directions sorted by (head, tail): N(u) is tail[lo:hi] of u's run
    head, tail = np.concatenate([src, dst]), np.concatenate([dst, src])
    order = np.lexsort((tail, head))
    head, tail = head[order], tail[order]
    lo = np.searchsorted(head, [src, dst], side="left")
    hi = np.searchsorted(head, [src, dst], side="right")
    phi = np.array(
        [
            np.intersect1d(tail[a:b], tail[c:d], assume_unique=True).size
            for a, b, c, d in zip(lo[0], hi[0], lo[1], hi[1])
        ],
        dtype=np.float64,
    )
    keep = phi > 0
    if not keep.any():
        raise ValueError("no edge lies on a triangle")
    _, ids = np.unique(np.concatenate([src[keep], dst[keep]]), return_inverse=True)
    u, v = np.split(ids, 2)
    return pd.DataFrame({"src": u, "dst": v, "weight": phi[keep]})
