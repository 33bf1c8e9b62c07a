"""Faithful sequential LocalPush and EdgePush (reference implementations).

The paper's Algorithms 1 and 2 are inherently sequential: they repeatedly
pick *one* node (LocalPush) or *one* edge (EdgePush) and push it, with the
two-level priority-queue structure of §4.3 making each edge pick O(1)
amortized. These numpy/heapq implementations mirror that schedule exactly
and serve two purposes in the reproduction:

1. **semantic oracle** — the distributed batch versions in
   ``repro.core.localpush`` / ``repro.core.edgepush`` must terminate with
   the same invariants and (for identical thresholds) residues below the
   same bounds; tests cross-check their estimates against these. Both
   return a :class:`repro.core.runtime.PPRResult` like the batch methods:
   the dense π̂, the cost, and the terminal residues as ``state``.
2. **operation counting** — the Table-1 complexity experiment can measure
   this exact sequential schedule (``impl="sequential"``). Note the FIFO
   eligible-edge order is one of many the paper's structure admits: on
   *balanced* graphs it splits mass into many small edge pushes and can
   measure above LocalPush's count while still respecting Lemma 3's bound
   (each push moves ≥ θ(u,v)); the batch schedule is the order-free
   default measurement.

We use lazy-deletion binary heaps instead of the word-RAM O(1) priority
queue of Fact 3; that changes constants (O(log) per op), not the number of
pushes, which is the quantity the theory bounds.
"""
from __future__ import annotations

import heapq
from collections import deque

import numpy as np
import pandas as pd

from repro.core.runtime import CostStats, PPRResult, check_query
from repro.graphs.graph import CSR


def sequential_local_push(
    csr: CSR, source: int, *, alpha: float = 0.2, theta: float = 1e-6,
    max_pushes: int = 100_000_000,
) -> PPRResult:
    """Algorithm 1 (LocalPush / MAPPR) with a FIFO work queue.

    Pushes node ``u`` while ``r(u) ≥ d(u)·θ``; each push touches all n(u)
    incident edges — the inefficiency EdgePush removes on unbalanced graphs.
    The result's ``state`` is ``(node, r, out)`` over all n nodes, with
    ``out`` the residue pushed from the node, so π̂ = α·out, and
    ``converged`` is False when the run stopped at ``max_pushes`` with the
    queue not empty. Raises ``ValueError`` for α ∉ (0,1), a source that is
    not a node with edges, or θ ≤ 0 or NaN, which push zero mass until the
    cap.
    """
    check_query(csr, source, alpha)
    if not theta > 0:
        raise ValueError(f"theta must be > 0, got {theta}")
    r = np.zeros(csr.n)
    out = np.zeros(csr.n)
    r[source] = 1.0
    deg, indptr, indices, w = csr.deg, csr.indptr, csr.indices, csr.weights
    cost = CostStats().start()
    queue: deque[int] = deque([source])
    in_queue = np.zeros(csr.n, dtype=bool)
    in_queue[source] = True
    while queue and cost.pushes < max_pushes:
        u = queue.popleft()
        in_queue[u] = False
        ru = r[u]
        if ru < deg[u] * theta:
            continue
        out[u] += ru
        lo, hi = indptr[u], indptr[u + 1]
        nbrs = indices[lo:hi]
        r[nbrs] += (1.0 - alpha) * ru * w[lo:hi] / deg[u]
        r[u] = 0.0
        cost.add_superstep(pushes=1, edge_touches=hi - lo)
        for v in nbrs:
            if not in_queue[v] and r[v] >= deg[v] * theta:
                in_queue[v] = True
                queue.append(v)
    cost.stop()
    state = pd.DataFrame({"node": np.arange(csr.n), "r": r, "out": out})
    return PPRResult(estimate=alpha * out, cost=cost, converged=not queue, state=state)


def sequential_edge_push(
    csr: CSR, source: int, theta_edge: np.ndarray, *, alpha: float = 0.2,
    max_pushes: int = 100_000_000,
) -> PPRResult:
    """Algorithm 2 (EdgePush) with the §4.3 two-level candidate structure.

    Per node ``u`` a priority queue over u's out-edges keyed by
    ``k_u(v) = (Q_uv + θ(u,v)) / A_uv`` (Eq. 8); a global list of nodes with
    ``K_u = -(1-α)q(u)/d(u) + Q(u).top ≤ 0`` (Eq. 9). An edge ⟨u,v⟩ is a
    candidate iff its residue ``R_uv = (1-α)q(u)A_uv/d(u) - Q_uv ≥ θ(u,v)``
    (Observation 1). ``θ_edge`` is indexed like the CSR's directed edges.
    Raises ``ValueError`` for α ∉ (0,1), a source that is not a node with
    edges, or unless ``θ_edge`` has one θ > 0 per directed edge.

    The result's ``state`` is ``(src, dst, r, out)`` in CSR order, with
    ``r = R_uv`` and ``out = Q_uv``, the residue pushed along the edge, and
    ``converged`` is False when the run stopped at ``max_pushes`` with work
    left.
    """
    check_query(csr, source, alpha)
    deg, indptr, indices, w = csr.deg, csr.indptr, csr.indices, csr.weights
    theta_edge = np.asarray(theta_edge, dtype=np.float64)
    if theta_edge.shape != (csr.nnz,) or not np.all(theta_edge > 0):
        raise ValueError(f"theta_edge needs one value > 0 per directed edge ({csr.nnz})")

    q = np.zeros(csr.n)  # node income
    Q = np.zeros(csr.nnz)  # edge expense, per directed edge
    q[source] = 1.0
    src_of = csr.src

    # local level: lazy heaps of (key, edge_idx) per node
    heaps: list[list[tuple[float, int]]] = [[] for _ in range(csr.n)]
    for e in range(csr.nnz):
        u = src_of[e]
        heaps[u].append((theta_edge[e] / w[e], e))
    for h in heaps:
        heapq.heapify(h)

    def key_of(e: int) -> float:
        return (Q[e] + theta_edge[e]) / w[e]

    def top(u: int) -> tuple[float, int] | None:
        h = heaps[u]
        while h:
            k, e = h[0]
            if k == key_of(e):
                return k, e
            heapq.heappop(h)  # stale lazy entry
        return None

    def K(u: int) -> float:
        t = top(u)
        if t is None:
            return np.inf
        return -(1.0 - alpha) * q[u] / deg[u] + t[0]

    # global level: FIFO of possibly-eligible nodes (lazy membership)
    work: deque[int] = deque()
    queued = np.zeros(csr.n, dtype=bool)

    def enqueue(u: int) -> None:
        if not queued[u] and K(u) <= 0:
            queued[u] = True
            work.append(u)

    enqueue(source)
    cost = CostStats().start()
    while work and cost.pushes < max_pushes:
        u = work.popleft()
        queued[u] = False
        t = top(u)
        if t is None:
            continue
        k, e = t
        v = indices[e]
        y = (1.0 - alpha) * q[u] * w[e] / deg[u] - Q[e]
        if y < theta_edge[e]:  # K_u > 0: stale global entry
            continue
        # edge-based push along <u, v>
        Q[e] += y
        q[v] += y
        heapq.heappush(heaps[u], (key_of(e), e))  # increase-key, lazily
        cost.add_superstep(pushes=1, edge_touches=1)
        enqueue(u)  # u may still have eligible edges
        enqueue(v)  # v's income grew, its edges may now be eligible
    cost.stop()
    R = (1.0 - alpha) * q[src_of] * w / deg[src_of] - Q
    state = pd.DataFrame({"src": src_of, "dst": indices, "r": R, "out": Q})
    return PPRResult(estimate=alpha * q, cost=cost, converged=not work, state=state)
