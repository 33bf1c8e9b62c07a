"""EdgePush — the paper's contribution — as a distributed batch algorithm.

Algorithm 2 pushes one *edge* at a time, picked by the two-level structure
of §4.3. On a dataflow engine we run the bulk-synchronous decomposition:
each superstep simultaneously pushes **every** candidate edge
``C = {⟨u,v⟩ : R_uv ≥ θ(u,v)}``. A pushed edge transfers its pre-superstep
residue ``R_uv`` into v's income; the income a node receives feeds the
residues of its out-edges in the *next* superstep. The invariant proof
(Lemma 2 / Appendix A.4) holds for transferring any amount ``y ≤ R_uv``,
so the batch schedule preserves the invariant and the terminal condition
``R_uv < θ(u,v)`` for all edges yields exactly the paper's error bounds
(Lemmas 4–5, Theorems 2–3).

State is one edge-level DataFrame ``(src, dst, r, out)``: the residue
``r`` and ``out``, the residue pushed along the edge so far. The node
income q of Algorithm 2 is then ``q(v) = [v=s] + Σ_u out(u,v)``, summed in
numpy over the terminal state the loop collects, and the estimate is
``π̂ = α·q``. Work accounting: each edge push costs O(1) — one edge touch —
which is precisely the quantity Lemma 3 bounds.

The superstep, with the §6.2 scan switch over the 2m edges, is
:func:`repro.core.runtime.push_supersteps`; this module supplies the
Theorem-2/3 thresholds, and the kernel's default unit of 1 push per edge.
"""
from __future__ import annotations

import numpy as np

from repro.core.runtime import CostStats, PPRResult, check_query, push_supersteps
# thresholds_df is not called here; perfbench's traced layer hooks look it up here
from repro.core.thresholds import theta_edge, thresholds_df  # noqa: F401
from repro.graphs.graph import WeightedGraph


def edge_push(
    graph: WeightedGraph,
    source: int,
    *,
    alpha: float = 0.2,
    mode: str = "l1",
    tol: float = 1e-4,
    scan_frac: float | None = None,
    max_supersteps: int = 500,
) -> PPRResult:
    """Approximate SSPPR by batch EdgePush.

    ``mode``/``tol`` pick the per-edge thresholds: ``("l1", ε)`` uses
    Theorem 2 (ℓ1-error ≤ ε), ``("additive", r_max)`` uses Theorem 3
    (normalized additive error ≤ r_max).

    The result's ``state`` is the terminal edge state ``(src, dst, r, out)``
    in CSR order as pandas. Raises ``ValueError`` for α ∉ (0,1), a source
    that is not a node with edges, ``tol`` ≤ 0 or NaN, or an unknown
    ``mode``.
    """
    check_query(graph.csr, source, alpha)
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")

    cost = CostStats()
    edges, converged = push_supersteps(
        graph,
        cost,
        theta=theta_edge(graph.csr, mode, tol),
        source=source,
        alpha=alpha,
        scan_frac=scan_frac,
        max_supersteps=max_supersteps,
    )
    # π̂(v) = α·q(v), q(v) = [v=s] + Σ_u out(u,v)
    q = np.bincount(edges["dst"], weights=edges["out"], minlength=graph.n)
    q[source] += 1.0
    return PPRResult(estimate=alpha * q, cost=cost, converged=converged, state=edges)
