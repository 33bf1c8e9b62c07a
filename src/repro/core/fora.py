"""Walk-based SSPPR baselines (§3): Monte-Carlo, FORA and SpeedPPR.

All three are one estimator. Lemma 1's invariant
π(t) = π̂(t) + Σ_u r(u)·π_u(t) says a push estimate's deficit is a mixture
of PPRs from the residual nodes, so one walk phase repairs it: launch
``⌈r(u)·ω⌉`` α-walks from each residual node u, each contributing
``r(u)/⌈r(u)·ω⌉`` to its terminal node. ω comes from FORA's Chernoff bound
(:func:`repro.core.montecarlo.walk_count`). The phase runs on the driver,
over the CSR and the push's collected state, with no Spark job. The methods
differ only in the push phase before it:

- plain Monte-Carlo has none: π̂ = 0, r = e_s, and ω = W walks from the
  source each contribute 1/W;
- FORA runs batch LocalPush with node threshold θ, FORA's balanced
  θ ≈ sqrt(1/(ω·m)) scaled to weighted degrees, which trades push work
  against the number of walks;
- SpeedPPR (Wu et al.) runs PowForPush down to the same θ, i.e. LocalPush
  with the scan switch of :func:`repro.core.runtime.push_supersteps`:
  ``fora(..., scan=True)``.
"""
from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pandas as pd

from repro.core.localpush import local_push
from repro.core.montecarlo import run_walks, walk_count
from repro.core.runtime import CostStats, PPRResult, check_query
from repro.graphs.graph import WeightedGraph


def _walk_phase(
    graph: WeightedGraph,
    base: PPRResult,
    residual: pd.DataFrame,
    *,
    omega: int,
    alpha: float,
    seed: int,
) -> PPRResult:
    """Repair ``base`` with ⌈r(u)·ω⌉ α-walks from each row ``(node, r)`` of
    ``residual``, each walk adding r(u)/⌈r(u)·ω⌉ to its terminal node.
    ``base`` is left as it was: the walks and their wall time are booked on
    a copy of its cost.

    Walks are drawn in the row order of ``residual``, sorted by node, so
    the estimate for a given ``seed`` depends only on the residual."""
    t0 = time.perf_counter()
    cost = dataclasses.replace(base.cost)
    est = base.estimate
    if len(residual):
        r = residual["r"].to_numpy()
        n_walks = np.ceil(r * omega).astype(np.int64)
        start = np.repeat(residual["node"].to_numpy(np.int64), n_walks)
        contrib = np.repeat(r / n_walks, n_walks)
        per_node, steps = run_walks(graph.csr, start, contrib, alpha=alpha, seed=seed)
        cost.add_walks(walks=len(start), steps=steps)
        est = base.estimate + per_node
    cost.wall_seconds += time.perf_counter() - t0
    return PPRResult(estimate=est, cost=cost, converged=base.converged)


def _omega(graph: WeightedGraph, delta: float, eps_r: float, p_f: float | None) -> int:
    """FORA's walk count ω, with the paper's failure probability p_f = 1/n
    by default."""
    return walk_count(
        delta=delta, eps_r=eps_r, p_f=1.0 / graph.n if p_f is None else p_f
    )


def monte_carlo(
    graph: WeightedGraph,
    source: int,
    *,
    alpha: float = 0.2,
    delta: float = 1e-2,
    eps_r: float = 0.5,
    p_f: float | None = None,
    seed: int = 0,
) -> PPRResult:
    """Plain Monte-Carlo SSPPR: ω α-walks from the source for (δ, ε_r,
    p_f), each weighted 1/ω. Raises ``ValueError`` for α ∉ (0,1), a source
    that is not a node with edges or walk parameters :func:`walk_count`
    refuses."""
    check_query(graph.csr, source, alpha)
    return _walk_phase(
        graph,
        PPRResult(estimate=np.zeros(graph.n), cost=CostStats()),
        pd.DataFrame({"node": [source], "r": [1.0]}),
        omega=_omega(graph, delta, eps_r, p_f),
        alpha=alpha,
        seed=seed,
    )


def mc_repair(
    graph: WeightedGraph,
    push_res: PPRResult,
    *,
    omega: int,
    alpha: float,
    seed: int,
) -> PPRResult:
    """The walk phase after a LocalPush: repair ``push_res`` with walks from
    the nodes with terminal residue r(u) > 0 in its ``state``."""
    residual = push_res.state.query("r > 0").sort_values("node", ignore_index=True)
    return _walk_phase(graph, push_res, residual, omega=omega, alpha=alpha, seed=seed)


def balanced_theta(graph: WeightedGraph, *, alpha: float, omega: int) -> float:
    """FORA's push/walk balancing: push cost ≈ 2m/(α·θ·‖A‖₁) against
    ≈ θ·‖A‖₁·ω expected walks ⇒ θ* = sqrt(2m/(α·ω))/‖A‖₁."""
    csr = graph.csr
    return math.sqrt(csr.nnz / (alpha * omega)) / csr.norm_a()


def fora(
    graph: WeightedGraph,
    source: int,
    *,
    alpha: float = 0.2,
    delta: float = 1e-2,
    eps_r: float = 0.5,
    p_f: float | None = None,
    scan: bool = False,
    seed: int = 0,
) -> PPRResult:
    """FORA SSPPR estimate with relative-error parameters (δ, ε_r, p_f),
    pushing down to :func:`balanced_theta`; with ``scan`` set, the push
    phase is PowForPush and this is SpeedPPR."""
    omega = _omega(graph, delta, eps_r, p_f)
    theta = balanced_theta(graph, alpha=alpha, omega=omega)
    push_res = local_push(graph, source, alpha=alpha, theta=theta, scan=scan)
    return mc_repair(graph, push_res, omega=omega, alpha=alpha, seed=seed)
