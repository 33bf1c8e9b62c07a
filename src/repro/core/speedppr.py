"""PowForPush and SpeedPPR baselines (Wu et al. [56], §3 and §6.2).

PowForPush unifies LocalPush and Power Method: while many nodes are
active, touching them via random access is slower than a *sequential scan*
over the whole residual vector (a power-iteration pass); when the frontier
shrinks it degrades gracefully back to thresholded local pushes. In our
bulk-synchronous formulation this is exactly batch LocalPush with the scan
switch of :func:`repro.core.runtime.push_supersteps`:
``local_push(..., scan_frac=DEFAULT_SCAN_FRAC)``.

SpeedPPR = PowForPush down to the FORA threshold, then Monte-Carlo walks
from the residual nodes (the same repair phase as FORA).
"""
from __future__ import annotations

from repro.core.fora import balanced_theta, mc_repair
from repro.core.localpush import local_push
from repro.core.montecarlo import walk_count
from repro.core.runtime import PPRResult
from repro.graphs.graph import WeightedGraph

DEFAULT_SCAN_FRAC = 0.125  # PowForPush's "scanThreshold" as a fraction of n


def speedppr(
    graph: WeightedGraph,
    source: int,
    *,
    alpha: float = 0.2,
    delta: float = 1e-2,
    eps_r: float = 0.5,
    p_f: float | None = None,
    theta: float | None = None,
    scan_frac: float = DEFAULT_SCAN_FRAC,
    seed: int = 0,
) -> PPRResult:
    """SpeedPPR: PowForPush phase + Monte-Carlo repair of the residual."""
    if p_f is None:
        p_f = 1.0 / graph.n
    omega = walk_count(delta=delta, eps_r=eps_r, p_f=p_f)
    if theta is None:
        theta = balanced_theta(graph, alpha=alpha, omega=omega)
    push_res = local_push(
        graph, source, alpha=alpha, theta=theta, scan_frac=scan_frac
    )
    return mc_repair(graph, push_res, omega=omega, alpha=alpha, seed=seed)
