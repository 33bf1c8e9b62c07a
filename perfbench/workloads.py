"""The benchmark's workloads: which graph, which sources, which methods.

A *query* is one source answered by every method of its workload, one after
another, the way a user comparing the methods would ask. The graph is fixed
by ``repro.graphs.datasets.SPECS``. The sources are drawn by the paper's
protocol, ``WeightedGraph.sample_sources(sources, seed=SOURCE_SEED)``, with
a seed fixed here rather than the run's seed: on TA-lite the work of one
degree-sampled ℓ1 query ranges from 1.5k to 72k edge touches, so with the
one source a run has time for, a per-run draw would move the
work by 20–40% between runs. The run's seed drives the Monte-Carlo walks.

Each method knows how to run on Spark, which error bound its estimate must
meet (see :func:`perfbench.reference.error_to_bound`), and how to replay its
work count with the numpy batch references and the sequential references.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from repro.core import sequential
from repro.core import thresholds as th
from repro.core.edgepush import edge_push
from repro.core.fora import balanced_theta, fora
from repro.core.montecarlo import walk_count

from perfbench import reference

ALPHA = 0.2
SOURCE_SEED = 0


@dataclass(frozen=True)
class Method:
    name: str
    error_mode: str  # see reference.error_to_bound
    tol: dict
    run: Callable  # (graph, source, seed) -> PPRResult
    batch_ref: Callable  # (graph, source) -> (supersteps, edge touches)
    seq_ref: Callable  # (graph, source) -> None; timed as the sequential reference
    randomized: bool = False  # estimate depends on the run's seed


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str  # key of repro.graphs.datasets.SPECS
    sources: int  # sources per pass; every run completes at least one pass
    methods: tuple[Method, ...]
    # run once before the measured queries, to compile the code paths of
    # ``methods`` in the freshly launched JVM at the least cost
    warmup: tuple[Method, ...]


def _edgepush(mode: str, tol: float, theta_np) -> Method:
    error_mode = "l1" if mode == "l1" else "additive"
    key = "eps" if mode == "l1" else "rmax"
    return Method(
        name=f"edgepush-{mode}",
        error_mode=error_mode,
        tol={key: tol},
        run=lambda g, s, seed: edge_push(g, s, alpha=ALPHA, mode=mode, tol=tol),
        batch_ref=lambda g, s: reference.batch_edge_push(
            g.csr, s, theta_np(g.csr, tol), alpha=ALPHA
        ),
        seq_ref=lambda g, s: sequential.sequential_edge_push(
            g.csr, s, theta_np(g.csr, tol), alpha=ALPHA
        ),
    )


def _fora(delta: float, eps_r: float) -> Method:
    # FORA's push phase is batch LocalPush at the balanced θ; its Monte-Carlo
    # phase has no work-count reference (walk lengths are random)
    @functools.cache
    def theta(g):
        omega = walk_count(delta=delta, eps_r=eps_r, p_f=1.0 / g.n)
        return balanced_theta(g, alpha=ALPHA, omega=omega)

    return Method(
        name="fora",
        error_mode="relative",
        tol={"delta": delta, "eps_r": eps_r},
        run=lambda g, s, seed: fora(
            g, s, alpha=ALPHA, delta=delta, eps_r=eps_r, p_f=1.0 / g.n, seed=seed
        ),
        batch_ref=lambda g, s: reference.batch_local_push(
            g.csr, s, alpha=ALPHA, theta=theta(g)
        ),
        seq_ref=lambda g, s: sequential.sequential_local_push(
            g.csr, s, alpha=ALPHA, theta=theta(g)
        ),
        randomized=True,
    )


EDGEPUSH_ADD = _edgepush("additive", 1e-4, th.theta_additive)
FORA = _fora(delta=1e-2, eps_r=0.5)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # the push kernel, thresholds and checkpoints of an ℓ1 query are those
        # of an EdgePush-Add query, which warms them in 4 supersteps, not 30
        Workload(
            "ta-l1-deep",
            graph="TA",
            sources=1,
            methods=(_edgepush("l1", 0.1, th.theta_l1),),
            warmup=(EDGEPUSH_ADD,),
        ),
        Workload(
            "ta-additive-batch",
            graph="TA",
            sources=1,
            methods=(EDGEPUSH_ADD, FORA),
            warmup=(EDGEPUSH_ADD, FORA),
        ),
    )
}
