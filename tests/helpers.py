"""Shared test fixtures/builders: small deterministic graphs.

Unit tests run on graphs with n ≤ ~200 so that iterative Spark loops stay
fast and the numpy ground truth is exact for comparison purposes.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.graphs import generators as gen
from repro.graphs.graph import WeightedGraph


def stationary(csr) -> np.ndarray:
    """π̄ = d/‖A‖₁, the mean PPR vector over degree-sampled sources: a
    per-source cost bound evaluated at π̄ is the expected cost."""
    return csr.deg / csr.norm_a()


def assert_work_within_bounds(df: pd.DataFrame) -> None:
    """Table 1's claim per algorithm and regime: mean measured work ≤ mean
    per-source bound (Lemma 11 for LocalPush, Lemma 3 for EdgePush)."""
    for algo in ("lp", "ep"):
        for regime in ("l1", "add"):
            assert (df[f"{algo}_work_{regime}"] <= df[f"{algo}_bound_{regime}"]).all()


def build(spark, pdf: pd.DataFrame) -> WeightedGraph:
    return WeightedGraph.from_undirected_pandas(spark, pdf)


def two_node(spark) -> WeightedGraph:
    return build(spark, pd.DataFrame({"src": [0], "dst": [1], "weight": [1.0]}))


def triangle(spark, *, weights=(1.0, 1.0, 1.0)) -> WeightedGraph:
    return build(
        spark,
        pd.DataFrame({"src": [0, 1, 0], "dst": [1, 2, 2], "weight": list(weights)}),
    )


def edge_and_isolated(spark) -> WeightedGraph:
    """Nodes 0–1 joined by one edge and node 2 with no edges."""
    return WeightedGraph.from_undirected_pandas(
        spark, pd.DataFrame({"src": [0], "dst": [1], "weight": [1.0]}), n=3
    )


# (source, α) queries that every SSPPR method refuses on
# ``edge_and_isolated``: node 2 has no edges and 3 = n is not a node
DEGENERATE_QUERIES = [
    pytest.param(2, 0.2, id="isolated"),
    pytest.param(3, 0.2, id="n"),
    pytest.param(-1, 0.2, id="negative"),
    pytest.param(1.5, 0.2, id="float"),
    pytest.param(np.float64(1.0), 0.2, id="np-float"),
    pytest.param(True, 0.2, id="bool"),
    pytest.param(0, 0.0, id="alpha0"),
    pytest.param(0, 1.0, id="alpha1"),
]


def star(spark, n: int = 40) -> WeightedGraph:
    return build(spark, gen.star_bad_case(n))


def small_er(spark, *, n: int = 60, seed: int = 7) -> WeightedGraph:
    pdf = gen.er_graph(n, 0.12, seed=seed)
    return build(spark, gen.lognormal_weights(pdf, target_cos2=0.5, seed=seed))


def small_powerlaw(spark, *, n: int = 80, seed: int = 11) -> WeightedGraph:
    pdf = gen.powerlaw_graph(n, 240, exponent=0.8, seed=seed)
    return build(spark, gen.zipf_weights(pdf, alpha=1.2, seed=seed))


def small_unbalanced(spark, *, n: int = 48) -> WeightedGraph:
    return build(spark, gen.complete_unbalanced(n))


GRAPH_BUILDERS = {
    "two_node": two_node,
    "triangle": triangle,
    "star": star,
    "er_lognormal": small_er,
    "powerlaw_zipf": small_powerlaw,
    "complete_unbalanced": small_unbalanced,
}

_CACHE: dict[str, WeightedGraph] = {}


def get_graph(spark, name: str) -> WeightedGraph:
    """Memoized graph lookup — WeightedGraph is immutable, so sharing one
    instance (and its cached CSR/degrees) across tests is safe and keeps
    the session fast."""
    if name not in _CACHE:
        _CACHE[name] = GRAPH_BUILDERS[name](spark)
    return _CACHE[name]
