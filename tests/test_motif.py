"""Tests for the clique3 motif-weighting substrate (MAPPR preprocessing)."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs import generators as gen
from repro.graphs.graph import WeightedGraph
from repro.graphs.motif import (
    canonical_edges,
    motif_weighted_graph,
    motif_weights,
    triangles,
)
from repro.oracle import assert_equivalent

from .helpers import build

TRIANGLE_SQL = """
    SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
    FROM edges e1
    JOIN edges e2 ON e1.dst = e2.src
    JOIN edges e3 ON e1.src = e3.src AND e2.dst = e3.dst
"""


@pytest.fixture
def pl_graph(spark):
    return build(spark, gen.powerlaw_graph(120, 500, exponent=0.9, seed=21))


class TestTriangles:
    def test_single_triangle(self, spark):
        g = build(
            spark,
            pd.DataFrame({"src": [0, 1, 0], "dst": [1, 2, 2], "weight": [1.0] * 3}),
        )
        t = triangles(canonical_edges(g)).collect()
        assert len(t) == 1
        assert (t[0]["a"], t[0]["b"], t[0]["c"]) == (0, 1, 2)

    def test_square_has_no_triangle(self, spark):
        g = build(
            spark,
            pd.DataFrame(
                {"src": [0, 1, 2, 3], "dst": [1, 2, 3, 0], "weight": [1.0] * 4}
            ),
        )
        assert triangles(canonical_edges(g)).count() == 0

    def test_k4_has_four_triangles(self, spark):
        g = build(spark, gen.complete_graph(4))
        assert triangles(canonical_edges(g)).count() == 4

    def test_complete_graph_count(self, spark):
        n = 8
        g = build(spark, gen.complete_graph(n))
        expected = n * (n - 1) * (n - 2) // 6
        assert triangles(canonical_edges(g)).count() == expected

    def test_matches_oracle_sql(self, spark, pl_graph):
        ce = canonical_edges(pl_graph)
        assert_equivalent(
            triangles(ce), TRIANGLE_SQL, edges=ce.toPandas()
        )


class TestMotifWeights:
    def test_k4_every_edge_in_two_triangles(self, spark):
        g = build(spark, gen.complete_graph(4))
        w = motif_weights(canonical_edges(g)).toPandas()
        assert len(w) == 6
        assert (w["weight"] == 2.0).all()

    def test_counts_match_numpy_bruteforce(self, spark, pl_graph):
        ce = canonical_edges(pl_graph).toPandas()
        adj = np.zeros((120, 120), dtype=bool)
        adj[ce.src, ce.dst] = True
        adj |= adj.T
        w = motif_weights(canonical_edges(pl_graph)).toPandas()
        for s, d, cnt in w.itertuples(index=False):
            assert cnt == np.sum(adj[s] & adj[d])

    def test_nonparticipating_edges_absent(self, spark):
        # triangle + pendant edge: pendant has phi(e) = 0
        g = build(
            spark,
            pd.DataFrame(
                {"src": [0, 1, 0, 2], "dst": [1, 2, 2, 3], "weight": [1.0] * 4}
            ),
        )
        w = motif_weights(canonical_edges(g)).toPandas()
        assert set(zip(w.src, w.dst)) == {(0, 1), (1, 2), (0, 2)}


class TestMotifWeightedGraph:
    def test_ids_remapped_contiguous(self, spark):
        g = build(
            spark,
            pd.DataFrame(
                {"src": [5, 6, 5, 6], "dst": [6, 7, 7, 8], "weight": [1.0] * 4}
            ),
        )
        # ids 5..8 with a pendant (6-8); triangle keeps 5,6,7 -> remap 0..2
        mg = motif_weighted_graph(spark, g)
        assert mg.n == 3
        assert mg.csr.nnz == 6

    def test_weights_are_triangle_counts(self, spark, pl_graph):
        mg = motif_weighted_graph(spark, pl_graph)
        w = mg.edges.toPandas()["weight"]
        assert (w == w.astype(int)).all()
        assert (w >= 1).all()

    def test_symmetric_output(self, spark, pl_graph):
        mg = motif_weighted_graph(spark, pl_graph)
        pdf = mg.edges.toPandas()
        fwd = {(s, d): w for s, d, w in pdf.itertuples(index=False)}
        assert all(fwd[(d, s)] == w for (s, d), w in fwd.items())

    def test_motif_graph_more_unbalanced_than_unit(self, spark, pl_graph):
        from repro.analysis.unbalance import cos2_phi

        mg = motif_weighted_graph(spark, pl_graph)
        assert cos2_phi(mg.csr) < 1.0
