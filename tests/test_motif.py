"""Tests for the clique3 motif weighting (MAPPR preprocessing),
``generators.motif_weights``."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs import generators as gen
from repro.oracle import assert_equivalent

from .helpers import build

# φ(u,v) per canonical edge u < v: the common neighbours w of u and v over
# both directions of the edge list, with the ids of the nodes on a
# triangle renumbered 0, 1, ... in ascending order
PHI_SQL = """
    WITH sym AS (
        SELECT src, dst FROM edges UNION ALL SELECT dst, src FROM edges
    ), phi AS (
        SELECT e.src, e.dst, CAST(COUNT(*) AS DOUBLE) AS weight
        FROM edges e
        JOIN sym a ON a.src = e.src
        JOIN sym b ON b.src = e.dst AND b.dst = a.dst
        GROUP BY e.src, e.dst
    ), ids AS (
        SELECT node, ROW_NUMBER() OVER (ORDER BY node) - 1 AS id
        FROM (SELECT src AS node FROM phi UNION SELECT dst FROM phi)
    )
    SELECT s.id AS src, d.id AS dst, phi.weight
    FROM phi JOIN ids s ON s.node = phi.src JOIN ids d ON d.node = phi.dst
"""


def _edges(pairs) -> pd.DataFrame:
    src, dst = zip(*pairs)
    return pd.DataFrame({"src": src, "dst": dst, "weight": 1.0})


def _dense(n: int, pdf: pd.DataFrame) -> np.ndarray:
    """The symmetric weight matrix of an undirected edge list."""
    a = np.zeros((n, n))
    a[pdf.src, pdf.dst] = pdf.weight
    return a + a.T


@pytest.fixture
def pl_topo():
    return gen.powerlaw_graph(120, 500, exponent=0.9, seed=21)


@pytest.fixture
def pl_graph(spark, pl_topo):
    return build(spark, gen.motif_weights(pl_topo))


class TestTriangles:
    def test_single_triangle(self):
        w = gen.motif_weights(_edges([(0, 1), (1, 2), (0, 2)]))
        assert set(zip(w.src, w.dst)) == {(0, 1), (1, 2), (0, 2)}
        assert (w.weight == 1.0).all()

    def test_square_has_no_triangle(self):
        """A graph with no triangle has no motif graph: an empty one would
        have no node to query and a NaN cos²φ."""
        with pytest.raises(ValueError, match="no edge lies on a triangle"):
            gen.motif_weights(_edges([(0, 1), (1, 2), (2, 3), (3, 0)]))

    def test_k4_has_four_triangles(self):
        w = gen.motif_weights(gen.complete_unbalanced(4, light=1.0))
        assert w.weight.sum() == 3 * 4

    def test_complete_graph_count(self):
        n = 8
        w = gen.motif_weights(gen.complete_unbalanced(n, light=1.0))
        assert len(w) == n * (n - 1) // 2
        assert w.weight.sum() == 3 * (n * (n - 1) * (n - 2) // 6)

    def test_matches_oracle_sql(self, spark, pl_topo):
        got = spark.createDataFrame(gen.motif_weights(pl_topo))
        assert_equivalent(got, PHI_SQL, edges=pl_topo[["src", "dst"]])


class TestMotifWeights:
    def test_k4_every_edge_in_two_triangles(self):
        w = gen.motif_weights(gen.complete_unbalanced(4, light=1.0))
        assert len(w) == 6
        assert (w.weight == 2.0).all()

    def test_counts_match_numpy_bruteforce(self, pl_topo):
        adj = _dense(120, pl_topo) > 0
        common = adj.astype(int) @ adj.astype(int)
        phi = np.where(adj, common, 0)
        kept = np.flatnonzero(phi.any(axis=1))
        w = gen.motif_weights(pl_topo)
        assert np.array_equal(_dense(kept.size, w), phi[np.ix_(kept, kept)])

    def test_nonparticipating_edges_absent(self):
        # triangle + pendant edge: pendant has phi(e) = 0
        w = gen.motif_weights(_edges([(0, 1), (1, 2), (0, 2), (2, 3)]))
        assert set(zip(w.src, w.dst)) == {(0, 1), (1, 2), (0, 2)}


class TestMotifWeightedGraph:
    def test_ids_remapped_contiguous(self, spark):
        # ids 5..8 with a pendant (6-8); triangle keeps 5,6,7 -> remap 0..2
        w = gen.motif_weights(_edges([(5, 6), (6, 7), (5, 7), (6, 8)]))
        mg = build(spark, w)
        assert mg.n == 3
        assert mg.csr.nnz == 6

    def test_weights_are_triangle_counts(self, pl_graph):
        w = pl_graph.csr.weights
        assert (w == w.astype(int)).all()
        assert (w >= 1).all()

    def test_symmetric_output(self, pl_graph):
        c = pl_graph.csr
        a = np.zeros((c.n, c.n))
        a[c.src, c.indices] = c.weights
        assert np.array_equal(a, a.T)
        assert (c.out_degree() > 0).all()

    def test_motif_graph_more_unbalanced_than_unit(self, pl_graph):
        from repro.analysis.unbalance import cos2_phi

        assert cos2_phi(pl_graph.csr) < 1.0
