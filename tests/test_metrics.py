"""Tests for repro.core.metrics (error measures, precision@k, sweep cut)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import metrics as M
from repro.core.power import ground_truth
from repro.graphs import generators as gen
from repro.graphs.graph import WeightedGraph

from .helpers import build, get_graph


class TestVectorMetrics:
    def test_l1_error(self):
        a = np.array([0.5, 0.3, 0.2])
        b = np.array([0.4, 0.4, 0.2])
        assert M.l1_error(a, b) == pytest.approx(0.2)

    def test_max_add_err(self):
        a = np.array([0.5, 0.3, 0.2])
        b = np.array([0.4, 0.35, 0.2])
        assert M.max_add_err(a, b) == pytest.approx(0.1)

    def test_normalized_max_add_err(self):
        a = np.array([0.5, 0.5])
        b = np.array([0.4, 0.5])
        deg = np.array([10.0, 1.0])
        assert M.normalized_max_add_err(a, b, deg) == pytest.approx(0.01)

    def test_normalized_max_add_err_skips_nodes_without_edges(self, spark):
        """Node 3 has no edges, so π(3) = π̂(3) = 0 and its 0/0 is left out
        of the maximum instead of making it NaN."""
        pdf = pd.DataFrame({"src": [0, 1], "dst": [1, 2], "weight": [1.0, 1.0]})
        csr = WeightedGraph.from_undirected_pandas(spark, pdf, n=4).csr
        gt = ground_truth(csr, 0, alpha=0.2)
        assert M.normalized_max_add_err(gt, gt, csr.deg) == 0
        assert M.normalized_max_add_err(np.zeros(4), gt, csr.deg) == (gt[:3] / csr.deg[:3]).max()

    def test_zero_for_identical(self):
        a = np.random.default_rng(0).random(50)
        assert M.l1_error(a, a) == 0
        assert M.max_add_err(a, a) == 0


class TestPrecisionAtK:
    def test_perfect(self):
        v = np.arange(100, dtype=float)
        assert M.precision_at_k(v, v, k=10) == 1.0

    def test_disjoint(self):
        gt = np.arange(100, dtype=float)
        est = -gt
        assert M.precision_at_k(est, gt, k=10) == 0.0

    def test_partial_overlap(self):
        gt = np.zeros(20)
        gt[:10] = np.arange(10, 0, -1)
        est = np.zeros(20)
        est[5:15] = np.arange(10, 0, -1)
        assert M.precision_at_k(est, gt, k=10) == pytest.approx(0.5)

    def test_normalized_ranking_changes_order(self):
        gt = np.array([0.5, 0.4, 0.1])
        deg = np.array([100.0, 1.0, 1.0])
        # unnormalized top-1 is node 0; normalized top-1 is node 1
        assert M.precision_at_k(gt, gt, k=1) == 1.0
        top_norm = np.argsort(-(gt / deg))[0]
        assert top_norm == 1

    def test_exact_estimate_on_fewer_than_k_nodes(self):
        """With n < k the top-k is every node: an exact estimate scores 1."""
        gt = np.array([0.5, 0.3, 0.2])
        assert M.precision_at_k(gt, gt, k=10) == 1.0
        assert M.precision_at_k(gt, gt, k=10, deg=np.ones(3)) == 1.0

    def test_self_precision_always_one(self, spark):
        g = get_graph(spark, "er_lognormal")
        pi = ground_truth(g.csr, 0)
        assert M.precision_at_k(pi, pi, k=50, deg=g.csr.deg) == 1.0


class TestConductance:
    def test_two_cliques_cut(self, spark):
        """Two 5-cliques joined by one edge: the clique is the best sweep
        cut and its conductance is 1/(vol of clique side)."""
        cl1 = gen.complete_unbalanced(5, light=1.0)
        cl2 = gen.complete_unbalanced(5, light=1.0)
        cl2[["src", "dst"]] += 5
        bridge = pd.DataFrame({"src": [0], "dst": [5], "weight": [1.0]})
        g = build(spark, pd.concat([cl1, cl2, bridge], ignore_index=True))
        members = np.zeros(g.n, dtype=bool)
        members[:5] = True
        phi = M.conductance_of_set(g.csr, members)
        assert phi == pytest.approx(1.0 / 21.0)  # cut=1, vol=2*10+1

    def test_sweep_finds_planted_cluster(self, spark):
        cl1 = gen.complete_unbalanced(6, light=1.0)
        cl2 = gen.complete_unbalanced(6, light=1.0)
        cl2[["src", "dst"]] += 6
        bridge = pd.DataFrame({"src": [0], "dst": [6], "weight": [1.0]})
        g = build(spark, pd.concat([cl1, cl2, bridge], ignore_index=True))
        pi = ground_truth(g.csr, 1)
        best, size = M.sweep_conductance(g.csr, pi / g.csr.deg)
        assert size == 6
        members = np.zeros(g.n, dtype=bool)
        members[:6] = True
        assert best == pytest.approx(M.conductance_of_set(g.csr, members))

    def test_symmetric_set_complement(self, spark):
        g = get_graph(spark, "er_lognormal")
        rng = np.random.default_rng(1)
        members = rng.random(g.n) < 0.3
        assert M.conductance_of_set(g.csr, members) == pytest.approx(
            M.conductance_of_set(g.csr, ~members)
        )

    def test_conductance_df_matches_oracle(self, spark):
        """DuckDB's Φ(S) over the edge table equals the numpy Φ(S)."""
        import duckdb

        g = get_graph(spark, "er_lognormal")
        members = pd.DataFrame({"node": np.arange(0, g.n, 3)})
        con = duckdb.connect()
        con.register("edges", g.transition.toPandas())
        con.register("members", members)
        phi = con.execute(
            """
            WITH flags AS (
              SELECT e.weight,
                     s.node IS NOT NULL AS src_in,
                     d.node IS NOT NULL AS dst_in
              FROM edges e
              LEFT JOIN members s ON e.src = s.node
              LEFT JOIN members d ON e.dst = d.node
            )
            SELECT
              (SUM(CASE WHEN src_in <> dst_in THEN weight ELSE 0 END)/2.0)
                / LEAST(SUM(CASE WHEN src_in THEN weight ELSE 0 END),
                        SUM(CASE WHEN NOT src_in THEN weight ELSE 0 END))
            FROM flags
            """
        ).fetchone()[0]
        con.close()
        mask = np.zeros(g.n, dtype=bool)
        mask[members["node"]] = True
        assert M.conductance_of_set(g.csr, mask) == pytest.approx(phi, rel=1e-9)
