"""Tests for the weighted-graph substrate (repro.graphs.graph)."""
import numpy as np
import pandas as pd
import pytest

from repro.analysis.unbalance import cos2_phi
from repro.graphs import generators as gen
from repro.graphs.graph import WeightedGraph
from repro.oracle import assert_equivalent

from .helpers import GRAPH_BUILDERS, build, get_graph, triangle


@pytest.fixture(params=list(GRAPH_BUILDERS))
def any_graph(request, spark):
    return get_graph(spark, request.param)


class TestConstruction:
    def test_symmetric_edges(self, any_graph):
        csr = any_graph.csr
        fwd = set(zip(csr.src, csr.indices))
        assert all((d, s) in fwd for s, d in fwd), "every edge needs its reverse"

    def test_symmetric_weights(self, any_graph):
        csr = any_graph.csr
        w = dict(zip(zip(csr.src, csr.indices), csr.weights))
        assert all(abs(w[(s, d)] - w[(d, s)]) < 1e-12 for (s, d) in w)

    def test_no_self_loops(self, any_graph):
        assert any_graph.transition.filter("src = dst").count() == 0

    def test_node_ids_contiguous(self, any_graph):
        csr = any_graph.csr
        ids = set(csr.src) | set(csr.indices)
        assert ids == set(range(any_graph.n))

    def test_zero_weight_edges_dropped(self, spark):
        g = build(
            spark,
            pd.DataFrame({"src": [0, 1], "dst": [1, 2], "weight": [1.0, 0.0]}),
        )
        assert g.csr.nnz == 2  # only 0-1 kept, both directions

    def test_positive_weights(self, any_graph):
        assert any_graph.transition.filter("weight <= 0").count() == 0

    @pytest.mark.parametrize(
        "bad, n",
        [
            ((0, 2, float("nan")), None),
            ((0, 2, float("inf")), None),
            ((0, 2, -1.0), None),
            ((1, 1, 1.0), None),
            ((1, 5, 1.0), 3),
            ((-1, 2, 1.0), None),
            ((1, 0, 3.0), None),
            ((0, 1, 1.0), None),
            ((2, 1, 2.0), 3),
            ((1.5, 3, 1.0), None),
            ((float("nan"), 2, 1.0), None),
        ],
        ids=[
            "nan",
            "inf",
            "negative_weight",
            "self_loop",
            "id_ge_n",
            "negative_id",
            "reversed_pair",
            "repeated_pair",
            "reversed_pair_n",
            "fractional_id",
            "nan_id",
        ],
    )
    def test_rejects_malformed_edge_list(self, spark, bad, n):
        """The one constructor checks its input: a weight that is not a
        finite non-negative number, a self-loop, an id that is not an
        integer (a cast would truncate 1.5 to 1) or lies outside [0, n), or a
        pair given twice (parallel edges would count it twice in degrees,
        thresholds and edge touches) raises instead of building a graph
        that answers wrongly."""
        pdf = pd.DataFrame([(0, 1, 1.0), (1, 2, 2.0), bad], columns=["src", "dst", "weight"])
        with pytest.raises(ValueError):
            WeightedGraph.from_undirected_pandas(spark, pdf, n=n)

    def test_rejects_duplicate_naming_the_pair(self, spark):
        pdf = pd.DataFrame({"src": [2, 0, 1], "dst": [3, 1, 0], "weight": [1.0, 1.0, 3.0]})
        with pytest.raises(ValueError, match=r"pair \(0, 1\) twice"):
            WeightedGraph.from_undirected_pandas(spark, pdf)

    def test_rejects_no_positive_edge_without_n(self, spark):
        pdf = pd.DataFrame({"src": [0], "dst": [1], "weight": [0.0]})
        with pytest.raises(ValueError, match="no edge of positive weight"):
            WeightedGraph.from_undirected_pandas(spark, pdf)
        assert WeightedGraph.from_undirected_pandas(spark, pdf, n=2).csr.nnz == 0


class TestDerived:
    def test_degrees_match_oracle(self, spark, any_graph):
        assert_equivalent(
            any_graph.degrees,
            "SELECT src AS node, SUM(weight) AS deg, COUNT(*) AS nbrs "
            "FROM edges GROUP BY src",
            edges=any_graph.transition,
        )

    def test_transition_rows_sum_to_one(self, any_graph):
        sums = (
            any_graph.transition.groupBy("src").sum("p").toPandas()["sum(p)"].to_numpy()
        )
        assert np.allclose(sums, 1.0)

    def test_transition_matches_oracle(self, spark, any_graph):
        assert_equivalent(
            any_graph.transition,
            "SELECT src, dst, weight, "
            "weight / SUM(weight) OVER (PARTITION BY src) AS p FROM edges",
            edges=any_graph.transition,
        )

    def test_norm_a_is_twice_undirected_weight(self, spark):
        pdf = gen.er_graph(30, 0.2, seed=1)
        g = build(spark, pdf)
        assert g.csr.norm_a() == pytest.approx(2 * pdf["weight"].sum())


class TestCSR:
    def test_csr_roundtrip(self, any_graph):
        """One direction of each CSR edge, fed back to the constructor,
        builds the same CSR and the same Spark transition frame."""
        csr = any_graph.csr
        assert csr.indptr[-1] == csr.nnz
        fwd = csr.src < csr.indices
        pdf = pd.DataFrame(
            {"src": csr.src[fwd], "dst": csr.indices[fwd], "weight": csr.weights[fwd]}
        )
        g2 = WeightedGraph.from_undirected_pandas(any_graph.spark, pdf, n=csr.n)
        for name in ("indptr", "indices", "weights"):
            assert np.array_equal(getattr(g2.csr, name), getattr(csr, name))
        a = any_graph.transition.toPandas().sort_values(["src", "dst"]).reset_index(drop=True)
        b = g2.transition.toPandas().sort_values(["src", "dst"]).reset_index(drop=True)
        assert len(a) == csr.nnz
        pd.testing.assert_frame_equal(a, b, check_dtype=False)

    def test_csr_degrees_match_spark(self, any_graph):
        csr = any_graph.csr
        deg = any_graph.degrees.toPandas().set_index("node")["deg"]
        assert np.allclose(csr.deg[deg.index.to_numpy()], deg.to_numpy())

    def test_cum_prob_monotone_per_node(self, any_graph):
        csr = any_graph.csr
        cp = csr.cum_prob()
        for u in range(csr.n):
            lo, hi = csr.indptr[u], csr.indptr[u + 1]
            seg = cp[lo:hi]
            if len(seg):
                assert np.all(np.diff(seg) > 0) or len(seg) == 1
                assert seg[-1] == 1.0

    def test_cum_prob_global_sorted_trick(self, any_graph):
        csr = any_graph.csr
        key = csr.src + csr.cum_prob()
        assert np.all(np.diff(key) > 0)

    def test_sample_sources_degree_weighted(self, spark):
        g = build(spark, gen.star_bad_case(30))
        srcs = g.sample_sources(200, seed=0)
        # hub (node 0) has ~half the total degree mass -> sampled often
        assert sum(1 for s in srcs if s in (0, 1)) > 100
        assert all(0 <= s < g.n for s in srcs)


class TestStats:
    def test_stats_counts(self, spark):
        pdf = gen.er_graph(40, 0.15, seed=3)
        csr = build(spark, pdf).csr
        assert csr.n == 40
        assert csr.nnz // 2 == len(pdf)
        assert csr.weights.mean() == pytest.approx(1.0)
        assert cos2_phi(csr) == pytest.approx(1.0)  # unit weights: balanced

    def test_stats_cos2_matches_oracle(self, spark, any_graph):
        import duckdb

        con = duckdb.connect()
        con.register("edges", any_graph.transition.toPandas())
        c = con.execute(
            "SELECT POW(SUM(SQRT(weight)), 2) / (COUNT(*) * SUM(weight)) FROM edges"
        ).fetchone()[0]
        con.close()
        assert cos2_phi(any_graph.csr) == pytest.approx(c, rel=1e-9)

    def test_star_is_unbalanced(self, spark):
        csr = build(spark, gen.star_bad_case(200)).csr
        assert cos2_phi(csr) < 0.2  # Figure-1 graph is heavily unbalanced
