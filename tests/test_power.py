"""Tests for the numpy ground truth and the distributed Power Method."""
import numpy as np
import pytest

from repro.core.power import ground_truth, power_method

from .helpers import GRAPH_BUILDERS, get_graph


@pytest.fixture(params=list(GRAPH_BUILDERS))
def any_graph(request, spark):
    return get_graph(spark, request.param)


class TestGroundTruth:
    def test_two_node_closed_form(self, spark):
        g = get_graph(spark, "two_node")
        alpha = 0.2
        pi = ground_truth(g.csr, 0, alpha=alpha)
        # alternating walk: π(0) = α/(1-(1-α)²), π(1) = α(1-α)/(1-(1-α)²)
        denom = 1 - (1 - alpha) ** 2
        assert pi[0] == pytest.approx(alpha / denom, abs=1e-10)
        assert pi[1] == pytest.approx(alpha * (1 - alpha) / denom, abs=1e-10)

    def test_sums_to_one(self, any_graph):
        pi = ground_truth(any_graph.csr, 0)
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative(self, any_graph):
        assert (ground_truth(any_graph.csr, 0) >= 0).all()

    def test_triangle_symmetry(self, spark):
        g = get_graph(spark, "triangle")
        pi = ground_truth(g.csr, 0)
        assert pi[1] == pytest.approx(pi[2], abs=1e-12)

    def test_source_mass_at_least_alpha(self, any_graph):
        # the walk stops at the source with probability ≥ α at step 0
        for alpha in (0.1, 0.2, 0.5):
            pi = ground_truth(any_graph.csr, 0, alpha=alpha)
            assert pi[0] >= alpha - 1e-12

    def test_satisfies_recursive_equation(self, any_graph):
        """π = (1-α)Pπ + αe_s (Equation 1)."""
        csr = any_graph.csr
        alpha = 0.2
        pi = ground_truth(csr, 0, alpha=alpha, iters=300)
        src, dst = csr.src, csr.indices
        p_pi = np.bincount(
            dst, weights=pi[src] * csr.weights / csr.deg[src], minlength=csr.n
        )
        rhs = (1 - alpha) * p_pi
        rhs[0] += alpha
        assert np.abs(pi - rhs).max() < 1e-12

    def test_degree_sampled_expectation(self, spark):
        """Fact 5: E[π(u)] = d(u)/‖A‖₁ when e_s ~ degree distribution."""
        g = get_graph(spark, "er_lognormal")
        csr = g.csr
        p_src = csr.deg / csr.deg.sum()
        expected = np.zeros(csr.n)
        for s in range(csr.n):
            expected += p_src[s] * ground_truth(csr, s, iters=80)
        assert np.allclose(expected, csr.deg / csr.deg.sum(), atol=1e-6)

    def test_weighted_vs_unweighted_differ(self, spark):
        g = get_graph(spark, "star")
        pi = ground_truth(g.csr, 0)
        # heavy neighbor (node 1) receives far more mass than a light one
        assert pi[1] > 50 * pi[2]


class TestPowerMethodSpark:
    def test_matches_ground_truth(self, spark):
        g = get_graph(spark, "er_lognormal")
        res = power_method(g, 0, iters=40)
        gt = ground_truth(g.csr, 0, iters=40)
        assert np.abs(res.estimate - gt).max() < 1e-9

    def test_l1_error_decays_geometrically(self, spark):
        """Power Method's ℓ1 error after L iters is ≤ (1-α)^L (§3)."""
        g = get_graph(spark, "triangle")
        gt = ground_truth(g.csr, 0, iters=200)
        for iters in (3, 6):
            res = power_method(g, 0, iters=iters)
            err = np.abs(res.estimate - gt).sum()
            assert err <= (1 - 0.2) ** iters + 1e-9

    def test_cost_is_m_per_iteration(self, spark):
        g = get_graph(spark, "triangle")
        res = power_method(g, 0, iters=5)
        assert res.cost.edge_touches == 5 * g.csr.nnz
        assert res.cost.supersteps == 5

    def test_estimate_sums_to_one(self, spark):
        g = get_graph(spark, "star")
        res = power_method(g, 0, iters=25)
        assert res.estimate.sum() == pytest.approx(1.0, abs=1e-9)
