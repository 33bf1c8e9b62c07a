"""Tests for the unbalancedness analysis — verifies Lemmas 6–7 empirically."""
import numpy as np
import pytest

from repro.analysis import unbalance as U
from repro.core import thresholds as th
from repro.graphs import generators as gen

from .helpers import GRAPH_BUILDERS, build, get_graph, stationary

ALPHA = 0.2


@pytest.fixture(params=list(GRAPH_BUILDERS))
def any_graph(request, spark):
    return get_graph(spark, request.param)


class TestCos2Phi:
    def test_bounded_by_one(self, any_graph):
        assert 0 < U.cos2_phi(any_graph.csr) <= 1 + 1e-12

    def test_unit_weights_give_one(self, spark):
        g = build(spark, gen.er_graph(50, 0.2, seed=31))
        assert U.cos2_phi(g.csr) == pytest.approx(1.0)
        assert np.allclose(U.cos2_phi_v(g.csr), 1.0)

    def test_per_node_bounded(self, any_graph):
        c = U.cos2_phi_v(any_graph.csr)
        assert (c <= 1 + 1e-12).all()
        assert (c >= 0).all()

    def test_additive_factor_bounded(self, any_graph):
        f = U.additive_unbalance_factor(any_graph.csr)
        assert 0 < f <= 1 + 1e-12

    def test_lemma6_identity(self, any_graph):
        """(Σ√A)² = 2m·‖A‖₁·cos²φ (Equation 19)."""
        csr = any_graph.csr
        lhs = np.sqrt(csr.weights).sum() ** 2
        rhs = csr.nnz * csr.weights.sum() * U.cos2_phi(csr)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_lemma7_identity(self, any_graph):
        """Σ_v (Σ√A_xv)²/d(v) = Σ_v n(v)·cos²φ_v (Equation 20)."""
        csr = any_graph.csr
        sq = np.bincount(csr.src, weights=np.sqrt(csr.weights), minlength=csr.n)
        lhs = float((sq**2 / np.where(csr.deg > 0, csr.deg, 1)).sum())
        rhs = float((csr.out_degree() * U.cos2_phi_v(csr)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_improvement_factors_match_cost_ratio(self, any_graph):
        """Lemma 6: EdgePush's expected ℓ1 cost equals
        (1-α)·cos²φ × LocalPush's."""
        csr = any_graph.csr
        eps = 0.01
        pi = stationary(csr)
        lp = th.localpush_source_cost(csr, pi, alpha=ALPHA, theta=eps / csr.norm_a())
        ep = th.edgepush_source_cost(csr, pi, th.theta_l1(csr, eps), alpha=ALPHA)
        assert ep / lp == pytest.approx(U.l1_improvement(csr, alpha=ALPHA), rel=1e-9)

    def test_additive_improvement_matches_cost_ratio(self, any_graph):
        """Lemma 7 analogue for the normalized-additive regime."""
        csr = any_graph.csr
        rmax = 1e-4
        pi = stationary(csr)
        lp = th.localpush_source_cost(csr, pi, alpha=ALPHA, theta=rmax)
        ep = th.edgepush_source_cost(csr, pi, th.theta_additive(csr, rmax), alpha=ALPHA)
        assert ep / lp == pytest.approx(
            U.additive_improvement(csr, alpha=ALPHA), rel=1e-9
        )


class TestStarAndComplete:
    def test_star_cos2_theta_1_over_n(self, spark):
        """The Figure-1 graph: cos²φ = O(1/n) ⇒ O(n) predicted speedup."""
        cs = [
            U.cos2_phi(build(spark, gen.star_bad_case(n)).csr) * n
            for n in (50, 100, 200)
        ]
        assert max(cs) / min(cs) < 3.0

    def test_affinity_configs_monotone_unbalance(self, spark):
        """Figures 16–17: the four calibrated affinity graphs give
        increasing cos²φ matching the paper's published values."""
        from repro.graphs.affinity import PAPER_COS2, paper_affinity_graphs

        cs = []
        for pdf in paper_affinity_graphs(150, seed=41):
            g = build(spark, pdf)
            cs.append(U.cos2_phi(g.csr))
        assert cs == sorted(cs)
        for c, target in zip(cs, PAPER_COS2):
            assert c == pytest.approx(target, rel=0.1)
