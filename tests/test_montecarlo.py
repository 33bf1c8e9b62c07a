"""Tests for the Monte-Carlo walker, FORA and SpeedPPR baselines."""
import dataclasses
import functools

import numpy as np
import pandas as pd
import pytest

from repro.core import runtime
from repro.core.fora import balanced_theta, fora, mc_repair, monte_carlo
from repro.core.montecarlo import run_walks, walk_count
from repro.core.power import ground_truth
from repro.core.localpush import local_push
from repro.graphs.graph import WeightedGraph

from .helpers import get_graph

ALPHA = 0.2


class TestWalkCount:
    def test_formula(self):
        # ω = (2·0.5/3 + 2)·ln(2/0.01)/(0.25·0.1)
        w = walk_count(delta=0.1, eps_r=0.5, p_f=0.01)
        expected = (2 * 0.5 / 3 + 2) * np.log(2 / 0.01) / (0.25 * 0.1)
        assert w == int(np.ceil(expected))

    def test_monotone_in_delta(self):
        assert walk_count(delta=1e-3, p_f=0.01) > walk_count(delta=1e-2, p_f=0.01)


WALK_PARAMS = dict(delta=1e-2, eps_r=0.5, p_f=0.01)


@pytest.mark.parametrize(
    "method, kwargs",
    [
        ("walk_count", dict(delta=0.0)),
        ("walk_count", dict(delta=-1e-2)),
        ("walk_count", dict(eps_r=0.0)),
        ("walk_count", dict(p_f=0.0)),
        ("walk_count", dict(p_f=1.0)),
        ("walk_count", dict(p_f=1.5)),
        ("walk_count", dict(p_f=2.0)),
        ("monte_carlo", dict(delta=float("nan"))),
        ("monte_carlo", dict(eps_r=0.0)),
        ("monte_carlo", dict(p_f=2.0)),
        ("fora", dict(p_f=2.0)),
        ("fora", dict(delta=-1e-2)),
        ("walk_count", dict(delta=float("inf"))),
        ("walk_count", dict(eps_r=float("inf"))),
        ("monte_carlo", dict(delta=float("inf"))),
        ("fora", dict(delta=float("inf"))),
    ],
)
def test_rejects_degenerate_walk_parameters(spark, method, kwargs):
    """A walk count needs finite δ > 0, finite ε_r > 0 and 0 < p_f < 1;
    anything else, NaN included, is refused before any walk runs instead
    of failing inside the walker or returning a meaningless count (δ = ∞
    gives ω = 0: no walks, and a division by zero in FORA's balancing)."""
    if method == "walk_count":
        query = functools.partial(walk_count, **{**WALK_PARAMS, **kwargs})
    else:
        pdf = pd.DataFrame({"src": [0], "dst": [1], "weight": [1.0]})
        g = WeightedGraph.from_undirected_pandas(spark, pdf, n=3)
        method = {"monte_carlo": monte_carlo, "fora": fora}[method]
        query = functools.partial(method, g, 0, alpha=ALPHA, **kwargs)
    with pytest.raises(ValueError, match="walk parameters"):
        query()


class TestRunWalks:
    def test_terminal_mass_conserved(self, spark):
        g = get_graph(spark, "er_lognormal")
        start, contrib = np.zeros(500, np.int64), np.full(500, 1 / 500)
        est, steps = run_walks(g.csr, start, contrib, alpha=ALPHA, seed=1)
        assert est.shape == (g.n,)
        assert est.sum() == pytest.approx(1.0)
        assert steps > 0

    def test_deterministic_in_seed(self, spark):
        g = get_graph(spark, "triangle")
        start, contrib = np.zeros(200, np.int64), np.ones(200)
        a, _ = run_walks(g.csr, start, contrib, alpha=ALPHA, seed=7)
        b, _ = run_walks(g.csr, start, contrib, alpha=ALPHA, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_expected_steps_geometric(self, spark):
        """Mean walk length is (1-α)/α ≈ 4 for α = 0.2."""
        g = get_graph(spark, "er_lognormal")
        n_w = 2000
        start, contrib = np.zeros(n_w, np.int64), np.ones(n_w)
        _, steps = run_walks(g.csr, start, contrib, alpha=ALPHA, seed=3)
        assert steps / n_w == pytest.approx((1 - ALPHA) / ALPHA, rel=0.2)

    def test_weighted_sampling_respects_weights(self, spark):
        """On the star, almost all first moves go along the heavy edge."""
        g = get_graph(spark, "star")
        n_w = 3000
        start, contrib = np.zeros(n_w, np.int64), np.full(n_w, 1 / n_w)
        est, _ = run_walks(g.csr, start, contrib, alpha=ALPHA, seed=5)
        gt = ground_truth(g.csr, 0, alpha=ALPHA)
        assert abs(est[1] - gt[1]) < 0.05


class TestMonteCarlo:
    def test_unbiased_small_graph(self, spark):
        g = get_graph(spark, "triangle")
        res = monte_carlo(g, 0, alpha=ALPHA, delta=3e-3, seed=2)
        gt = ground_truth(g.csr, 0, alpha=ALPHA)
        assert np.abs(res.estimate - gt).max() < 0.03

    def test_estimate_sums_to_one(self, spark):
        g = get_graph(spark, "er_lognormal")
        res = monte_carlo(g, 0, delta=0.05, seed=4)
        assert res.estimate.sum() == pytest.approx(1.0)

    def test_cost_counts_walks(self, spark):
        g = get_graph(spark, "triangle")
        res = monte_carlo(g, 0, delta=0.05, seed=1)
        assert res.cost.walks == walk_count(delta=0.05, p_f=1 / g.n)
        assert res.cost.walk_steps == res.cost.edge_touches

    def test_default_walk_count_from_params(self, spark):
        g = get_graph(spark, "two_node")
        res = monte_carlo(g, 0, delta=0.05, eps_r=0.5, p_f=0.1, seed=0)
        assert res.cost.walks == walk_count(delta=0.05, eps_r=0.5, p_f=0.1)


class TestFora:
    def test_more_accurate_than_push_alone(self, spark):
        g = get_graph(spark, "er_lognormal")
        gt = ground_truth(g.csr, 0, alpha=ALPHA)
        res = fora(g, 0, alpha=ALPHA, delta=1e-3, seed=6)
        assert np.abs(res.estimate - gt).sum() < 0.15

    def test_estimate_sums_near_one(self, spark):
        """Push reserve + walk repair accounts for all probability mass."""
        g = get_graph(spark, "star")
        res = fora(g, 0, alpha=ALPHA, delta=1e-2, seed=8)
        assert res.estimate.sum() == pytest.approx(1.0, abs=1e-6)

    def test_combines_push_and_walk_cost(self, spark):
        g = get_graph(spark, "er_lognormal")
        res = fora(g, 0, alpha=ALPHA, delta=1e-3, seed=9)
        assert res.cost.pushes > 0
        assert res.cost.walks > 0

    def test_repair_independent_of_row_order(self, spark):
        """The same terminal state, its rows in another order, gives the same
        walks for the same seed and hence an identical estimate."""
        g = get_graph(spark, "er_lognormal")
        push_res = local_push(g, 0, alpha=ALPHA, theta=1e-3)
        state = push_res.state
        ests = [
            mc_repair(
                g,
                dataclasses.replace(push_res, state=s),
                omega=3000,
                alpha=ALPHA,
                seed=12,
            ).estimate
            for s in (
                state,
                state.sort_values("node", ascending=False),
                state.sample(frac=1.0, random_state=5),
            )
        ]
        for est in ests[1:]:
            np.testing.assert_array_equal(est, ests[0])

    def test_repair_leaves_push_result_unchanged(self, spark):
        """Repairing one push result twice books its walks and their wall
        time once per repair, on the repaired result, never on the push
        result."""
        g = get_graph(spark, "er_lognormal")
        push_res = local_push(g, 0, alpha=ALPHA, theta=1e-3)
        push_cost = dataclasses.replace(push_res.cost)
        a, b = (
            mc_repair(g, push_res, omega=3000, alpha=ALPHA, seed=12) for _ in range(2)
        )
        assert a.cost.walks > 0
        assert a.cost.wall_seconds > push_res.cost.wall_seconds
        untimed = [dataclasses.replace(r.cost, wall_seconds=0.0) for r in (a, b)]
        assert untimed[0] == untimed[1]
        assert push_res.cost == push_cost
        assert push_res.cost.walks == 0

    def test_balanced_theta_formula(self, spark):
        g = get_graph(spark, "triangle")
        omega = 1000
        t = balanced_theta(g, alpha=ALPHA, omega=omega)
        assert t == pytest.approx(
            np.sqrt(g.csr.nnz / (ALPHA * omega)) / g.csr.norm_a()
        )


class TestSpeedPPR:
    def test_powforpush_same_guarantee_as_localpush(self, spark):
        g = get_graph(spark, "er_lognormal")
        gt = ground_truth(g.csr, 0, alpha=ALPHA)
        rmax = 1e-3
        res = local_push(g, 0, alpha=ALPHA, theta=rmax, scan=True)
        err = np.abs(res.estimate - gt) / g.csr.deg
        assert err.max() <= rmax + 1e-9

    def test_powforpush_fewer_supersteps_when_scanning(self, spark, monkeypatch):
        """Scan mode pushes sub-threshold residues too, so it can only
        converge in fewer (or equal) supersteps."""
        g = get_graph(spark, "er_lognormal")
        plain = local_push(g, 0, alpha=ALPHA, theta=1e-5)
        monkeypatch.setattr(runtime, "SCAN_FRAC", 0.05)
        pfp = local_push(g, 0, alpha=ALPHA, theta=1e-5, scan=True)
        assert pfp.cost.supersteps <= plain.cost.supersteps

    def test_speedppr_accuracy(self, spark):
        g = get_graph(spark, "er_lognormal")
        gt = ground_truth(g.csr, 0, alpha=ALPHA)
        res = fora(g, 0, alpha=ALPHA, delta=1e-3, scan=True, seed=10)
        assert np.abs(res.estimate - gt).sum() < 0.15

    def test_speedppr_mass_conserved(self, spark):
        g = get_graph(spark, "star")
        res = fora(g, 0, alpha=ALPHA, delta=1e-2, scan=True, seed=11)
        assert res.estimate.sum() == pytest.approx(1.0, abs=1e-6)
