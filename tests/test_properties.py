"""Property-based tests (hypothesis): the paper's guarantees must hold on
*arbitrary* small weighted graphs, not just the handcrafted fixtures.

These exercise the numpy reference implementations (fast enough for many
examples); the Spark batch algorithms are separately cross-checked against
the references in test_push_spark.py.
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.unbalance import additive_unbalance_factor, cos2_phi
from repro.core import thresholds as th
from repro.core.power import ground_truth
from repro.core.runtime import CostStats
from repro.core.sequential import sequential_edge_push, sequential_local_push
from repro.graphs.graph import CSR

from .helpers import stationary


@st.composite
def random_weighted_csr(draw):
    """Connected random weighted graph with 4–24 nodes as a CSR."""
    n = draw(st.integers(min_value=4, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    skew = draw(st.floats(min_value=0.1, max_value=3.0))
    g = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = g.random(iu.size) < 0.4
    # spanning path guarantees connectivity / no isolated nodes
    path = (ju - iu) == 1
    keep |= path
    src_u, dst_u = iu[keep], ju[keep]
    w_u = g.lognormal(0.0, skew, size=src_u.size)
    pdf = pd.DataFrame(
        {
            "src": np.concatenate([src_u, dst_u]),
            "dst": np.concatenate([dst_u, src_u]),
            "weight": np.concatenate([w_u, w_u]),
        }
    ).sort_values(["src", "dst"])
    counts = np.bincount(pdf["src"].to_numpy(), minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return CSR(
        n=n,
        indptr=indptr,
        indices=pdf["dst"].to_numpy(np.int64),
        weights=pdf["weight"].to_numpy(np.float64),
    )


COMMON = dict(max_examples=25, deadline=None)


class TestEdgePushProperties:
    @given(csr=random_weighted_csr(), eps=st.floats(min_value=1e-3, max_value=0.5),
           alpha=st.floats(min_value=0.05, max_value=0.8))
    @settings(**COMMON)
    def test_l1_bound_any_graph(self, csr, eps, alpha):
        gt = ground_truth(csr, 0, alpha=alpha, iters=200)
        res = sequential_edge_push(csr, 0, th.theta_l1(csr, eps), alpha=alpha)
        assert np.abs(res.estimate - gt).sum() <= eps + 1e-8
        assert (res.estimate <= gt + 1e-9).all()

    @given(csr=random_weighted_csr(), rmax=st.floats(min_value=1e-5, max_value=1e-2),
           alpha=st.floats(min_value=0.05, max_value=0.8))
    @settings(**COMMON)
    def test_additive_bound_any_graph(self, csr, rmax, alpha):
        gt = ground_truth(csr, 0, alpha=alpha, iters=250)
        res = sequential_edge_push(csr, 0, th.theta_additive(csr, rmax), alpha=alpha)
        assert (np.abs(res.estimate - gt) / csr.deg).max() <= rmax + 1e-8

    @given(csr=random_weighted_csr())
    @settings(**COMMON)
    def test_terminal_residues_below_theta(self, csr):
        theta = th.theta_l1(csr, 0.05)
        res = sequential_edge_push(csr, 0, theta, alpha=0.2)
        assert (res.state["r"] <= theta + 1e-10).all()

    @given(csr=random_weighted_csr())
    @settings(**COMMON)
    def test_matches_localpush_at_high_precision(self, csr):
        lp = sequential_local_push(csr, 0, alpha=0.2, theta=1e-8 / csr.norm_a())
        ep = sequential_edge_push(csr, 0, th.theta_l1(csr, 1e-8), alpha=0.2)
        assert np.abs(lp.estimate - ep.estimate).max() < 1e-6


class TestLocalPushProperties:
    @given(csr=random_weighted_csr(), eps=st.floats(min_value=1e-3, max_value=0.5))
    @settings(**COMMON)
    def test_l1_bound_any_graph(self, csr, eps):
        gt = ground_truth(csr, 0, alpha=0.2, iters=200)
        res = sequential_local_push(csr, 0, alpha=0.2, theta=eps / csr.norm_a())
        assert np.abs(res.estimate - gt).sum() <= eps + 1e-8

    @given(csr=random_weighted_csr(), s_idx=st.integers(min_value=0, max_value=100))
    @settings(**COMMON)
    def test_any_source(self, csr, s_idx):
        s = s_idx % csr.n
        gt = ground_truth(csr, s, alpha=0.2, iters=200)
        res = sequential_local_push(csr, s, alpha=0.2, theta=1e-4)
        assert (np.abs(res.estimate - gt) / csr.deg).max() <= 1e-4 + 1e-9


class TestTheoryProperties:
    @given(csr=random_weighted_csr())
    @settings(**COMMON)
    def test_cost_bound_ordering(self, csr):
        """Table-1 ordering on any graph: EdgePush's expected ℓ1 bound is
        (1-α)·cos²φ × LocalPush's ≤ LocalPush's."""
        eps = 0.01
        alpha = 0.2
        pi = stationary(csr)
        lp = th.edgepush_source_cost(
            csr, pi, th.theta_local(csr, eps / csr.norm_a(), alpha=alpha), alpha=alpha
        )
        ep = th.edgepush_source_cost(csr, pi, th.theta_l1(csr, eps), alpha=alpha)
        assert ep <= lp * (1 + 1e-9)
        assert ep / lp == pytest.approx((1 - alpha) * cos2_phi(csr), rel=1e-9)

    @given(csr=random_weighted_csr())
    @settings(**COMMON)
    def test_unbalance_measures_in_range(self, csr):
        assert 0 < cos2_phi(csr) <= 1 + 1e-12
        assert 0 < additive_unbalance_factor(csr) <= 1 + 1e-12


class TestCostStats:
    def test_add_superstep(self):
        c = CostStats()
        c.add_superstep(pushes=3, edge_touches=7)
        c.add_superstep(pushes=1, edge_touches=2)
        assert c.supersteps == 2 and c.pushes == 4 and c.edge_touches == 9

    def test_few_shuffle_partitions_restores(self, spark):
        """The loop's partition count follows the edge rows, one partition
        per ROWS_PER_PARTITION up to the core count, with AQE off; the
        session values come back after the scope."""
        from repro.core.runtime import ROWS_PER_PARTITION, few_shuffle_partitions

        keys = ("spark.sql.shuffle.partitions", "spark.sql.adaptive.enabled")
        before = [spark.conf.get(k) for k in keys]
        cores = spark.sparkContext.defaultParallelism
        for rows, partitions in [
            (1, 1),
            (ROWS_PER_PARTITION, 1),
            (ROWS_PER_PARTITION + 1, min(2, cores)),
            (10**9, cores),
        ]:
            with few_shuffle_partitions(spark, rows):
                inside = [spark.conf.get(k) for k in keys]
                assert inside == [str(partitions), "false"], rows
            assert [spark.conf.get(k) for k in keys] == before
