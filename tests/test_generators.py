"""Tests for repro.graphs.generators."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.unbalance import cos2_phi
from repro.graphs import generators as gen

from .helpers import build


def _valid_undirected(pdf: pd.DataFrame, n: int | None = None):
    assert set(pdf.columns) >= {"src", "dst", "weight"}
    assert (pdf.src != pdf.dst).all(), "no self-loops"
    assert (pdf.weight > 0).all()
    pairs = list(zip(np.minimum(pdf.src, pdf.dst), np.maximum(pdf.src, pdf.dst)))
    assert len(pairs) == len(set(pairs)), "no duplicate undirected edges"
    if n is not None:
        assert set(pdf.src) | set(pdf.dst) == set(range(n))


class TestStarBadCase:
    def test_structure(self):
        pdf = gen.star_bad_case(50)
        _valid_undirected(pdf, 51)  # 50 star nodes + 1 tail node
        hub = pdf[pdf.src == 0]
        assert len(hub) == 49

    def test_weight_split(self):
        n = 100
        pdf = gen.star_bad_case(n)
        hub = pdf[pdf.src == 0]
        heavy = hub[hub.dst == 1].weight.iloc[0]
        light_total = hub[hub.dst != 1].weight.sum()
        assert heavy == pytest.approx(1 - 1 / n)
        assert light_total == pytest.approx(1 / n)

    @pytest.mark.parametrize("n", [10, 50, 400])
    def test_cos2_shrinks_with_n(self, spark, n):
        # the Figure-1 graph gets more unbalanced as n grows
        c = cos2_phi(build(spark, gen.star_bad_case(n)).csr)
        assert c < 0.6
        if n >= 400:
            assert c < 0.05

    def test_tail_chain(self):
        pdf = gen.star_bad_case(20, tail=3)
        assert pdf.dst.max() == 22


class TestCompleteUnbalanced:
    def test_is_complete(self):
        pdf = gen.complete_unbalanced(20)
        assert len(pdf) == 20 * 19 // 2

    def test_ring_heavy(self):
        pdf = gen.complete_unbalanced(12, heavy=5.0)
        ring = pdf[pdf.weight == 5.0]
        assert len(ring) == 12

    def test_cos2_theta_1_over_n(self, spark):
        # cos²φ should scale like Θ(1/n): the O(n)-speedup regime
        cs = []
        for n in (16, 32, 64):
            g = build(spark, gen.complete_unbalanced(n))
            cs.append(cos2_phi(g.csr) * n)
        assert max(cs) / min(cs) < 4.0


class TestTopologies:
    @pytest.mark.parametrize("n,p", [(20, 0.3), (60, 0.1)])
    def test_er_valid(self, n, p):
        _valid_undirected(gen.er_graph(n, p, seed=1), n)

    def test_er_deterministic(self):
        a = gen.er_graph(40, 0.2, seed=9)
        b = gen.er_graph(40, 0.2, seed=9)
        pd.testing.assert_frame_equal(a, b)

    @pytest.mark.parametrize("n,m", [(50, 150), (200, 600)])
    def test_powerlaw_valid(self, n, m):
        pdf = gen.powerlaw_graph(n, m, seed=2)
        _valid_undirected(pdf, n)
        assert len(pdf) <= m + n  # _ensure_connected may add a few

    def test_powerlaw_skewed_degrees(self):
        pdf = gen.powerlaw_graph(300, 1200, exponent=1.0, seed=3)
        deg = np.bincount(np.concatenate([pdf.src, pdf.dst]), minlength=300)
        assert deg.max() > 6 * np.median(deg[deg > 0])


class TestWeightModels:
    @pytest.mark.parametrize("target", [0.2, 0.5, 0.9])
    def test_lognormal_hits_target_cos2(self, target):
        pdf = gen.lognormal_weights(
            gen.er_graph(120, 0.5, seed=4), target_cos2=target, seed=4
        )
        w = np.concatenate([pdf.weight, pdf.weight])
        c = np.sqrt(w).sum() ** 2 / (w.size * w.sum())
        # finite-sample bias: the log-normal's heavy tail makes the sample
        # E[W] undershoot, so measured cos²φ sits a bit above target
        assert c == pytest.approx(target, rel=0.35)

    def test_lognormal_deterministic(self):
        e = gen.er_graph(30, 0.3, seed=5)
        a = gen.lognormal_weights(e, target_cos2=0.4, seed=1)
        b = gen.lognormal_weights(e, target_cos2=0.4, seed=1)
        pd.testing.assert_frame_equal(a, b)

    def test_zipf_weights_heavy_tailed(self):
        pdf = gen.zipf_weights(gen.er_graph(100, 0.3, seed=6), alpha=1.1, seed=6)
        assert pdf.weight.max() > 20 * pdf.weight.median()

    @given(target=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_lognormal_any_target_valid(self, target):
        topo = gen.er_graph(20, 0.2, seed=0)
        pdf = gen.lognormal_weights(topo, target_cos2=target, seed=0)
        assert (pdf.weight > 0).all()
