"""Tests for affinity graphs (§6.3) and the Table-2 dataset-lite registry."""
import numpy as np
import pytest

from repro.analysis.unbalance import additive_unbalance_factor, cos2_phi
from repro.core.runtime import shuffle_partitions
from repro.graphs import datasets as ds
from repro.graphs.affinity import (
    PAPER_CONFIGS,
    PAPER_COS2,
    calibrated_affinity_graph,
    paper_affinity_graphs,
)

from .helpers import build

# (n, m, max weight, Σw over directed edges) of the motif lites
MOTIF_LITES = {
    "YT": (818, 4178, 122, 38736),
    "LJ": (1139, 10420, 399, 231486),
    "IC": (798, 10343, 476, 358866),
    "OL": (990, 10668, 207, 149568),
}


def _c2(pdf):
    w = np.concatenate([pdf.weight, pdf.weight])
    return np.sqrt(w).sum() ** 2 / (w.size * w.sum())


class TestAffinityGraph:
    def test_fully_connected(self):
        pdf = calibrated_affinity_graph(
            30, kappa=2, sigma_n2=10.0, target_cos2=0.5, seed=1
        )
        assert len(pdf) == 30 * 29 // 2

    def test_weights_in_unit_interval(self):
        # a skewed target spreads the weights over hundreds of orders of magnitude
        pdf = calibrated_affinity_graph(
            40, kappa=3, sigma_n2=5.0, target_cos2=0.01, seed=2
        )
        assert (pdf.weight > 0).all()
        assert (pdf.weight <= 1.0).all()

    def test_deterministic(self):
        a = calibrated_affinity_graph(20, kappa=2, sigma_n2=1.0, target_cos2=0.4, seed=3)
        b = calibrated_affinity_graph(20, kappa=2, sigma_n2=1.0, target_cos2=0.4, seed=3)
        assert np.array_equal(a.weight, b.weight)

    def test_wider_kernel_more_balanced(self):
        """cos²φ is increasing in σ², the monotonicity the calibration
        bisection relies on: on the same points, a more balanced target
        gets a wider kernel, so every pair's weight is at least as large."""
        lo = calibrated_affinity_graph(
            100, kappa=2, sigma_n2=50.0, target_cos2=0.2, seed=4
        )
        hi = calibrated_affinity_graph(
            100, kappa=2, sigma_n2=50.0, target_cos2=0.8, seed=4
        )
        assert _c2(hi) > _c2(lo)
        assert (hi.weight >= lo.weight).all()

    @pytest.mark.parametrize("target", [0.05, 0.3, 0.7])
    def test_calibration_hits_target(self, target):
        pdf = calibrated_affinity_graph(
            120, kappa=3, sigma_n2=10.0, target_cos2=target, seed=5
        )
        assert _c2(pdf) == pytest.approx(target, rel=0.05)

    def test_paper_configs_shape(self):
        assert len(PAPER_CONFIGS) == 4
        assert [c["kappa"] for c in PAPER_CONFIGS] == [1, 1, 13, 20]

    def test_paper_affinity_graphs_match_published_cos2(self):
        graphs = paper_affinity_graphs(120, seed=6)
        for pdf, target in zip(graphs, PAPER_COS2):
            assert _c2(pdf) == pytest.approx(target, rel=0.1)


class TestDatasetRegistry:
    def test_eight_specs(self):
        assert set(ds.SPECS) == set(ds.ALL_KEYS)
        assert len(ds.ALL_KEYS) == 8

    def test_paper_table2_complete(self):
        for k in ds.ALL_KEYS:
            row = ds.PAPER_TABLE2[k]
            assert {"n", "m", "mean_w", "max_w", "cos2"} <= set(row)

    @pytest.mark.parametrize("key", ["TH", "BC"])
    def test_real_lite_hits_target_cos2(self, spark, key):
        g = ds.load(spark, key)
        target = ds.PAPER_TABLE2[key]["cos2"]
        assert cos2_phi(g.csr) == pytest.approx(target, rel=0.3)

    def test_motif_lite_builds(self, spark):
        """Each motif lite has triangle-count weights and its pinned
        (n, m, max weight, Σw over the directed edges); n, m and max weight
        are its row of the lites' Table 2."""
        for key in ds.MOTIF_KEYS:
            csr = ds.load(spark, key).csr
            w = csr.weights
            assert (w == w.astype(int)).all(), key  # triangle counts
            got = (csr.n, csr.nnz // 2, w.max(), w.sum())
            assert got == MOTIF_LITES[key], key

    @pytest.mark.parametrize("key", ds.ALL_KEYS)
    def test_lite_push_state_is_one_partition(self, spark, key):
        """Every lite's edge state is one shuffle partition of the push
        loop, whatever the core count, so its supersteps run no exchange."""
        nnz = ds.load(spark, key).csr.nnz
        assert shuffle_partitions(nnz, cores=1 << 30) == 1

    @pytest.mark.parametrize("key", sorted(ds.SPECS))
    def test_lite_has_a_push_unit_on_every_node(self, spark, key):
        """LocalPush books one push on each node's first CSR edge, and its
        scan switch compares the candidates with a fraction of those units,
        the nodes with edges. On every lite that is all n nodes."""
        csr = ds.load(spark, key).csr
        head = np.diff(csr.src, prepend=-1) != 0
        assert head.sum() == csr.n

    def test_load_cached(self, spark):
        assert ds.load(spark, "TH") is ds.load(spark, "TH")

    def test_lite_stats_ordering_matches_paper(self, spark):
        """The most/least unbalanced of the real-weighted lites should
        match the paper's ordering (TA/SP skewest, TH most balanced)."""
        cs = {k: cos2_phi(ds.load(spark, k).csr) for k in ("TA", "TH", "SP")}
        assert cs["TH"] > cs["SP"]
        assert cs["TH"] > cs["TA"]

    def test_unbalance_factors_consistent(self, spark):
        g = ds.load(spark, "BC")
        assert 0 < additive_unbalance_factor(g.csr) <= 1
