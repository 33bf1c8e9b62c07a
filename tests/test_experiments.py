"""Integration tests for the experiment harnesses (repro.analysis.experiments).

Tiny configurations of the exact code paths the benchmarks/jobs run,
checking row shapes, the paper-vs-measured columns, and the headline
orderings the paper reports.
"""
import functools

import pytest

from repro.analysis import experiments as ex
from repro.core.localpush import local_push
from repro.core.power import ground_truth
from repro.graphs import datasets as ds

from .helpers import assert_work_within_bounds, get_graph


class TestTable2:
    def test_rows_for_subset(self, spark):
        df = ex.table2_rows(spark, keys=("TH", "BC"))
        assert list(df["dataset"]) == ["TH", "BC"]
        assert {"n", "m", "cos2_phi", "paper_cos2"} <= set(df.columns)
        assert (df["cos2_phi"] > 0).all() and (df["cos2_phi"] <= 1).all()

    def test_paper_columns_quoted_verbatim(self, spark):
        df = ex.table2_rows(spark, keys=("TH",))
        assert df["paper_n"].iloc[0] == ds.PAPER_TABLE2["TH"]["n"]


def test_row_refuses_truncated_run(spark):
    """A push run stopped at its superstep cap has no error bound, so it
    never becomes a table row."""
    g = get_graph(spark, "er_lognormal")
    res = local_push(g, 0, alpha=ex.ALPHA, theta=1e-5, max_supersteps=2)
    gt = ground_truth(g.csr, 0, alpha=ex.ALPHA)
    with pytest.raises(ValueError, match="'method': 'MAPPR'"):
        ex._row(g, gt, res, dataset="er", method="MAPPR", source=0)


class TestAdditiveTradeoff:
    @pytest.fixture(scope="class")
    def rows(self, spark):
        return ex.additive_tradeoff(
            {"er": get_graph(spark, "er_lognormal")},
            n_sources=1,
            seed=0,
            rmax_grid=(1e-3,),
            delta_grid=(1e-1,),
        )

    def test_all_methods_present(self, rows):
        assert set(rows["method"]) == {"EdgePush-Add", "MAPPR", "MC", "FORA", "SpeedPPR"}

    def test_metrics_populated(self, rows):
        for col in ("norm_max_add_err", "precision_norm", "conductance", "work"):
            assert rows[col].notna().all()
        assert (rows["work"] > 0).all()

    def test_push_methods_meet_rmax(self, rows):
        push = rows[rows["method"].isin(["EdgePush-Add", "MAPPR"])]
        assert (push["norm_max_add_err"] <= 1e-3 + 1e-9).all()

    def test_edgepush_cheapest_push_method(self, rows):
        by = rows.set_index("method")["work"]
        assert by["EdgePush-Add"] <= by["MAPPR"]


class TestL1Tradeoff:
    @pytest.fixture(scope="class")
    def rows(self, spark):
        return ex.l1_tradeoff(
            {"er": get_graph(spark, "er_lognormal")},
            n_sources=1,
            seed=0,
            eps_grid=(1e-1,),
            iters_grid=(4,),
        )

    def test_methods(self, rows):
        assert set(rows["method"]) == {"EdgePush", "PowForPush", "PowerMethod"}

    def test_l1_bounds_hold(self, rows):
        push = rows[rows["method"].isin(["EdgePush", "PowForPush"])]
        assert (push["l1_err"] <= 1e-1 + 1e-9).all()
        pm = rows[rows["method"] == "PowerMethod"]
        assert (pm["l1_err"] <= 0.8**4 + 1e-9).all()

    def test_power_method_work_is_m_times_iters(self, rows, spark):
        g = get_graph(spark, "er_lognormal")
        pm = rows[rows["method"] == "PowerMethod"].iloc[0]
        assert pm["work"] == 4 * g.csr.nnz


class TestUnbalanceSweep:
    def test_rows_and_ordering(self, spark):
        df = ex.unbalance_sweep(
            spark, n=80, n_sources=1, rmax_grid=(1e-3,), eps_grid=(1e-1,), seed=0
        )
        assert set(df["method"]) == {"EdgePush-Add", "LocalPush", "EdgePush"}
        assert df["graph"].nunique() == 4
        # measured cos²φ increases across the four affinity graphs
        c = df.groupby("graph")["cos2_phi"].first()
        assert list(c.sort_index()) == sorted(c)


class TestSweep:
    """The sweep behind the harnesses: per graph, one ground truth per
    sampled source, and each (method, param) run over all of the graph's
    sources in a row."""

    METHODS = ("edge_push", "local_push", "monte_carlo", "fora", "power_method")

    @pytest.mark.parametrize(
        "harness, grids, runs_per_source",
        [
            (ex.additive_tradeoff, {"rmax_grid": (1e-3,), "delta_grid": (1e-1,)}, 5),
            (ex.l1_tradeoff, {"eps_grid": (1e-1,), "iters_grid": (4,)}, 3),
        ],
        ids=["additive", "l1"],
    )
    def test_sources_innermost(self, spark, monkeypatch, harness, grids, runs_per_source):
        graphs = {name: get_graph(spark, name) for name in ("er_lognormal", "star")}
        gt_calls, run_calls = [], []

        def counted_ground_truth(csr, s, **kw):
            gt_calls.append((id(csr), s))
            return ground_truth(csr, s, **kw)

        def recorded(name, method):
            def run(g, s, **kw):
                run_calls.append((id(g), name, repr(sorted(kw.items())), s))
                return method(g, s, **kw)
            return run

        monkeypatch.setattr(ex, "ground_truth", counted_ground_truth)
        for name in self.METHODS:
            monkeypatch.setattr(ex, name, recorded(name, getattr(ex, name)))
        rows = harness(graphs, n_sources=2, seed=0, **grids)

        srcs = {label: g.sample_sources(2, seed=0) for label, g in graphs.items()}
        assert len(rows) == len(graphs) * 2 * runs_per_source
        assert sorted(gt_calls) == sorted(
            {(id(g.csr), s) for label, g in graphs.items() for s in srcs[label]}
        )
        # the calls come in blocks of one run over one graph's sources, in order
        blocks = [run_calls[i:i + 2] for i in range(0, len(run_calls), 2)]
        assert len(blocks) == len(graphs) * runs_per_source
        for label, g in graphs.items():
            mine = [b for b in blocks if b[0][0] == id(g)]
            assert len(mine) == runs_per_source
            for block in mine:
                assert len({call[:3] for call in block}) == 1
                assert [call[3] for call in block] == srcs[label]


class TestTable1Complexity:
    def test_ratios_sequential(self, spark):
        g = get_graph(spark, "star")
        df = ex.table1_complexity(
            {"star": g}, eps=0.05, rmax=1e-3, n_sources=2, impl="sequential"
        )
        row = df.iloc[0]
        assert row["measured_ratio_l1"] < 1
        assert 0 < row["predicted_ratio_l1"] < 1
        assert row["ep_work_l1"] <= row["lp_work_l1"]
        assert_work_within_bounds(df)

    def test_ratios_batch(self, spark):
        g = get_graph(spark, "star")
        df = ex.table1_complexity(
            {"star": g}, eps=0.05, rmax=1e-3, n_sources=1, impl="batch"
        )
        row = df.iloc[0]
        assert row["ep_work_l1"] <= row["lp_work_l1"]
        assert row["ep_work_add"] <= row["lp_work_add"] * 1.1
        assert_work_within_bounds(df)

    def test_unknown_impl_raises(self, spark):
        with pytest.raises(ValueError, match="unknown impl"):
            ex.table1_complexity({"star": get_graph(spark, "star")}, impl="seq")

    @pytest.mark.parametrize(
        "impl, name, capped",
        [
            ("sequential", "sequential_edge_push", {"max_pushes": 10}),
            ("batch", "edge_push", {"max_supersteps": 2}),
        ],
    )
    def test_refuses_capped_run(self, spark, monkeypatch, impl, name, capped):
        """A run stopped at its cap has no cost bound, so it never becomes
        a Table-1 row."""
        monkeypatch.setattr(ex, name, functools.partial(getattr(ex, name), **capped))
        g = get_graph(spark, "er_lognormal")
        with pytest.raises(ValueError, match="'method': 'EdgePush'"):
            ex.table1_complexity({"er": g}, eps=0.1, rmax=1e-4, n_sources=1, impl=impl)
