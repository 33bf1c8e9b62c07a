"""Benchmark/repro of Table 1: measured EdgePush vs LocalPush work (the
bulk-synchronous batch schedules, 2 degree-sampled sources) against the
predicted improvement factors (1-α)·cos²φ (ℓ1) and (1-α)/2m·Σ n_v·cos²φ_v
(additive)."""
from repro.analysis.experiments import table1_complexity
from repro.graphs import datasets as ds
from repro.graphs import generators as gen
from repro.graphs.graph import WeightedGraph

from ._util import run_and_save


def test_table1_complexity(benchmark, spark):
    def run():
        graphs = {
            "star(fig1,n=1000)": WeightedGraph.from_undirected_pandas(
                spark, gen.star_bad_case(1000)
            ),
            "complete_unbalanced(n=128)": WeightedGraph.from_undirected_pandas(
                spark, gen.complete_unbalanced(128)
            ),
            "TH-lite(balanced)": ds.load(spark, "TH"),
            "TA-lite(skewed)": ds.load(spark, "TA"),
            "BC-lite": ds.load(spark, "BC"),
        }
        return table1_complexity(
            spark, graphs, eps=0.01, rmax=1e-4, n_sources=2, seed=0, impl="batch"
        )

    df = run_and_save(benchmark, "table1_complexity", run)
    # headline Table-1 claim: EdgePush's bound (and, under the batch
    # schedule, measured work) is never worse than LocalPush's, and the
    # gap tracks cos²φ
    assert (df["predicted_ratio_l1"] <= 1 + 1e-9).all()
    assert (df["ep_work_l1"] <= df["lp_work_l1"] * 1.1).all()
    assert (df["ep_work_add"] <= df["lp_work_add"] * 1.1).all()
