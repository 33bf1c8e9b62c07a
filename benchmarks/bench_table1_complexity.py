"""Benchmark/repro of Table 1: measured EdgePush vs LocalPush work (the
bulk-synchronous batch schedules, 2 degree-sampled sources) against each
algorithm's per-source cost bound (Lemma 3, Lemma 11) and the predicted
improvement factors (1-α)·cos²φ (ℓ1) and (1-α)/2m·Σ n_v·cos²φ_v
(additive)."""
from jobs import table1_complexity

from . import RESULTS_DIR


def test_table1_complexity(benchmark, spark):
    argv = ["--datasets", "TH,TA,BC", "--eps", "0.01", "--rmax", "1e-4", "--sources", "2",
            "--seed", "0", "--impl", "batch",
            "--out", str(RESULTS_DIR / "table1_complexity.csv")]
    df = benchmark.pedantic(table1_complexity.main, args=(argv,), rounds=1, iterations=1)
    # Table 1's claim per algorithm: measured work stays within its bound
    for algo in ("lp", "ep"):
        for regime in ("l1", "add"):
            assert (df[f"{algo}_work_{regime}"] <= df[f"{algo}_bound_{regime}"]).all()
    # and across algorithms: EdgePush's bound (and, under the batch
    # schedule, measured work) is never worse than LocalPush's, and the
    # gap tracks cos²φ
    assert (df["predicted_ratio_l1"] <= 1 + 1e-9).all()
    assert (df["ep_work_l1"] <= df["lp_work_l1"] * 1.1).all()
    assert (df["ep_work_add"] <= df["lp_work_add"] * 1.1).all()
