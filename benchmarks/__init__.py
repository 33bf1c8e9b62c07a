"""pytest-benchmark runs of the paper's artifacts, one per table or
figure group. Each runs its job's ``main`` once (``rounds=1``: these are
end-to-end experiment sweeps, not micro-benchmarks) with the committed
arguments, which writes ``bench_results/<name>.csv`` for EXPERIMENTS.md, and
checks the paper's shape on the returned rows. The job's ``make_spark``
reuses the ``spark`` fixture's session."""
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "bench_results"
