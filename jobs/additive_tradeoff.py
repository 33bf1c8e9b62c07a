"""Job: reproduce Figures 4/7 (normalized MaxAddErr vs cost), 5/8
(precision@50 vs cost) and 6/9 (conductance vs cost) — all five §6.1
methods over the r_max / δ grids, each over ``--sources`` sources drawn
from every dataset's degree distribution with ``--seed``. One output row
per (dataset, method, source, parameter) carries every metric.

Usage: spark-submit jobs/additive_tradeoff.py --datasets YT,TA [--out f.csv]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import base_parser, dataset_keys, emit, make_spark

from repro.analysis.experiments import additive_tradeoff
from repro.graphs import datasets as ds


def main(argv=None) -> None:
    p = base_parser(__doc__)
    p.add_argument("--datasets", type=dataset_keys, default="YT,TA")
    p.add_argument("--sources", type=int, default=3)
    p.add_argument("--rmax-grid", default="1e-3,1e-4,1e-5")
    p.add_argument("--delta-grid", default="1e-1,1e-2,1e-3")
    args = p.parse_args(argv)
    spark = make_spark("additive_tradeoff")
    emit(
        additive_tradeoff(
            {key: ds.load(spark, key) for key in args.datasets},
            n_sources=args.sources,
            seed=args.seed,
            rmax_grid=tuple(float(x) for x in args.rmax_grid.split(",")),
            delta_grid=tuple(float(x) for x in args.delta_grid.split(",")),
        ),
        args.out,
    )


if __name__ == "__main__":
    main()
