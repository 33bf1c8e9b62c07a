"""Job: reproduce Figures 10/13 (actual ℓ1-error vs cost) and 14/15
(MaxAddErr / precision@50 vs cost) — EdgePush (scan-switched) vs
PowForPush vs Power Method, each over ``--sources`` sources drawn from
every dataset's degree distribution with ``--seed``.

Usage: spark-submit jobs/l1_tradeoff.py --datasets YT,TA [--out f.csv]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import base_parser, dataset_keys, emit, make_spark

from repro.analysis.experiments import l1_tradeoff
from repro.graphs import datasets as ds


def main(argv=None) -> None:
    p = base_parser(__doc__)
    p.add_argument("--datasets", type=dataset_keys, default="YT,TA")
    p.add_argument("--sources", type=int, default=3)
    p.add_argument("--eps-grid", default="1e-1,1e-2,1e-3")
    p.add_argument("--iters-grid", default="3,5,7,9")
    args = p.parse_args(argv)
    spark = make_spark("l1_tradeoff")
    emit(
        l1_tradeoff(
            {key: ds.load(spark, key) for key in args.datasets},
            n_sources=args.sources,
            seed=args.seed,
            eps_grid=tuple(float(x) for x in args.eps_grid.split(",")),
            iters_grid=tuple(int(x) for x in args.iters_grid.split(",")),
        ),
        args.out,
    )


if __name__ == "__main__":
    main()
