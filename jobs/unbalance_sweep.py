"""Job: reproduce Figures 16/17 — EdgePush vs LocalPush on the four §6.3
affinity graphs calibrated to the paper's cos²φ = (0.01, 0.14, 0.38, 0.66),
each over ``--sources`` sources drawn from its degree distribution with
``--seed``.

Usage: spark-submit jobs/unbalance_sweep.py [--n 300] [--out f.csv]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import base_parser, emit, make_spark

from repro.analysis.experiments import unbalance_sweep


def main(argv=None) -> None:
    p = base_parser(__doc__)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--sources", type=int, default=2)
    p.add_argument("--rmax-grid", default="1e-4,1e-5")
    p.add_argument("--eps-grid", default="1e-1,1e-2")
    args = p.parse_args(argv)
    spark = make_spark("unbalance_sweep")
    emit(
        unbalance_sweep(
            spark,
            n=args.n,
            n_sources=args.sources,
            rmax_grid=tuple(float(x) for x in args.rmax_grid.split(",")),
            eps_grid=tuple(float(x) for x in args.eps_grid.split(",")),
            seed=args.seed,
        ),
        args.out,
    )


if __name__ == "__main__":
    main()
