"""Job: reproduce Table 1 — measured LocalPush and EdgePush work against
their per-source cost bounds (Lemmas 11 and 3), and the measured
EdgePush/LocalPush work ratios vs the predicted improvement factors
(1-α)cos²φ and (1-α)/2m·Σn_v·cos²φ_v.

Usage: spark-submit jobs/table1_complexity.py [--datasets TH,TA] [--out f.csv]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import (
    base_parser, dataset_keys, emit, make_spark, positive_count, positive_float,
)

from repro.analysis.experiments import table1_complexity, table1_graphs


def main(argv=None):
    p = base_parser(__doc__)
    p.add_argument("--datasets", type=dataset_keys, default="TH,TA,BC")
    p.add_argument("--eps", type=positive_float, default=0.01)
    p.add_argument("--rmax", type=positive_float, default=1e-4)
    p.add_argument("--sources", type=positive_count, default=3)
    p.add_argument("--impl", choices=("batch", "sequential"), default="batch")
    args = p.parse_args(argv)
    spark = make_spark("table1_complexity")
    return emit(
        table1_complexity(
            table1_graphs(spark, args.datasets),
            eps=args.eps,
            rmax=args.rmax,
            n_sources=args.sources,
            seed=args.seed,
            impl=args.impl,
        ),
        args.out,
    )


if __name__ == "__main__":
    main()
