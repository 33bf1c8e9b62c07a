"""Job: reproduce Table 2 (dataset metadata incl. cos²φ) on the lites.

Usage: spark-submit jobs/table2_stats.py [--datasets YT,LJ,...] [--out f.csv]
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import base_parser, dataset_keys, emit, make_spark

from repro.analysis.experiments import table2_rows
from repro.graphs.datasets import ALL_KEYS


def main(argv=None):
    p = base_parser(__doc__)
    p.add_argument("--datasets", type=dataset_keys, default=",".join(ALL_KEYS))
    args = p.parse_args(argv)
    spark = make_spark("table2_stats")
    return emit(table2_rows(spark, keys=args.datasets), args.out)


if __name__ == "__main__":
    main()
