"""Shared CLI plumbing for the spark-submit job entrypoints.

Each job is a thin wrapper over a harness function in
``repro.analysis.experiments`` that returns a DataFrame of result rows;
jobs build the SparkSession the graphs live in, print the rows and
optionally write CSV.
Run as ``spark-submit jobs/<name>.py [...]`` or plain ``python``.
"""
from __future__ import annotations

import argparse
import sys

import pandas as pd
from pyspark.sql import SparkSession

from repro.graphs import datasets as ds


def make_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def base_parser(description: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--out", default=None, help="optional CSV output path")
    p.add_argument("--seed", type=int, default=0)
    return p


def dataset_keys(value: str) -> tuple[str, ...]:
    """The ``--datasets`` type: comma-separated dataset-lite keys. argparse
    turns an unknown key into a usage error, before any Spark session
    starts."""
    keys = tuple(value.split(","))
    for key in keys:
        if key not in ds.ALL_KEYS:
            raise argparse.ArgumentTypeError(
                f"unknown dataset {key!r} (choose from {','.join(ds.ALL_KEYS)})"
            )
    return keys


def emit(df: pd.DataFrame, out: str | None) -> None:
    pd.set_option("display.width", 220)
    pd.set_option("display.max_columns", 50)
    print(df.to_string(index=False))
    if out:
        df.to_csv(out, index=False)
        print(f"\nwrote {out}", file=sys.stderr)
