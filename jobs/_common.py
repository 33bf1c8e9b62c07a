"""Shared CLI plumbing for the spark-submit job entrypoints.

Each job is a thin wrapper over a harness function in
``repro.analysis.experiments`` that returns a DataFrame of result rows;
jobs build the SparkSession the graphs live in, print the rows and
optionally write CSV.
Run as ``spark-submit jobs/<name>.py [...]`` or plain ``python``.
"""
from __future__ import annotations

import argparse
import math
import sys

import pandas as pd
from pyspark.sql import SparkSession

from repro.graphs import datasets as ds


def make_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def base_parser(description: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--out", default=None, help="optional CSV output path")
    p.add_argument("--seed", type=non_negative_int, default=0)
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


def _parsed(kind: type, value: str, ok, expected: str):
    """``kind(value)`` if it parses and passes ``ok``; else a usage error,
    which argparse raises before any Spark session starts."""
    try:
        x = kind(value)
        if ok(x):
            return x
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")


def positive_float(value: str) -> float:
    """The ``--eps``/``--rmax`` type: a finite number > 0."""
    return _parsed(float, value, lambda x: 0 < x < math.inf, "a finite number > 0")


def non_negative_int(value: str) -> int:
    """The ``--seed`` type: an integer >= 0."""
    return _parsed(int, value, lambda k: k >= 0, "an integer >= 0")


def positive_count(value: str) -> int:
    """The ``--sources``/``--n`` type: an integer >= 1."""
    return _parsed(int, value, lambda k: k >= 1, "an integer >= 1")


def float_grid(value: str) -> tuple[float, ...]:
    """The ``--rmax-grid``/``--eps-grid``/``--delta-grid`` type:
    comma-separated finite numbers > 0."""
    return tuple(positive_float(x) for x in value.split(","))


def iters_grid(value: str) -> tuple[int, ...]:
    """The ``--iters-grid`` type: comma-separated integers >= 0."""
    return tuple(non_negative_int(x) for x in value.split(","))


def emit(df: pd.DataFrame, out: str | None) -> pd.DataFrame:
    """Print ``df``, write it to ``out`` if given, and return it."""
    pd.set_option("display.width", 220)
    pd.set_option("display.max_columns", 50)
    print(df.to_string(index=False))
    if out:
        df.to_csv(out, index=False)
        print(f"\nwrote {out}", file=sys.stderr)
    return df
