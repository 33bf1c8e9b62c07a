"""Synthetic stand-ins for the paper's eight datasets (Table 2).

The originals (YouTube … Spotify, up to 3.8B edges) are not available
offline, so each gets a deterministic laptop-scale "lite" that preserves
the property EdgePush's advantage depends on — the edge-weight
unbalancedness profile:

- the four *motif-based* datasets (YT, LJ, IC, OL) are power-law graphs
  reweighted by clique3 (triangle) counts, exactly the paper's
  preprocessing (generators.motif_weights), so their cos²φ is emergent
  (recorded vs. the paper's);
- the four *real weighted* datasets (TA, TH, BC, SP) are power-law graphs
  with i.i.d. log-normal weights tuned to the dataset's **published
  cos²φ** (σ² = 4·ln(1/cos²φ); see generators.lognormal_weights).

Each lite is built on the driver in numpy: a power-law topology, then its
kind's weight model, then :meth:`WeightedGraph.from_undirected_pandas`.

``PAPER_TABLE2`` records the original Table-2 rows for EXPERIMENTS.md.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from pyspark.sql import SparkSession

from repro.graphs import generators as gen
from repro.graphs.graph import WeightedGraph


# paper's Table 2: n, m, mean weight, max weight, cos²φ
PAPER_TABLE2 = {
    "YT": dict(n=1_138_499, m=2_795_228, mean_w=6.6, max_w=4_034, cos2=0.65),
    "LJ": dict(n=4_847_571, m=71_062_058, mean_w=24, max_w=4_445, cos2=0.51),
    "IC": dict(n=7_414_768, m=295_191_370, mean_w=1_221, max_w=178_448, cos2=0.31),
    "OL": dict(n=3_072_441, m=202_392_682, mean_w=18, max_w=9_145, cos2=0.69),
    "TA": dict(n=49_945, m=8_294_604, mean_w=13, max_w=469_258, cos2=0.27),
    "TH": dict(n=2_321_767, m=42_012_344, mean_w=1.1, max_w=546, cos2=0.97),
    "BC": dict(n=595_753, m=1_773_544, mean_w=5.2, max_w=17_165, cos2=0.5),
    "SP": dict(n=3_604_308, m=3_854_964_026, mean_w=8.6, max_w=2_878_970, cos2=0.29),
}

MOTIF_KEYS = ("YT", "LJ", "IC", "OL")
REAL_KEYS = ("TA", "TH", "BC", "SP")
ALL_KEYS = MOTIF_KEYS + REAL_KEYS


@dataclass(frozen=True)
class DatasetSpec:
    key: str
    kind: str  # "motif" | "real"
    build: Callable[[SparkSession], WeightedGraph]


def _lite(key: str, n: int, m: int, exponent: float, seed: int) -> DatasetSpec:
    """A power-law topology, then its kind's weight model: clique3 motif
    counts, or log-normal weights tuned to the paper's cos²φ."""
    kind = "motif" if key in MOTIF_KEYS else "real"

    def build(spark: SparkSession) -> WeightedGraph:
        topo = gen.powerlaw_graph(n, m, exponent=exponent, seed=seed)
        if kind == "motif":
            edges = gen.motif_weights(topo)
        else:
            cos2 = PAPER_TABLE2[key]["cos2"]
            edges = gen.lognormal_weights(topo, target_cos2=cos2, seed=seed)
        return WeightedGraph.from_undirected_pandas(spark, edges)

    return DatasetSpec(key, kind, build)


SPECS: dict[str, DatasetSpec] = {
    spec.key: spec
    for spec in (
        _lite("YT", 1200, 6000, 0.8, seed=101),
        _lite("LJ", 1200, 12000, 0.9, seed=102),
        _lite("IC", 800, 16000, 1.0, seed=103),
        _lite("OL", 1000, 12000, 0.7, seed=104),
        _lite("TA", 600, 12000, 0.8, seed=105),
        _lite("TH", 1500, 12000, 0.8, seed=106),
        _lite("BC", 900, 3000, 0.9, seed=107),
        _lite("SP", 800, 20000, 0.8, seed=108),
    )
}

_CACHE: dict[str, WeightedGraph] = {}


def load(spark: SparkSession, key: str) -> WeightedGraph:
    """Build (once per process) and return the lite dataset for ``key``."""
    if key not in _CACHE:
        _CACHE[key] = SPECS[key].build(spark)
    return _CACHE[key]
