"""Every module under ``src/repro`` and every ``benchmarks/bench_*.py``
imports. The benchmarks are not run by the unit suite, so a stale import
in one of them (of a moved or deleted module) would otherwise show only in
a full benchmark run."""
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

MODULES = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))
BENCHMARKS = sorted(
    f"benchmarks.{p.stem}"
    for p in (Path(__file__).resolve().parent.parent / "benchmarks").glob("bench_*.py")
)


def test_found_modules():
    assert "repro.core.fora" in MODULES
    assert "benchmarks.bench_fig_additive" in BENCHMARKS


@pytest.mark.parametrize("name", MODULES + BENCHMARKS)
def test_imports(name):
    importlib.import_module(name)


def test_benchmark_lookups_resolve():
    """The benchmark (``perfbench/``) looks up program names that the unit
    suite reaches no other way: its traced layer hooks patch module
    globals such as ``edgepush.thresholds_df``, its checker reads
    ``PPRResult.vector`` and its traced set-up ``WeightedGraph.degrees``
    and ``transition``. Should one go, every traced query would fail with
    ``AttributeError``. Entering the hooks untraced runs no Spark job."""
    from perfbench import tracing, workloads

    from repro.core.runtime import PPRResult
    from repro.graphs.graph import WeightedGraph

    assert workloads.WORKLOADS
    with tracing.layer_hooks(tracing.Tracer(layers=False)):
        pass
    for owner, name in [
        (PPRResult, "vector"),
        (WeightedGraph, "degrees"),
        (WeightedGraph, "transition"),
    ]:
        assert hasattr(owner, name), name
