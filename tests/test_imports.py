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
