"""Every ``benchmarks/bench_*.py`` test hands its job an argv that the job's
parser accepts. The benchmarks run only in a full benchmark run, so a
renamed or retyped job option would otherwise show only there.

Each bench test runs with a stub ``benchmark`` fixture, and every job's
``make_spark`` raises :class:`SparkStarted`, which a job reaches only after
its arguments parse; no Spark job runs."""
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_MODULES = [
    importlib.import_module(f"benchmarks.{p.stem}")
    for p in sorted((ROOT / "benchmarks").glob("bench_*.py"))
]
JOB_MODULES = [
    importlib.import_module(f"jobs.{p.stem}")
    for p in sorted((ROOT / "jobs").glob("[!_]*.py"))
]
BENCH_TESTS = [
    pytest.param(fn, id=f"{mod.__name__.split('.')[-1]}::{name}")
    for mod in BENCH_MODULES
    for name, fn in vars(mod).items()
    if name.startswith("test_") and inspect.isfunction(fn)
]


class SparkStarted(Exception):
    """A job's arguments parsed and it asked for its Spark session."""


class StubBenchmark:
    def pedantic(self, fn, *, args, rounds, iterations):
        return fn(*args)


def _refuse(app):
    raise SparkStarted(app)


def test_found_bench_tests():
    assert len(BENCH_TESTS) == len(BENCH_MODULES) == len(JOB_MODULES) >= 5


@pytest.mark.parametrize("test", BENCH_TESTS)
def test_bench_call_binds(monkeypatch, test):
    for job in JOB_MODULES:
        monkeypatch.setattr(job, "make_spark", _refuse)
    fixtures = {"benchmark": StubBenchmark(), "spark": object()}
    with pytest.raises(SparkStarted):
        test(**{p: fixtures[p] for p in inspect.signature(test).parameters})
