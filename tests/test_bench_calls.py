"""Every ``benchmarks/bench_*.py`` test calls its harness with arguments the
harness's signature accepts. The benchmarks run only in a full benchmark
run, so a renamed harness keyword would otherwise show only there.

Each bench test runs with a stub ``benchmark`` fixture, and every
experiment function and dataset loader it names is replaced by a stub that
binds the call to the real signature. The graph builders then return a
placeholder and the harnesses raise :class:`HarnessCalled`; no Spark job
runs."""
import importlib
import inspect
from pathlib import Path

import pytest

from repro.analysis import experiments as ex
from repro.graphs import datasets as ds

BENCH_MODULES = [
    importlib.import_module(f"benchmarks.{p.stem}")
    for p in sorted((Path(__file__).resolve().parent.parent / "benchmarks").glob("bench_*.py"))
]
BENCH_TESTS = [
    pytest.param(mod, name, id=f"{mod.__name__.split('.')[-1]}::{name}")
    for mod in BENCH_MODULES
    for name, fn in vars(mod).items()
    if name.startswith("test_") and inspect.isfunction(fn)
]
BUILDERS = {ex.table1_graphs: {}, ds.load: object()}  # builder -> placeholder it returns


class HarnessCalled(Exception):
    """A harness stub was called with arguments its signature binds."""


class StubBenchmark:
    def pedantic(self, fn, *, rounds, iterations):
        return fn()


def _stub(real):
    def stub(*args, **kwargs):
        inspect.signature(real).bind(*args, **kwargs)
        if real in BUILDERS:
            return BUILDERS[real]
        raise HarnessCalled(real.__name__)

    return stub


def test_found_bench_tests():
    assert len(BENCH_TESTS) == len(BENCH_MODULES) >= 5


@pytest.mark.parametrize("module, name", BENCH_TESTS)
def test_bench_call_binds(monkeypatch, module, name):
    monkeypatch.setattr(ds, "load", _stub(ds.load))
    for attr, fn in vars(module).items():
        if inspect.isfunction(fn) and fn.__module__ == ex.__name__:
            monkeypatch.setattr(module, attr, _stub(fn))
    fixtures = {"benchmark": StubBenchmark(), "spark": object()}
    test = getattr(module, name)
    with pytest.raises(HarnessCalled):
        test(**{p: fixtures[p] for p in inspect.signature(test).parameters})
