"""Spans recorded around calls into the program's layers, from outside it.

A span has a name, start and end (``perf_counter`` seconds), the span that
caused it, the query it belongs to, the Spark job-id range it covered and
free attributes. Spans stay in memory and are written out once, at the end
of a run. With ``layers=False`` no Spark call is made and no hook is
installed, so an untraced run pays two clock reads per set-up, query and
method call.

:func:`layer_hooks` patches the module globals the algorithms look up at
call time, so that each call into a layer opens a span:

- ``thresholds.build``: ``edgepush.thresholds_df``; the hook materializes
  the threshold DataFrame, so its cost is separated from the first push
  superstep (one extra checkpoint, counted in the tracing overhead);
- ``edgepush.loop`` / ``localpush.loop``: the ``CostStats`` start/stop
  pair that brackets each algorithm's superstep loop;
- ``fora.push``, ``fora.repair``, ``montecarlo.walks``: FORA's two phases
  and the distributed walker inside the second.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from perfbench.spark_env import highest_job_id

QUERY_TAG = "perfbench.query"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    query: str | None
    t0: float
    t1: float = 0.0
    job0: int = -1
    job1: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    @property
    def jobs(self) -> int:
        return self.job1 - self.job0


class Tracer:
    def __init__(self, *, layers: bool):
        self.layers = layers
        self.spark = None
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _jobs(self) -> int:
        return highest_job_id(self.spark) if self.layers and self.spark else -1

    def begin(self, name: str, *, query: str | None = None, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        if query is None and parent is not None:
            query = parent.query
        s = Span(
            id=len(self.spans),
            name=name,
            parent=parent.id if parent else None,
            query=query,
            t0=0.0,
            attrs=attrs,
        )
        s.job0 = self._jobs()
        s.t0 = time.perf_counter()
        self.spans.append(s)
        self._stack.append(s)
        return s

    def end(self, s: Span, **attrs) -> Span:
        """End ``s`` and any span still open above it, which an exception
        raised inside a layer can leave behind."""
        while self._stack[-1] is not s:
            self.end(self._stack[-1])
        s.t1 = time.perf_counter()
        s.job1 = self._jobs()
        s.attrs.update(attrs)
        self._stack.pop()
        return s

    @contextmanager
    def span(self, name: str, **kw):
        s = self.begin(name, **kw)
        try:
            yield s
        finally:
            self.end(s)

    def self_seconds(self, s: Span) -> float:
        """Span duration minus the time its direct children cover."""
        kids = [c for c in self.spans if c.parent == s.id]
        return s.seconds - sum(c.seconds for c in kids)

    def named(self, name: str, queries: set[str]) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.query in queries]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {**asdict(s), "self_s": self.self_seconds(s)} for s in self.spans
        ]
        path.write_text(json.dumps(rows, indent=1))


@contextmanager
def layer_hooks(tracer: Tracer):
    """Install span hooks on the program's layer entry points, then restore."""
    import repro.core.edgepush as edgepush
    import repro.core.fora as fora
    import repro.core.localpush as localpush
    from repro.core.runtime import CostStats

    def loop_cost(name: str):
        class TracedCost(CostStats):
            def start(self):
                self._span = tracer.begin(name)
                return super().start()

            def stop(self):
                out = super().stop()
                tracer.end(
                    self._span,
                    supersteps=self.supersteps,
                    edge_touches=self.edge_touches,
                )
                return out

        return TracedCost

    def wrap(name: str, fn, after=None):
        def hooked(*args, **kwargs):
            s = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    out = after(s, args, out)
            finally:
                tracer.end(s)
            return out

        return hooked

    def materialize(_s, _args, df):
        return df.localCheckpoint(eager=True)

    def count_walks(s, args, out):
        s.attrs.update(walks=len(args[2]), walk_steps=out[1])
        return out

    patches = [
        (edgepush, "thresholds_df", wrap("thresholds.build", edgepush.thresholds_df, materialize)),
        (edgepush, "CostStats", loop_cost("edgepush.loop")),
        (localpush, "CostStats", loop_cost("localpush.loop")),
        (fora, "local_push", wrap("fora.push", fora.local_push)),
        (fora, "mc_repair", wrap("fora.repair", fora.mc_repair)),
        (fora, "run_walks", wrap("montecarlo.walks", fora.run_walks, count_walks)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    for mod, attr, new in patches:
        setattr(mod, attr, new)
    try:
        yield
    finally:
        for mod, attr, old in saved:
            setattr(mod, attr, old)
