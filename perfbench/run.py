"""SSPPR query benchmark: one warm PySpark driver answering single-source PPR.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload ta-l1-deep --seed 0 --seconds 15 --trace 0

A run is a closed loop with one client and one query in flight:

1. set up five times (fresh SparkSession + graph build + driver CSR) and
   keep the last one; the first set-up also launches the JVM, which the
   workload's warm-up query then warms;
2. draw the workload's sources and answer them in turn until ``--seconds``
   have passed and every source has been answered once (a traced run
   answers the first source traced, then untraced, and stops);
3. outside every timed window, check each estimate against the power-method
   ground truth and the paper's bound for its mode, and each query's work
   against the numpy batch replay of the same schedule.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics, taken
from spans around each layer call and from the Spark event log.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"
SETUPS = 5
EXPECTED_TOUCHES = Path(__file__).resolve().parent / "expected_touches.json"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def check_checkout() -> None:
    """Refuse to run anywhere but the root of a checkout that has the program."""
    if not (ROOT / "src" / "repro" / "core" / "edgepush.py").is_file():
        sys.exit(f"perfbench: no program sources under {ROOT / 'src'}; "
                 "run from the root of a checkout of the repository")


def per_query(values: list[float], n: int) -> float:
    return sum(values) / n if n else 0.0


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        from perfbench.tracing import Tracer

        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer(layers=trace)
        self.spark = None
        self.graph = None
        self.queries: list[dict] = []  # one row per executed query
        self.failures: list[str] = []
        self.failed_ids: set[str] = set()

    # ------------------------------------------------------------- set-up
    def setup(self) -> list[float]:
        """Set up ``SETUPS`` times and keep the last. Between the first and
        the second, the workload's warm-up query compiles its code paths in
        the freshly launched JVM, so that the measured queries do not pay
        for it."""
        from repro.graphs import datasets
        from perfbench.spark_env import start_session
        from perfbench.workloads import SOURCE_SEED

        walls = []
        for i in range(SETUPS):
            with self.tracer.span("setup") as s:
                if self.spark is not None:
                    self.spark.stop()
                with self.tracer.span("spark.session"):
                    self.spark = start_session(
                        OUT_DIR, event_log=self.trace and i == SETUPS - 1
                    )
                with self.tracer.span("graphs.build"):
                    self.graph = datasets.SPECS[self.wl.graph].build(self.spark)
                with self.tracer.span("graphs.csr"):
                    self.graph.csr
            walls.append(s.seconds)
            if i == 0:
                source = self.graph.sample_sources(1, seed=SOURCE_SEED)[0]
                with self.tracer.span("warmup"):
                    for m in self.wl.warmup:
                        m.run(self.graph, source, self.seed)
        self.tracer.spark = self.spark
        return walls

    # -------------------------------------------------------------- queries
    def query(self, source: int, kind: str, *, hooks: bool) -> dict:
        from contextlib import nullcontext
        from perfbench.tracing import QUERY_TAG, layer_hooks

        qid = f"q{len(self.queries)}"
        row = {"id": qid, "kind": kind, "source": source, "methods": {}, "error": None}
        sc = self.spark.sparkContext
        sc.setLocalProperty(QUERY_TAG, qid)
        layers, self.tracer.layers = self.tracer.layers, hooks
        q = self.tracer.begin("query", query=qid, source=source, kind=kind)
        try:
            with layer_hooks(self.tracer) if hooks else nullcontext():
                for m in self.wl.methods:
                    with self.tracer.span(m.name):
                        row["methods"][m.name] = m.run(self.graph, source, self.seed)
        except Exception:  # a failed query is counted, the run goes on
            row["error"] = traceback.format_exc()
            print(row["error"], file=sys.stderr)
        finally:
            self.tracer.end(q)
            self.tracer.layers = layers
            sc.setLocalProperty(QUERY_TAG, None)
        row["wall"] = q.seconds
        self.queries.append(row)
        return row

    def window(self, sources: list[int]) -> None:
        """Queries until the time is up and each source has been answered
        once. A traced run answers the first source traced and then again
        untraced, to price the tracing."""
        if self.trace:
            self.query(sources[0], "warm", hooks=True)
            self.query(sources[0], "untraced", hooks=False)
            return
        t0 = time.perf_counter()
        i = 0
        while i < len(sources) or (
            time.perf_counter() - t0 + self.queries[-1]["wall"] <= self.seconds
        ):
            self.query(sources[i % len(sources)], "warm", hooks=False)
            i += 1

    # ---------------------------------------------------------- correctness
    def check(self, sources: list[int]) -> dict:
        """Bound and work-count checks, all outside the timed window."""
        import numpy as np
        from repro.core.power import ground_truth
        from perfbench.reference import error_to_bound

        csr = self.graph.csr
        gt, gt_s, refs, seq_s = {}, [], {}, {}
        for s in dict.fromkeys(q["source"] for q in self.queries):
            t = time.perf_counter()
            gt[s] = ground_truth(csr, s, alpha=0.2)
            gt_s.append(time.perf_counter() - t)
            for m in self.wl.methods:
                refs[m.name, s] = m.batch_ref(self.graph, s)
                if self.trace:
                    t = time.perf_counter()
                    m.seq_ref(self.graph, s)
                    seq_s[m.name, s] = time.perf_counter() - t
        # worst error/bound of the deterministic methods, and of the randomized
        # ones (whose ratio moves with the walk seed)
        worst = {False: 0.0, True: 0.0}
        seen: dict = {}
        # push edge touches of each source, recorded per workload
        recorded = json.loads(EXPECTED_TOUCHES.read_text())[self.wl.name]
        for q in self.queries:
            bad = [q["error"]] if q["error"] else []
            q["touches"] = 0
            for name, res in q["methods"].items():
                m = next(m for m in self.wl.methods if m.name == name)
                est = res.vector(self.graph.n)
                r = error_to_bound(m.error_mode, est, gt[q["source"]], csr.deg, m.tol)
                worst[m.randomized] = max(worst[m.randomized], r)
                if not np.isfinite(r) or r > 1.0:
                    bad.append(f"{name} error/bound {r:.4g} > 1")
                touches = res.cost.edge_touches - res.cost.walk_steps
                got = (res.cost.supersteps, touches)
                want = refs[name, q["source"]]
                if got != want:
                    bad.append(f"{name} (supersteps, touches) {got} != batch replay {want}")
                q["touches"] += touches
            want = recorded.get(str(q["source"]))
            if q["touches"] != want:
                bad.append(f"touches {q['touches']} != recorded {want}")
            seen.setdefault(q["source"], q["touches"])
            if bad:
                self.failures.append(f"{q['id']} source {q['source']}: " + "; ".join(bad))
                self.failed_ids.add(q["id"])
        first_pass = sum(seen.get(s, 0) for s in sources)
        return {
            "edge_touches": first_pass,
            "err_to_bound": worst[False],
            "randomized_err_to_bound": worst[True],
            "ground_truth_s": statistics.median(gt_s),
            "seq_s": seq_s,
        }

    # --------------------------------------------------------------- report
    def end_to_end(self, setup_walls, chk, rss_mb) -> dict:
        warm = [q for q in self.queries if q["kind"] == "warm"]
        walls = [q["wall"] for q in warm]
        return {
            "setup_s": (statistics.median(setup_walls), "s"),
            "query_s": (statistics.median(walls), "s"),
            "ms_per_touch": (
                1000.0 * sum(walls) / max(1, sum(q["touches"] for q in warm)), "ms"
            ),
            "edge_touches": (chk["edge_touches"], "count"),
            "err_to_bound": (chk["err_to_bound"], "ratio"),
            "peak_rss_mb": (rss_mb, "MiB"),
        }

    def per_layer(self, chk, derive_s, engine) -> dict:
        tr = self.tracer
        warm = [q for q in self.queries if q["kind"] == "warm"]
        ids = {q["id"] for q in warm}
        n = len(warm)
        wall = sum(q["wall"] for q in warm)
        untraced = [q["wall"] for q in self.queries if q["kind"] == "untraced"]
        setups = [s for s in tr.spans if s.name == "setup"]

        def med(name):
            return statistics.median(
                c.seconds for c in tr.spans if c.name == name and c.parent in {s.id for s in setups}
            )

        out = {
            "graphs.build_s": (med("graphs.build"), "s"),
            "graphs.csr_s": (med("graphs.csr"), "s"),
            "graphs.derive_s": (derive_s, "s"),
        }
        th = tr.named("thresholds.build", ids)
        out["thresholds.build_s"] = (per_query([s.seconds for s in th], n), "s")
        out["thresholds.jobs"] = (per_query([s.jobs for s in th], n), "count")
        for algo in ("edgepush", "localpush"):
            loops = tr.named(f"{algo}.loop", ids)
            steps = sum(s.attrs["supersteps"] for s in loops)
            out[f"{algo}.supersteps"] = (per_query([s.attrs["supersteps"] for s in loops], len(loops)), "count")
            out[f"{algo}.s_per_superstep"] = (ratio(sum(s.seconds for s in loops), steps), "s")
            out[f"{algo}.jobs_per_superstep"] = (ratio(sum(s.jobs for s in loops), steps), "count")
            out[f"{algo}.touches_per_superstep"] = (
                ratio(sum(s.attrs["edge_touches"] for s in loops), steps), "count")
        walks = tr.named("montecarlo.walks", ids)
        out["fora.push_s"] = (per_query([s.seconds for s in tr.named("fora.push", ids)], n), "s")
        out["fora.repair_s"] = (per_query([s.seconds for s in tr.named("fora.repair", ids)], n), "s")
        out["fora.err_to_bound"] = (chk["randomized_err_to_bound"], "ratio")
        out["montecarlo.walks"] = (per_query([s.attrs["walks"] for s in walks], n), "count")
        out["montecarlo.walk_steps"] = (per_query([s.attrs["walk_steps"] for s in walks], n), "count")
        out["montecarlo.steps_per_s"] = (
            ratio(sum(s.attrs["walk_steps"] for s in walks), sum(s.seconds for s in walks)), "1/s")
        from perfbench.spark_env import CORES

        out["spark.jobs"] = (engine["jobs"] / n, "count")
        out["spark.stages"] = (engine["stages"] / n, "count")
        out["spark.tasks"] = (engine["tasks"] / n, "count")
        out["spark.shuffle_bytes"] = (engine["shuffle_bytes"] / n, "bytes")
        out["spark.task_busy_s"] = (engine["task_busy_s"] / n, "s")
        out["spark.busy_frac"] = (engine["task_busy_s"] / (wall * CORES), "ratio")
        seq = statistics.median(
            sum(chk["seq_s"][m.name, q["source"]] for m in self.wl.methods) for q in warm
        )
        query_s = statistics.median(q["wall"] for q in warm)
        out["sequential.query_s"] = (seq, "s")
        out["dataflow_overhead"] = (query_s / seq, "ratio")
        out["oracle.ground_truth_s"] = (chk["ground_truth_s"], "s")
        out["trace.query_s"] = (query_s, "s")
        # warm[0] is the traced query, untraced[0] the same source answered after it
        out["trace.overhead_frac"] = (warm[0]["wall"] / untraced[0] - 1.0, "ratio")
        return out

    def execute(self) -> dict:
        from perfbench.spark_env import engine_counters, peak_rss_mb, shutdown
        from perfbench.workloads import SOURCE_SEED

        with self.tracer.span("workload", workload=self.wl.name, seed=self.seed):
            setup_walls = self.setup()
            sources = self.graph.sample_sources(self.wl.sources, seed=SOURCE_SEED)
            derive_s = 0.0
            if self.trace:
                with self.tracer.span("graphs.derive") as d:
                    self.graph.degrees.count()
                    self.graph.transition.count()
                derive_s = d.seconds
            self.window(sources)
            with self.tracer.span("oracle"):
                chk = self.check(sources)
            rss = peak_rss_mb()
            app_id = self.spark.sparkContext.applicationId
            self.tracer.spark = None
            shutdown(self.spark)
        self.tracer.write(OUT_DIR / f"spans-{self.wl.name}-seed{self.seed}-trace{int(self.trace)}.json")
        if self.trace:
            from perfbench.tracing import QUERY_TAG

            warm = {q["id"] for q in self.queries if q["kind"] == "warm"}
            log = OUT_DIR / "eventlog" / app_id
            engine = engine_counters(log, QUERY_TAG, warm)
            log.unlink()
            metrics = self.per_layer(chk, derive_s, engine)
        else:
            metrics = self.end_to_end(setup_walls, chk, rss)
        for f in self.failures:
            print(f"perfbench: FAIL {f}", file=sys.stderr)
        return {
            "correct": not self.failures,
            "attempted": len(self.queries),
            "failed": len(self.failed_ids),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    check_checkout()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.spark_env import prepare_env

    prepare_env(OUT_DIR)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    result = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)).execute()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
