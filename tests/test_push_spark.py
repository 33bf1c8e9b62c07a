"""Tests for the distributed batch LocalPush and EdgePush (the core repro).

The batch (bulk-synchronous) schedules must satisfy the same terminal
guarantees as the sequential references: residues below thresholds, the
paper's error bounds, underestimation, and — for EdgePush vs LocalPush —
the work advantage on unbalanced graphs.

Spark supersteps are expensive, so these tests use the small helper graphs
and moderate tolerances; the fine-grained sweeps live in benchmarks/.
"""
import gc
import re

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import DataFrame

from repro.core import runtime
from repro.core import thresholds as th
from repro.core.edgepush import edge_push
from repro.core.fora import fora, mc_repair, monte_carlo
from repro.core.localpush import local_push
from repro.core.power import ground_truth, power_method
from repro.core.runtime import state_checkpoint
from repro.core.sequential import sequential_edge_push, sequential_local_push

from .helpers import DEGENERATE_QUERIES, edge_and_isolated, get_graph

ALPHA = 0.2
SPARK_GRAPHS = ["two_node", "star", "er_lognormal", "complete_unbalanced"]


@pytest.fixture(params=SPARK_GRAPHS)
def any_graph(request, spark):
    return get_graph(spark, request.param)


class TestBatchLocalPush:
    def test_l1_bound_and_underestimate(self, any_graph):
        csr = any_graph.csr
        eps = 0.1
        theta = eps / csr.norm_a()
        res = local_push(any_graph, 0, alpha=ALPHA, theta=theta)
        assert res.converged is True
        gt = ground_truth(csr, 0, alpha=ALPHA)
        est = res.estimate
        assert (est <= gt + 1e-9).all()
        assert np.abs(est - gt).sum() <= eps + 1e-9
        theta_edge = th.theta_local(csr, theta, alpha=ALPHA)
        bound = th.edgepush_source_cost(csr, gt, theta_edge, alpha=ALPHA)
        assert res.cost.edge_touches <= bound

    def test_additive_bound(self, any_graph):
        csr = any_graph.csr
        rmax = 1e-3
        res = local_push(any_graph, 0, alpha=ALPHA, theta=rmax)
        gt = ground_truth(csr, 0, alpha=ALPHA)
        err = np.abs(res.estimate - gt) / csr.deg
        assert err.max() <= rmax + 1e-9
        theta_edge = th.theta_local(csr, rmax, alpha=ALPHA)
        bound = th.edgepush_source_cost(csr, gt, theta_edge, alpha=ALPHA)
        assert res.cost.edge_touches <= bound

    def test_terminal_residues_below_threshold(self, any_graph):
        theta = 1e-3
        state = local_push(any_graph, 0, alpha=ALPHA, theta=theta).state
        r = state["r"]
        bad = ((r >= any_graph.csr.deg[state["node"]] * theta) & (r > 0)).sum()
        assert bad == 0

    def test_matches_sequential_estimate_scale(self, any_graph):
        """Batch and sequential schedules both satisfy Fact 1 with the same
        θ, so their estimates agree within 2× the ℓ1 budget."""
        csr = any_graph.csr
        eps = 0.05
        theta = eps / csr.norm_a()
        batch = local_push(any_graph, 0, alpha=ALPHA, theta=theta)
        seq = sequential_local_push(csr, 0, alpha=ALPHA, theta=theta)
        assert np.abs(batch.estimate - seq.estimate).sum() <= 2 * eps

    def test_mass_conservation(self, any_graph):
        """reserve + residual mass sums to 1 at all times."""
        theta = 1e-2
        state = local_push(any_graph, 0, alpha=ALPHA, theta=theta).state
        tot = ALPHA * state["out"].sum(), state["r"].sum()
        # residual r carries (1-α)-scaled in-flight mass; π̂ + remaining
        # walk mass = 1 exactly when accounting for the α-absorption of r:
        # each unit of r will eventually deposit exactly 1 unit across nodes.
        assert tot[0] + tot[1] == pytest.approx(1.0, abs=1e-9)

    def test_invariant_holds_mid_run(self, spark):
        """Lemma 1 for the *batch* schedule, checked at an intermediate
        superstep: π(t) = π̂(t) + Σ_u r(u)·π_u(t)."""
        g = get_graph(spark, "er_lognormal")
        csr = g.csr
        res = local_push(g, 0, alpha=ALPHA, theta=1e-5, max_supersteps=2)
        assert res.converged is False
        pprs = np.stack([ground_truth(csr, u, alpha=ALPHA) for u in range(csr.n)])
        sp = res.state
        r = np.zeros(csr.n)
        r[sp["node"].to_numpy(np.int64)] = sp["r"].to_numpy()
        assert np.allclose(res.estimate + r @ pprs, pprs[0], atol=1e-6)

    def test_cost_counts_node_degrees(self, spark):
        g = get_graph(spark, "star")
        res = local_push(g, 0, alpha=ALPHA, theta=0.9)
        # single superstep: only the source pushes, touching all its edges
        assert res.cost.supersteps >= 1
        assert res.cost.edge_touches >= g.csr.out_degree()[0]

    def test_scan_mode_same_result(self, spark):
        g = get_graph(spark, "er_lognormal")
        csr = g.csr
        theta = 1e-3
        plain = local_push(g, 0, alpha=ALPHA, theta=theta)
        scan = local_push(g, 0, alpha=ALPHA, theta=theta, scan_frac=0.05)
        gt = ground_truth(csr, 0, alpha=ALPHA)
        for r in (plain, scan):
            assert (np.abs(r.estimate - gt) / csr.deg).max() <= theta + 1e-9


class TestBatchEdgePush:
    @pytest.mark.parametrize("eps", [0.3, 0.05])
    def test_l1_bound_theorem2(self, any_graph, eps):
        csr = any_graph.csr
        res = edge_push(any_graph, 0, alpha=ALPHA, mode="l1", tol=eps)
        assert res.converged is True
        gt = ground_truth(csr, 0, alpha=ALPHA)
        est = res.estimate
        assert (est <= gt + 1e-9).all()
        assert np.abs(est - gt).sum() <= eps + 1e-9
        bound = th.edgepush_source_cost(csr, gt, th.theta_l1(csr, eps), alpha=ALPHA)
        assert res.cost.edge_touches <= bound

    def test_additive_bound_theorem3(self, any_graph):
        csr = any_graph.csr
        rmax = 1e-3
        res = edge_push(any_graph, 0, alpha=ALPHA, mode="additive", tol=rmax)
        gt = ground_truth(csr, 0, alpha=ALPHA)
        err = np.abs(res.estimate - gt) / csr.deg
        assert err.max() <= rmax + 1e-9
        bound = th.edgepush_source_cost(csr, gt, th.theta_additive(csr, rmax), alpha=ALPHA)
        assert res.cost.edge_touches <= bound

    def test_terminal_edge_residues_below_threshold(self, any_graph):
        edges = edge_push(any_graph, 0, alpha=ALPHA, mode="l1", tol=0.1).state
        assert (edges["r"].to_numpy() >= th.theta_l1(any_graph.csr, 0.1)).sum() == 0

    def test_mass_conservation(self, any_graph):
        """α·Σq + ΣR = 1 with q = e_s + Σ out: the income's reserve plus the
        edge residues account for all mass (Lemma 2's invariant summed)."""
        state = edge_push(any_graph, 0, alpha=ALPHA, mode="l1", tol=0.1).state
        total = ALPHA * (1.0 + state["out"].sum()) + state["r"].sum()
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_sequential(self, any_graph):
        csr = any_graph.csr
        eps = 0.05
        batch = edge_push(any_graph, 0, alpha=ALPHA, mode="l1", tol=eps)
        seq = sequential_edge_push(csr, 0, th.theta_l1(csr, eps), alpha=ALPHA)
        assert np.abs(batch.estimate - seq.estimate).sum() <= 2 * eps

    def test_work_advantage_on_star(self, spark):
        """The headline claim at batch granularity: on the Figure-1 graph,
        EdgePush does a small fraction of LocalPush's edge touches for the
        same ℓ1 guarantee."""
        g = get_graph(spark, "star")
        eps = 0.1
        lp = local_push(g, 0, alpha=ALPHA, theta=eps / g.csr.norm_a())
        ep = edge_push(g, 0, alpha=ALPHA, mode="l1", tol=eps)
        assert ep.cost.edge_touches < lp.cost.edge_touches / 3

    def test_scan_mode_same_guarantee(self, spark):
        g = get_graph(spark, "er_lognormal")
        res = edge_push(g, 0, alpha=ALPHA, mode="l1", tol=0.05, scan_frac=0.05)
        gt = ground_truth(g.csr, 0, alpha=ALPHA)
        assert np.abs(res.estimate - gt).sum() <= 0.05 + 1e-9

    def test_invariant_holds_mid_run(self, spark):
        """Lemma 2 for the *batch* schedule, checked at an intermediate
        superstep: π(t) = α·q(t) + Σ_{⟨u,v⟩} R_uv·π_v(t)."""
        g = get_graph(spark, "er_lognormal")
        csr = g.csr
        res = edge_push(g, 0, alpha=ALPHA, mode="l1", tol=1e-3, max_supersteps=2)
        assert res.converged is False
        pprs = np.stack([ground_truth(csr, v, alpha=ALPHA) for v in range(csr.n)])
        epdf = res.state
        total = ALPHA * (1.0 + epdf["out"].sum()) + epdf["r"].sum()
        assert total == pytest.approx(1.0, abs=1e-9)
        correction = np.zeros(csr.n)
        for _, row in epdf[epdf.r > 0].iterrows():
            correction += row.r * pprs[int(row.dst)]
        assert np.allclose(res.estimate + correction, pprs[0], atol=1e-6)

    def test_source_with_offset(self, spark):
        """Pushing from a non-hub source also meets the bound."""
        g = get_graph(spark, "star")
        gt = ground_truth(g.csr, 2, alpha=ALPHA)
        res = edge_push(g, 2, alpha=ALPHA, mode="l1", tol=0.1)
        assert np.abs(res.estimate - gt).sum() <= 0.1 + 1e-9


STATE_METHODS = {
    "edge_push": lambda g: edge_push(g, 0, alpha=ALPHA, mode="l1", tol=0.1),
    "sequential_edge_push": lambda g: sequential_edge_push(
        g.csr, 0, th.theta_l1(g.csr, 0.1), alpha=ALPHA
    ),
    "local_push": lambda g: local_push(g, 0, alpha=ALPHA, theta=1e-3),
    "sequential_local_push": lambda g: sequential_local_push(g.csr, 0, alpha=ALPHA, theta=1e-3),
}


@pytest.mark.parametrize("method", sorted(STATE_METHODS))
def test_state_schema(spark, method):
    """Push states come in two schemas, batch or sequential alike: an edge
    method's is ``(src, dst, r, out)`` per directed edge in CSR order, with
    π̂ = α·q and q = e_s + Σ_u out(u,·); a node method's is ``(node, r,
    out)`` over all n nodes, with π̂ = α·out."""
    g = get_graph(spark, "er_lognormal")
    csr = g.csr
    res = STATE_METHODS[method](g)
    state = res.state
    if "edge" in method:
        assert list(state.columns) == ["src", "dst", "r", "out"]
        np.testing.assert_array_equal(state["src"], csr.src)
        np.testing.assert_array_equal(state["dst"], csr.indices)
        est = ALPHA * np.bincount(state["dst"], state["out"], minlength=csr.n)
        est[0] += ALPHA
    else:
        assert list(state.columns) == ["node", "r", "out"]
        np.testing.assert_array_equal(state["node"], np.arange(csr.n))
        est = ALPHA * state["out"].to_numpy()
    np.testing.assert_allclose(res.estimate, est, rtol=1e-12, atol=0)


WORK_RUNS = ["ep_l1", "ep_l1_scan", "ep_add", "lp_l1", "lp_scan"]
# (supersteps, pushes, edge_touches) from source 0, recorded per graph in
# WORK_RUNS order; a loop that mis-books scan-mode pushes changes these
# while still meeting every error bound.
EXPECTED_WORK = {
    "star": [(18, 186, 186), (18, 186, 186), (28, 890, 890), (17, 329, 679), (28, 573, 1119)],
    "er_lognormal": [(27, 3500, 3500), (29, 5397, 5397), (8, 205, 205), (25, 770, 5345), (6, 164, 1165)],
    "complete_unbalanced": [(25, 1917, 1917), (23, 14055, 14055), (20, 1234, 1234), (25, 169, 7943), (20, 821, 38587)],
}


@pytest.mark.parametrize("graph_name", sorted(EXPECTED_WORK))
@pytest.mark.parametrize("run", WORK_RUNS)
def test_exact_work(spark, graph_name, run):
    """Pin the superstep schedule's exact work, scan-mode pushes included."""
    g = get_graph(spark, graph_name)
    if run == "ep_l1":
        res = edge_push(g, 0, alpha=ALPHA, mode="l1", tol=0.05)
    elif run == "ep_l1_scan":
        res = edge_push(g, 0, alpha=ALPHA, mode="l1", tol=0.05, scan_frac=0.05)
    elif run == "ep_add":
        res = edge_push(g, 0, alpha=ALPHA, mode="additive", tol=1e-3)
    elif run == "lp_l1":
        res = local_push(g, 0, alpha=ALPHA, theta=0.05 / g.csr.norm_a())
    else:
        res = local_push(g, 0, alpha=ALPHA, theta=1e-3, scan_frac=0.05)
    c = res.cost
    expected = EXPECTED_WORK[graph_name][WORK_RUNS.index(run)]
    assert (c.supersteps, c.pushes, c.edge_touches) == expected


@pytest.mark.parametrize("method", [edge_push, local_push, power_method, monte_carlo])
@pytest.mark.parametrize("source, alpha", DEGENERATE_QUERIES)
def test_rejects_degenerate_query(spark, method, source, alpha):
    """Node 2 of this 3-node graph has no edges: its PPR is not defined by
    a push or a walk, so the query is refused instead of returning an
    empty or wrong estimate, from the graph's CSR before any Spark job. A
    source that is not an integer is not a node id, even when it is
    integral (1.0) or compares equal to one (True)."""
    g = edge_and_isolated(spark)
    first = highest_job_id(spark)
    with pytest.raises(ValueError):
        method(g, source, alpha=alpha)
    assert highest_job_id(spark) == first


def test_accepts_numpy_integer_source(spark):
    """A numpy integer is a node id like a Python int."""
    g = edge_and_isolated(spark)
    for source in (np.int64(0), np.int32(1), np.uint8(0)):
        runtime.check_query(g.csr, source, ALPHA)


@pytest.mark.parametrize(
    "method, kwargs",
    [
        (edge_push, {"tol": float("nan")}),
        (edge_push, {"tol": 0.0}),
        (edge_push, {"tol": -0.1}),
        (edge_push, {"mode": "nope"}),
        (local_push, {"theta": float("nan")}),
        (local_push, {"theta": -1e-3}),
        (power_method, {"iters": -3}),
        (power_method, {"iters": 2.5}),
    ],
    ids=[
        "ep-nan", "ep-zero", "ep-negative", "ep-mode",
        "lp-nan", "lp-negative", "pm-negative", "pm-float",
    ],
)
def test_rejects_bad_tolerance(spark, method, kwargs):
    """A tolerance that voids the paper's bound is refused before any Spark
    job: with θ = NaN nothing is ever a candidate, so the run would report
    convergence with no pushes. So are an unknown threshold mode and a
    number of Power-Method iterations that is not an integer."""
    g = get_graph(spark, "er_lognormal")
    first = highest_job_id(spark)
    with pytest.raises(ValueError):
        method(g, 0, alpha=ALPHA, **kwargs)
    assert highest_job_id(spark) == first


# Spark jobs a push query runs besides one per superstep: the initial
# checkpoint of the edge state and the terminal state's collect. EdgePush and
# LocalPush share that kernel; 2m and the thresholds come from the CSR, and
# the estimate is numpy over the collected state.
FIXED_JOBS = 2


def highest_job_id(spark) -> int:
    ids = spark.sparkContext.statusTracker().getJobIdsForGroup(None)
    return max(ids) if ids else -1


@pytest.mark.parametrize("method", ["edge_push", "local_push"])
def test_jobs_per_query(spark, method):
    """A superstep is one Spark job: its checkpoint also counts the next
    superstep's candidates."""
    g = get_graph(spark, "er_lognormal")
    theta = 0.05 / g.csr.norm_a()
    first = highest_job_id(spark)
    if method == "edge_push":
        res = edge_push(g, 0, alpha=ALPHA, mode="l1", tol=0.05)
    else:
        res = local_push(g, 0, alpha=ALPHA, theta=theta)
    assert res.cost.supersteps > 10
    assert highest_job_id(spark) - first <= res.cost.supersteps + FIXED_JOBS


def test_power_method_jobs(spark):
    """The Power Method's iterate π̂ + r is numpy over LocalPush's collected
    state: k iterations launch no job beyond those of k LocalPush
    supersteps."""
    g = get_graph(spark, "er_lognormal")
    iters = 5
    first = highest_job_id(spark)
    power_method(g, 0, alpha=ALPHA, iters=iters)
    assert highest_job_id(spark) - first <= iters + FIXED_JOBS


@pytest.mark.parametrize(
    "method, kwargs",
    [
        (edge_push, {"tol": 0.1}),
        (local_push, {"theta": 1e-2}),
        (power_method, {"iters": 3}),
        (fora, {"delta": 0.1}),
        (monte_carlo, {"delta": 0.4}),
    ],
    ids=["edge_push", "local_push", "power_method", "fora", "monte_carlo"],
)
def test_result_holds_no_spark_dataframe(spark, method, kwargs):
    """A result is driver data only: it keeps no checkpointed Spark state
    alive after its query, and its estimate is π̂ as a dense vector."""
    g = get_graph(spark, "star")
    res = method(g, 0, alpha=ALPHA, **kwargs)
    assert not any(isinstance(v, DataFrame) for v in vars(res).values())
    assert res.state is None or isinstance(res.state, pd.DataFrame)
    assert isinstance(res.estimate, np.ndarray)
    assert res.estimate.shape == (g.n,)


# Two tolerances per loop on er_lognormal, far enough apart in supersteps
# (EdgePush ℓ1: 14 and 34, LocalPush θ: 4 and 30) to read a per-superstep slope.
LOOP_TOLS = {"edge_push": (0.5, 0.01), "local_push": (1e-2, 1e-5)}
# py4j commands the driver sends per superstep. A superstep chains Dataset
# calls over Columns built once per query: about 75-85 measured. Rebuilding
# every Column each superstep, and deleting it again, costs 320-410.
MAX_CALLS_PER_SUPERSTEP = 120


def run_loop(g, method: str, tol: float):
    if method == "edge_push":
        return edge_push(g, 0, alpha=ALPHA, mode="l1", tol=tol)
    return local_push(g, 0, alpha=ALPHA, theta=tol)


@pytest.mark.parametrize("method", sorted(LOOP_TOLS))
def test_jvm_calls_per_superstep(spark, monkeypatch, method):
    """A superstep's driver cost: JVM round trips grow with the superstep
    count by a small fixed number, the fixed cost of a query aside."""
    g = get_graph(spark, "er_lognormal")
    client = spark.sparkContext._gateway._gateway_client
    send = client.send_command
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return send(*args, **kwargs)

    monkeypatch.setattr(client, "send_command", counted)
    runs = []
    for tol in LOOP_TOLS[method]:
        gc.collect()  # py4j deletes collected JVM references by round trip
        start = calls
        steps = run_loop(g, method, tol).cost.supersteps
        gc.collect()
        runs.append((steps, calls - start))
    (s1, c1), (s2, c2) = runs
    assert s2 - s1 >= 10
    assert (c2 - c1) / (s2 - s1) <= MAX_CALLS_PER_SUPERSTEP


EXCHANGE = re.compile(r"\bExchange\b")


def record_exchanges(monkeypatch) -> list[int]:
    """Count the exchanges in the plan of every state the loop checkpoints."""
    exchanges = []

    def checkpoint(df):
        plan = df._jdf.queryExecution().executedPlan().toString()
        exchanges.append(len(EXCHANGE.findall(plan)))
        return state_checkpoint(df)

    monkeypatch.setattr(runtime, "state_checkpoint", checkpoint)
    return exchanges


@pytest.mark.parametrize("graph_name", SPARK_GRAPHS)
@pytest.mark.parametrize("method", sorted(LOOP_TOLS))
def test_superstep_has_no_exchange(spark, monkeypatch, method, graph_name):
    """An edge state of at most ROWS_PER_PARTITION rows is one shuffle
    partition: the initial repartition by src is the query's only exchange,
    and a superstep's groupBy and join shuffle nothing."""
    g = get_graph(spark, graph_name)
    assert g.csr.nnz <= runtime.ROWS_PER_PARTITION
    exchanges = record_exchanges(monkeypatch)
    res = run_loop(g, method, LOOP_TOLS[method][0])
    assert res.cost.supersteps >= 1
    assert exchanges == [1] + [0] * res.cost.supersteps


@pytest.mark.parametrize("method", sorted(LOOP_TOLS))
def test_one_exchange_per_superstep(spark, monkeypatch, method):
    """Spread over the cores, the state stays partitioned by its join key
    across checkpoints, so a superstep shuffles only the pushed mass: one
    exchange, not a re-shuffle of the whole state. The partition count
    changes neither the pushes nor the estimate."""
    cores = spark.sparkContext.defaultParallelism
    if cores < 2:
        pytest.skip("one core gives one shuffle partition")
    g = get_graph(spark, "er_lognormal")
    tol = LOOP_TOLS[method][0]
    single = run_loop(g, method, tol)
    monkeypatch.setattr(runtime, "ROWS_PER_PARTITION", 1)
    assert runtime.shuffle_partitions(g.csr.nnz, cores) == cores
    exchanges = record_exchanges(monkeypatch)
    res = run_loop(g, method, tol)
    assert res.cost.supersteps > 3
    # the initial state's repartition, then one per superstep
    assert exchanges == [1] * (res.cost.supersteps + 1)
    work = [(r.cost.supersteps, r.cost.pushes, r.cost.edge_touches) for r in (res, single)]
    assert work[0] == work[1]
    np.testing.assert_allclose(res.estimate, single.estimate, rtol=1e-12, atol=0)


# Spark jobs of the walk phase: the walks run on the driver over the graph's
# CSR, and the repair after a push reads the residues of its collected state.
WALK_JOBS = {"monte_carlo": 0, "mc_repair": 0}


@pytest.mark.parametrize("graph_name", ["er_lognormal", "star"])
@pytest.mark.parametrize("method", sorted(WALK_JOBS))
def test_walk_phase_jobs(spark, method, graph_name):
    """Walks launch no Spark job."""
    g = get_graph(spark, graph_name)
    if method == "monte_carlo":
        first = highest_job_id(spark)
        res = monte_carlo(g, 0, alpha=ALPHA, delta=0.02, seed=1)
    else:
        push_res = local_push(g, 0, alpha=ALPHA, theta=1e-3)
        first = highest_job_id(spark)
        res = mc_repair(g, push_res, omega=3000, alpha=ALPHA, seed=1)
    assert res.cost.walks > 0
    assert highest_job_id(spark) - first == WALK_JOBS[method]


@pytest.mark.parametrize("method", [edge_push, local_push])
@pytest.mark.parametrize("source", [0, 2], ids=["returns", "raises"])
def test_loop_scope_restores_session_conf(spark, method, source):
    """The loop's shuffle settings are put back on a normal return and when
    the loop refuses a source with no edges (node 2)."""
    keys = ("spark.sql.adaptive.enabled", "spark.sql.shuffle.partitions")
    before = {k: spark.conf.get(k) for k in keys}
    g = edge_and_isolated(spark)
    if source == 2:
        with pytest.raises(ValueError, match="no edges"):
            method(g, source, alpha=ALPHA)
    else:
        method(g, source, alpha=ALPHA)
    assert {k: spark.conf.get(k) for k in keys} == before
