"""Tests for the Theorem-2/3 threshold settings and Table-1 cost bounds."""
import numpy as np
import pytest

from repro.core import runtime
from repro.core import thresholds as th
from repro.core.power import ground_truth
from repro.graphs.affinity import calibrated_affinity_graph
from repro.oracle import assert_equivalent

from .helpers import GRAPH_BUILDERS, SPARK_GRAPHS, build, edge_and_isolated, get_graph, stationary

ALPHA = 0.2


def lp_expected(csr, theta):
    return ep_expected(csr, th.theta_local(csr, theta, alpha=ALPHA))


def ep_expected(csr, theta_edge):
    return th.edgepush_source_cost(csr, stationary(csr), theta_edge, alpha=ALPHA)


@pytest.fixture(params=list(GRAPH_BUILDERS))
def any_graph(request, spark):
    return get_graph(spark, request.param)


class TestNumpyThetas:
    def test_theta_l1_sums_to_eps(self, any_graph):
        """Lemma 4: Σθ(u,v) is the ℓ1 bound; Theorem 2's θ makes it exactly ε."""
        for eps in (0.5, 0.01):
            t = th.theta_l1(any_graph.csr, eps)
            assert t.sum() == pytest.approx(eps)

    def test_theta_l1_proportional_to_sqrt_weight(self, any_graph):
        csr = any_graph.csr
        t = th.theta_l1(csr, 0.1)
        ratio = t / np.sqrt(csr.weights)
        assert np.allclose(ratio, ratio[0])

    def test_theta_additive_local_constraint(self, any_graph):
        """Lemma 12's premise: Σ_{u∈N(v)} θ(u,v) ≤ r_max·d(v) — Theorem 3's
        θ meets it with equality."""
        csr = any_graph.csr
        rmax = 1e-3
        t = th.theta_additive(csr, rmax)
        per_dst = np.bincount(csr.indices, weights=t, minlength=csr.n)
        assert np.allclose(per_dst, rmax * csr.deg)

    def test_all_positive(self, any_graph):
        csr = any_graph.csr
        assert (th.theta_l1(csr, 1e-3) > 0).all()
        assert (th.theta_additive(csr, 1e-3) > 0).all()

    def test_theta_l1_is_cauchy_schwarz_optimal(self, any_graph):
        """Theorem 2's θ minimizes Cost subject to Σθ = ε: any perturbed
        positive θ' with the same sum costs at least as much."""
        csr = any_graph.csr
        eps = 0.1
        t_opt = th.theta_l1(csr, eps)
        cost_opt = ep_expected(csr, t_opt)
        g = np.random.default_rng(0)
        for _ in range(5):
            t = t_opt * g.uniform(0.5, 2.0, size=t_opt.size)
            t *= eps / t.sum()
            assert ep_expected(csr, t) >= cost_opt - 1e-9


def column_thetas(g, rules: dict) -> dict:
    """Each rule's θ as the push loop computes it, a Column over the
    graph's static edge frame, collected in CSR order."""
    f = runtime.column_factors(th.edge_factors(g.csr))
    pdf = (
        runtime.static_edges(g)
        .select("src", "dst", *(rule(f).alias(name) for name, rule in rules.items()))
        .toPandas()
        .sort_values(["src", "dst"])
    )
    np.testing.assert_array_equal(pdf["src"], g.csr.src)
    np.testing.assert_array_equal(pdf["dst"], g.csr.indices)
    return {name: pdf[name].to_numpy() for name in rules}


def affinity_floor(spark):
    """A §6.3 affinity graph whose Gaussian-kernel weights reach the
    generator's 1e-300 floor: Theorem 3's θ hits THETA_FLOOR on some edges
    at every r_max, Theorem 2's at ε = 1e-160, and LocalPush's θ at
    θ = 1e-8 is subnormal."""
    pdf = calibrated_affinity_graph(30, kappa=1, sigma_n2=1e3, target_cos2=0.05, seed=0)
    return build(spark, pdf)


# (formula, tolerance, its numpy function over the CSR)
THETA_RULES = {
    f"{name}-{tol:g}": (formula, tol, numpy_fn)
    for name, formula, numpy_fn, tols in [
        ("l1", th.l1, th.theta_l1, (0.5, 0.05, 1e-160)),
        ("additive", th.additive, th.theta_additive, (1.0, 1e-3, 1e-9)),
        (
            "local",
            lambda f, t: th.local(f, t, alpha=ALPHA),
            lambda csr, t: th.theta_local(csr, t, alpha=ALPHA),
            (1e-3, 1e-8, 0.0),
        ),
    ]
    for tol in tols
}


class TestSparkThetas:
    @pytest.mark.parametrize("mode,tol", [("l1", 0.05), ("additive", 1e-3)])
    def test_spark_matches_numpy(self, any_graph, mode, tol):
        """``thresholds_df``'s θ Column is the numpy θ, bit for bit."""
        df = (
            runtime.thresholds_df(any_graph, mode=mode, tol=tol)
            .toPandas()
            .sort_values(["src", "dst"])
        )
        csr = any_graph.csr
        fn = {
            "l1": lambda: th.theta_l1(csr, tol),
            "additive": lambda: th.theta_additive(csr, tol),
        }[mode]
        assert np.array_equal(df["theta"].to_numpy(), fn())

    @pytest.mark.parametrize("graph_name", [*SPARK_GRAPHS, "affinity_floor"])
    def test_column_theta_is_numpy_theta(self, spark, graph_name):
        """Each formula evaluated as a Spark Column over the static frame
        gives exactly the doubles it gives on numpy factors, the floor, θ = 0
        and subnormal values included: the push loop's θ and the numpy θ it
        counts its first candidates with are one θ."""
        g = affinity_floor(spark) if graph_name == "affinity_floor" else get_graph(spark, graph_name)
        csr = g.csr
        rules = {name: (lambda f, r=rule, t=tol: r(f, t)) for name, (rule, tol, _) in THETA_RULES.items()}
        got = column_thetas(g, rules)
        for name, (_, tol, numpy_fn) in THETA_RULES.items():
            want = numpy_fn(csr, tol)
            assert np.array_equal(got[name], want), name
        assert not got["local-0"].any()
        if graph_name == "affinity_floor":
            for name in ("l1-1e-160", "additive-1", "additive-0.001"):
                assert (got[name] == th.THETA_FLOOR).any(), name
            assert (got["local-1e-08"] < th.THETA_FLOOR).any()

    def test_spark_l1_matches_oracle(self, any_graph):
        df = runtime.thresholds_df(any_graph, mode="l1", tol=0.1)
        assert_equivalent(
            df,
            "SELECT src, dst, weight, "
            "weight / SUM(weight) OVER (PARTITION BY src) AS p, "
            "0.1 * SQRT(weight) / (SELECT SUM(SQRT(weight)) FROM edges) AS theta "
            "FROM edges",
            edges=any_graph.transition,
        )

    def test_spark_additive_matches_oracle(self, any_graph):
        # tol=1.0 keeps theta values O(1): the oracle compares floats
        # rounded to 6 decimals, which is too coarse for 1e-4-scale values
        # whose Spark/DuckDB summation orders differ in the last ulp
        df = runtime.thresholds_df(any_graph, mode="additive", tol=1.0)
        assert_equivalent(
            df,
            "SELECT src, dst, weight, "
            "weight / SUM(weight) OVER (PARTITION BY src) AS p, "
            "1.0 * SUM(weight) OVER (PARTITION BY dst) * SQRT(weight) "
            "  / SUM(SQRT(weight)) OVER (PARTITION BY dst) AS theta "
            "FROM edges",
            edges=any_graph.transition,
        )

    def test_unknown_mode_raises(self, any_graph):
        with pytest.raises(ValueError):
            runtime.thresholds_df(any_graph, mode="nope", tol=0.1)


class TestCostBounds:
    def test_edgepush_never_worse_table1(self, any_graph):
        """Table 1 row 1: EdgePush's expected ℓ1 bound ≤ (1-α)·LocalPush's."""
        csr = any_graph.csr
        eps = 0.01
        lp = lp_expected(csr, eps / csr.norm_a())
        ep = ep_expected(csr, th.theta_l1(csr, eps))
        assert ep <= lp + 1e-6

    def test_edgepush_additive_never_worse(self, any_graph):
        csr = any_graph.csr
        rmax = 1e-4
        lp = lp_expected(csr, rmax)
        ep = ep_expected(csr, th.theta_additive(csr, rmax))
        assert ep <= lp + 1e-6

    @pytest.mark.parametrize("name", [*GRAPH_BUILDERS, "edge_and_isolated"])
    def test_lemma11_is_lemma3_at_theta_local(self, spark, name):
        """Lemma 11 as the paper writes it, Σ_u n(u)·π(u)/(α·θ·d(u)) over
        the nodes with edges, is Lemma 3's bound at θ(u,v) = (1-α)·θ·A_uv.
        A node without edges has π = d = 0 and adds nothing: on one unit
        edge plus an isolated node the bound is 1/(α·θ), not NaN."""
        g = edge_and_isolated(spark) if name == "edge_and_isolated" else get_graph(spark, name)
        csr = g.csr
        theta = 1e-3
        pi = ground_truth(csr, 0, alpha=ALPHA)
        u = csr.deg > 0
        lemma11 = np.sum(csr.out_degree()[u] * pi[u] / (ALPHA * theta * csr.deg[u]))
        bound = th.edgepush_source_cost(csr, pi, th.theta_local(csr, theta, alpha=ALPHA), alpha=ALPHA)
        assert bound == pytest.approx(lemma11, rel=1e-9)
        if name == "edge_and_isolated":
            assert bound == pytest.approx(1 / (ALPHA * theta), rel=1e-9)

    def test_expected_cost_formulas(self, spark):
        """Closed forms: on a unit-weight graph the ℓ1-regime ratio is
        exactly (1-α) (cos²φ = 1)."""
        g = get_graph(spark, "triangle")
        csr = g.csr
        eps = 0.2
        lp = lp_expected(csr, eps / csr.norm_a())
        ep = ep_expected(csr, th.theta_l1(csr, eps))
        assert lp == pytest.approx(csr.nnz / (ALPHA * eps))  # Fact 1: 2m/(α·ε)
        assert ep / lp == pytest.approx(1 - ALPHA)
