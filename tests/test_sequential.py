"""Tests for the faithful sequential LocalPush / EdgePush references.

These verify the paper's claims directly: the invariants (Lemmas 1–2), the
error bounds (Facts 1–2, Lemmas 4–5, Theorems 2–3), underestimation, and
the cost bounds (Lemma 3 / Lemma 11).
"""
import numpy as np
import pytest

from repro.core import thresholds as th
from repro.core.power import ground_truth
from repro.core.runtime import PPRResult
from repro.core.sequential import sequential_edge_push, sequential_local_push

from .helpers import DEGENERATE_QUERIES, GRAPH_BUILDERS, edge_and_isolated, get_graph

ALPHA = 0.2


@pytest.fixture(params=list(GRAPH_BUILDERS))
def any_graph(request, spark):
    return get_graph(spark, request.param)


def _ppr_matrix(csr, iters=150):
    return np.stack([ground_truth(csr, s, alpha=ALPHA, iters=iters) for s in range(csr.n)])


class TestSequentialLocalPush:
    def test_underestimates_truth(self, any_graph):
        csr = any_graph.csr
        gt = ground_truth(csr, 0, alpha=ALPHA)
        res = sequential_local_push(csr, 0, alpha=ALPHA, theta=1e-4)
        assert (res.estimate <= gt + 1e-10).all()

    def test_terminal_residues_below_threshold(self, any_graph):
        """The result holds the dense π̂ and, as ``state``, the terminal
        residue r(u) of every node."""
        csr = any_graph.csr
        theta = 1e-4
        res = sequential_local_push(csr, 0, alpha=ALPHA, theta=theta)
        assert isinstance(res, PPRResult)
        assert isinstance(res.estimate, np.ndarray)
        assert res.estimate.shape == (csr.n,)
        assert list(res.state.columns) == ["node", "r"]
        np.testing.assert_array_equal(res.state["node"], np.arange(csr.n))
        assert (res.state["r"] <= csr.deg * theta + 1e-12).all()

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
    def test_l1_error_bound_fact1(self, any_graph, eps):
        """θ = ε/‖A‖₁ ⇒ ‖π̂-π‖₁ ≤ ε."""
        csr = any_graph.csr
        gt = ground_truth(csr, 0, alpha=ALPHA)
        res = sequential_local_push(csr, 0, alpha=ALPHA, theta=eps / csr.norm_a())
        assert np.abs(res.estimate - gt).sum() <= eps + 1e-9

    @pytest.mark.parametrize("rmax", [1e-2, 1e-4])
    def test_additive_error_bound_fact2(self, any_graph, rmax):
        """θ = r_max ⇒ |π̂(u)-π(u)|/d(u) ≤ r_max."""
        csr = any_graph.csr
        gt = ground_truth(csr, 0, alpha=ALPHA)
        res = sequential_local_push(csr, 0, alpha=ALPHA, theta=rmax)
        assert (np.abs(res.estimate - gt) / csr.deg).max() <= rmax + 1e-9

    def test_invariant_lemma1(self, spark):
        """π(t) = π̂(t) + Σ_u r(u)·π_u(t) at termination (Lemma 1)."""
        csr = get_graph(spark, "er_lognormal").csr
        res = sequential_local_push(csr, 0, alpha=ALPHA, theta=1e-3)
        pprs = _ppr_matrix(csr)
        reconstructed = res.estimate + res.state["r"] @ pprs
        assert np.allclose(reconstructed, pprs[0], atol=1e-7)

    def test_cost_within_lemma11_bound(self, any_graph):
        csr = any_graph.csr
        theta = 1e-4
        gt = ground_truth(csr, 0, alpha=ALPHA)
        res = sequential_local_push(csr, 0, alpha=ALPHA, theta=theta)
        bound = th.edgepush_source_cost(
            csr, gt, th.theta_local(csr, theta, alpha=ALPHA), alpha=ALPHA
        )
        # bound is on edge touches; allow the +n(u) slack of the final pushes
        assert res.cost.edge_touches <= bound + csr.nnz

    def test_converged_iff_queue_drained(self, spark):
        """A run stopped at ``max_pushes`` says so; a default run finishes."""
        csr = get_graph(spark, "er_lognormal").csr
        assert sequential_local_push(csr, 0, alpha=ALPHA, theta=1e-4).converged is True
        capped = sequential_local_push(csr, 0, alpha=ALPHA, theta=1e-4, max_pushes=10)
        assert capped.converged is False
        assert capped.cost.pushes == 10

    def test_more_precise_costs_more(self, any_graph):
        csr = any_graph.csr
        loose = sequential_local_push(csr, 0, alpha=ALPHA, theta=1e-2)
        tight = sequential_local_push(csr, 0, alpha=ALPHA, theta=1e-5)
        assert tight.cost.edge_touches >= loose.cost.edge_touches


class TestSequentialEdgePush:
    def test_underestimates_truth(self, any_graph):
        csr = any_graph.csr
        gt = ground_truth(csr, 0, alpha=ALPHA)
        res = sequential_edge_push(csr, 0, th.theta_l1(csr, 0.01), alpha=ALPHA)
        assert (res.estimate <= gt + 1e-10).all()

    def test_terminal_edge_residues_below_threshold(self, any_graph):
        """The result holds the dense π̂ and, as ``state``, per directed
        edge in CSR order the terminal residue R_uv and Q_uv, the residue
        pushed along it: the node income is q(v) = [v=s] + Σ_u Q_uv and
        π̂ = α·q."""
        csr = any_graph.csr
        theta = th.theta_l1(csr, 0.05)
        res = sequential_edge_push(csr, 0, theta, alpha=ALPHA)
        assert isinstance(res, PPRResult)
        assert isinstance(res.estimate, np.ndarray)
        assert res.estimate.shape == (csr.n,)
        state = res.state
        assert list(state.columns) == ["src", "dst", "r", "out"]
        np.testing.assert_array_equal(state["src"], csr.src)
        np.testing.assert_array_equal(state["dst"], csr.indices)
        q = np.bincount(state["dst"], state["out"], minlength=csr.n)
        q[0] += 1.0
        np.testing.assert_allclose(res.estimate, ALPHA * q, rtol=1e-12)
        assert (state["r"] <= theta + 1e-12).all()

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
    def test_l1_error_bound_theorem2(self, any_graph, eps):
        csr = any_graph.csr
        gt = ground_truth(csr, 0, alpha=ALPHA)
        res = sequential_edge_push(csr, 0, th.theta_l1(csr, eps), alpha=ALPHA)
        assert np.abs(res.estimate - gt).sum() <= eps + 1e-9

    @pytest.mark.parametrize("rmax", [1e-2, 1e-4])
    def test_additive_error_bound_theorem3(self, any_graph, rmax):
        csr = any_graph.csr
        gt = ground_truth(csr, 0, alpha=ALPHA)
        res = sequential_edge_push(csr, 0, th.theta_additive(csr, rmax), alpha=ALPHA)
        assert (np.abs(res.estimate - gt) / csr.deg).max() <= rmax + 1e-9

    def test_invariant_lemma2(self, spark):
        """π(t) = αq(t) + Σ_{⟨u,v⟩} R_uv·π_v(t) at termination (Lemma 2)."""
        csr = get_graph(spark, "er_lognormal").csr
        res = sequential_edge_push(csr, 0, th.theta_l1(csr, 0.05), alpha=ALPHA)
        pprs = _ppr_matrix(csr)
        v, r = csr.indices, res.state["r"].to_numpy()
        correction = np.zeros(csr.n)
        for e in range(csr.nnz):
            correction += r[e] * pprs[v[e]]
        assert np.allclose(res.estimate + correction, pprs[0], atol=1e-7)

    def test_cost_within_lemma3_bound(self, any_graph):
        csr = any_graph.csr
        theta = th.theta_l1(csr, 0.01)
        gt = ground_truth(csr, 0, alpha=ALPHA)
        res = sequential_edge_push(csr, 0, theta, alpha=ALPHA)
        bound = th.edgepush_source_cost(csr, gt, theta, alpha=ALPHA)
        assert res.cost.pushes <= bound + csr.nnz

    def test_converged_iff_queue_drained(self, spark):
        csr = get_graph(spark, "er_lognormal").csr
        theta = th.theta_l1(csr, 0.01)
        assert sequential_edge_push(csr, 0, theta, alpha=ALPHA).converged is True
        capped = sequential_edge_push(csr, 0, theta, alpha=ALPHA, max_pushes=10)
        assert capped.converged is False
        assert capped.cost.pushes == 10

    def test_star_graph_sublinear(self, spark):
        """On the Figure-1 bad case, EdgePush touches far fewer edges than
        LocalPush for the same ℓ1 guarantee — the paper's motivating claim."""
        csr = get_graph(spark, "star").csr
        eps = 0.1
        lp = sequential_local_push(csr, 0, alpha=ALPHA, theta=eps / csr.norm_a())
        ep = sequential_edge_push(csr, 0, th.theta_l1(csr, eps), alpha=ALPHA)
        gt = ground_truth(csr, 0, alpha=ALPHA)
        assert np.abs(ep.estimate - gt).sum() <= eps
        assert ep.cost.edge_touches < lp.cost.edge_touches / 3

    def test_agrees_with_localpush_at_high_precision(self, any_graph):
        csr = any_graph.csr
        lp = sequential_local_push(csr, 0, alpha=ALPHA, theta=1e-7 / csr.norm_a())
        ep = sequential_edge_push(csr, 0, th.theta_l1(csr, 1e-7), alpha=ALPHA)
        assert np.abs(lp.estimate - ep.estimate).max() < 1e-6


@pytest.mark.parametrize(
    "theta", [0.0, -1e-3, float("nan")], ids=["zero", "negative", "nan"]
)
def test_local_push_rejects_bad_theta(spark, theta):
    """θ ≤ 0 or NaN keeps every node a candidate: the run would push zero
    mass until its push cap and return a truncated result silently."""
    csr = get_graph(spark, "triangle").csr
    with pytest.raises(ValueError):
        sequential_local_push(csr, 0, alpha=ALPHA, theta=theta, max_pushes=1000)


@pytest.mark.parametrize(
    "spoil",
    [
        lambda t: t[:-1],
        lambda t: np.where(np.arange(len(t)) == 0, 0.0, t),
        lambda t: -t,
        lambda t: np.where(np.arange(len(t)) == 0, np.nan, t),
    ],
    ids=["shape", "zero", "negative", "nan"],
)
def test_edge_push_rejects_bad_thresholds(spark, spoil):
    """Per-edge thresholds are checked with a ``ValueError``, which, unlike
    an ``assert``, ``python -O`` keeps."""
    csr = get_graph(spark, "triangle").csr
    theta = spoil(th.theta_l1(csr, 0.1))
    with pytest.raises(ValueError):
        sequential_edge_push(csr, 0, theta, alpha=ALPHA, max_pushes=1000)


@pytest.mark.parametrize(
    "method",
    [
        lambda csr, s, alpha: sequential_local_push(csr, s, alpha=alpha, theta=1e-3),
        lambda csr, s, alpha: sequential_edge_push(
            csr, s, np.full(csr.nnz, 1e-3), alpha=alpha
        ),
    ],
    ids=["local", "edge"],
)
@pytest.mark.parametrize("source, alpha", DEGENERATE_QUERIES)
def test_rejects_degenerate_query(spark, method, source, alpha):
    """The references refuse the queries the Spark methods refuse, with a
    ``ValueError`` naming the input: a negative source would wrap around to
    the last node, an isolated one would return α·e_s, and α = 0 would push
    until the cap."""
    with pytest.raises(ValueError):
        method(edge_and_isolated(spark).csr, source, alpha)
