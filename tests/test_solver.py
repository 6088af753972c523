import numpy as np
import pytest

import netgen
from sdpse.errors import RankRecoveryError, SolverError, ValidationError
from sdpse.measurements import (
    Measurement,
    NoiseSpec,
    default_plan,
    full_plan,
    repair_observability,
    state_to_X,
    synthesize,
)
from sdpse.problem import assemble_problem, compute_residuals, extract_state
from sdpse.sdpmat import build_matrix_set
from sdpse.solver import (
    SolverConfig,
    _chol,
    _inv_from_factor,
    _solve_spd,
    _Terms,
    solve,
)


def solve_chain(n=6, seed=0, plan_kind="full", config=None):
    model = netgen.model_from(netgen.chain_doc(n, seed=seed))
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=seed + 1)
    plan = full_plan(model, mats) if plan_kind == "full" else default_plan(model, mats)
    meas = synthesize(model, mats, state_to_X(V), plan, NoiseSpec(level=0, seed=seed))
    prob = assemble_problem(mats, meas, anchors=[0])
    return model, mats, V, prob, solve(prob, config)


def test_zero_noise_recovery_full_set():
    model, mats, V, prob, report = solve_chain()
    assert report.status == "converged"
    X, ratio = extract_state(report.W, prob.anchors)
    n = model.n_nodes
    V_est = X[:n] + 1j * X[n:]
    assert np.max(np.abs(np.abs(V_est) - np.abs(V))) < 1e-7
    ang = np.degrees(np.angle(V_est * np.conj(V)))
    assert np.max(np.abs(ang)) < 1e-5
    assert ratio < 1e-4
    assert report.objective < 1e-10


def test_anchor_angle_is_pinned():
    model, mats, V, prob, report = solve_chain(seed=3)
    X = report.polished_X if report.polished_X is not None else extract_state(
        report.W, prob.anchors
    )[0]
    n = model.n_nodes
    # The imaginary part at the anchor node is exactly eliminated.
    assert abs(X[n + 0]) < 1e-12
    assert abs(report.W[n + 0, n + 0]) < 1e-12


def test_residuals_vanish_at_zero_noise():
    model, mats, V, prob, report = solve_chain(seed=5)
    r, rn = compute_residuals(prob, report.W)
    assert np.max(np.abs(rn)) < 1e-3


def test_uniform_weight_scaling_keeps_minimizer():
    model, mats, V, prob, report = solve_chain(seed=7)
    scaled = [
        Measurement(
            kind=m.kind,
            node=m.node,
            far_node=m.far_node,
            value=m.value,
            sigma=2.0 * m.sigma,
            provenance=m.provenance,
        )
        for m in prob.measurements
    ]
    prob2 = assemble_problem(mats, scaled, anchors=[0])
    report2 = solve(prob2)
    X1, _ = extract_state(report.W, prob.anchors)
    X2, _ = extract_state(report2.W, prob.anchors)
    assert np.allclose(X1, X2, atol=1e-5)


def test_single_node_network():
    doc = {"buses": [{"id": "only", "phases": ["A"], "feeder_head": True}], "branches": []}
    model = netgen.model_from(doc)
    mats = build_matrix_set(model)
    meas = [Measurement("Vmag", 0, 1.02, 0.01)]
    prob = assemble_problem(mats, meas, anchors=[0])
    report = solve(prob)
    assert report.W[0, 0] == pytest.approx(1.02**2, rel=1e-6)
    assert abs(report.W[1, 1]) < 1e-12
    X, ratio = extract_state(report.W, [0])
    assert X[0] == pytest.approx(1.02, rel=1e-6)
    assert ratio < 1e-10


def test_empty_measurements_rejected():
    model = netgen.model_from(netgen.chain_doc(3))
    mats = build_matrix_set(model)
    with pytest.raises(ValidationError, match="empty measurement"):
        assemble_problem(mats, [], anchors=[0])


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("kind", ["P_inj", "Vmag"])
def test_non_finite_reading_rejected(kind, value):
    model = netgen.model_from(netgen.chain_doc(3))
    mats = build_matrix_set(model)
    meas = [Measurement("Vmag", 0, 1.0, 0.01), Measurement(kind, 1, value, 0.01)]
    with pytest.raises(ValidationError, match="measurement 1: non-finite reading"):
        assemble_problem(mats, meas, anchors=[0])


def test_anchor_out_of_range_rejected():
    model = netgen.model_from(netgen.chain_doc(3))
    mats = build_matrix_set(model)
    meas = [Measurement("Vmag", 0, 1.0, 0.01)]
    with pytest.raises(ValidationError, match="out of range"):
        assemble_problem(mats, meas, anchors=[99])


def test_missing_anchor_rejected():
    model = netgen.model_from(netgen.chain_doc(3))
    mats = build_matrix_set(model)
    meas = [Measurement("Vmag", 0, 1.0, 0.01)]
    with pytest.raises(ValidationError, match="anchor"):
        assemble_problem(mats, meas, anchors=[])


def test_extract_state_flags_rank_deficiency():
    # A balanced rank-two W admits no trustworthy rank-one factor.
    W = np.diag([1.0, 0.9, 0.0, 0.0])
    with pytest.raises(RankRecoveryError):
        extract_state(W, [0])
    X, ratio = extract_state(W, [0], raise_on_bad=False)
    assert ratio == pytest.approx(0.9)


def test_extract_state_sign_convention():
    X_true = np.array([1.0, 0.8, 0.1, -0.2])
    W = np.outer(-X_true, -X_true)
    X, ratio = extract_state(W, [0])
    assert X[0] > 0
    assert np.allclose(X, X_true, atol=1e-12)


def test_degenerate_w_rejected():
    with pytest.raises(SolverError, match="eigenvalue"):
        extract_state(np.zeros((4, 4)), [0])


def test_solver_config_round_trip():
    cfg = SolverConfig(convergence_tol=1e-7, max_iterations=150)
    model, mats, V, prob, report = solve_chain(n=4, seed=2, config=cfg)
    assert report.status == "converged"
    assert report.iterations <= 150


def test_vmag_sigma_transform():
    model = netgen.model_from(netgen.chain_doc(2))
    mats = build_matrix_set(model)
    meas = [
        Measurement("Vmag", 0, 1.05, 0.01),
        Measurement("Vmag", 1, 0.98, 0.01),
        Measurement("P_flow", 0, 0.1, 0.02, far_node=1),
        Measurement("Q_flow", 0, 0.05, 0.02, far_node=1),
    ]
    prob = assemble_problem(mats, meas, anchors=[0])
    assert prob.z[0] == pytest.approx(1.05**2)
    assert prob.sigma[0] == pytest.approx(2 * 1.05 * 0.01)


def reduced_dense(problem, keep, i):
    """Dense A_i of measurement i on the anchor-reduced index set."""
    _, p, q, c = problem.matrix_set.terms(problem.rows[[i]])
    D = np.zeros((problem.dim, problem.dim))
    D[p, q] = c
    return D[np.ix_(keep, keep)]


def gram_case(model, plan_kind, repair):
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=2)
    plan = full_plan(model, mats) if plan_kind == "full" else default_plan(model, mats)
    meas = synthesize(model, mats, state_to_X(V), plan, NoiseSpec(level=0, seed=0))
    if repair:
        meas, _ = repair_observability(model, mats, meas, "negate")
    prob = assemble_problem(mats, meas, anchors=[0])
    keep = np.array([i for i in range(prob.dim) if i != model.n_nodes], dtype=np.intp)
    return prob, keep, _Terms(prob, keep)


def reference_rows(m, d):
    """Every measurement where the dense m x d x d reference fits in memory,
    else a fixed sample of 48."""
    if m * d * d < 50_000_000:
        return np.arange(m)
    return np.random.default_rng(4).choice(m, 48, replace=False)


def random_pd(d, seed):
    B = np.random.default_rng(seed).normal(size=(d, d))
    return B @ B.T / d + np.eye(d)


GRAM_CASES = pytest.mark.parametrize(
    "doc, plan_kind, repair, dense_side, max_support",
    [
        (lambda: netgen.chain_doc(6, seed=4), "full", False, True, 6),
        (lambda: netgen.tree_doc(200, seed=9), "one_sided", True, False, 13),
        (netgen.multiphase_feeder_doc, "full", False, True, 24),
        (netgen.multiphase_feeder_doc, "one_sided", True, False, 8),
    ],
    ids=["chain6-full", "tree200-one-sided", "multiphase-full", "multiphase-one-sided"],
)


@GRAM_CASES
def test_gram_matches_reference(doc, plan_kind, repair, dense_side, max_support):
    model = netgen.model_from(doc())
    prob, keep, terms = gram_case(model, plan_kind, repair)
    m, d = terms.m, terms.d
    # Support rows: the (measurement, index) pairs whose row of A_i is nonzero.
    pairs = {(int(i), int(a)) for i, a in zip(terms.row, terms.p)}
    ns = len(pairs)
    assert (m * d * d <= ns * ns) == dense_side
    assert (terms._F is not None) == dense_side
    assert max(np.bincount([i for i, _ in pairs])) == max_support
    ids = reference_rows(m, d)
    A = np.array([reduced_dense(prob, keep, i) for i in ids])
    # Two different W in a row: entries left over from the first call must
    # not leak into the second.
    for seed in (3, 5):
        W = random_pd(d, seed)
        L, _ = _chol(W)
        G = terms.gram(W, L)
        assert G.shape == (m, m)
        if dense_side:
            # P^T P fills one triangle and mirrors it.
            assert np.array_equal(G, G.T)
        AW = A @ W
        ref = np.tensordot(AW, AW, axes=([1, 2], [2, 1]))
        np.testing.assert_allclose(
            G[np.ix_(ids, ids)], ref, rtol=1e-10, atol=1e-12 * np.abs(ref).max()
        )


@GRAM_CASES
def test_term_table_matches_reference(doc, plan_kind, repair, dense_side, max_support):
    model = netgen.model_from(doc())
    prob, keep, terms = gram_case(model, plan_kind, repair)
    m, d = terms.m, terms.d
    ids = reference_rows(m, d)
    A = np.array([reduced_dense(prob, keep, i) for i in ids])
    rng = np.random.default_rng(6)
    W = random_pd(d, 7)
    x = rng.normal(size=d)
    weights = rng.normal(size=m)

    def close(actual, ref):
        np.testing.assert_allclose(
            actual, ref, rtol=1e-12, atol=1e-12 * max(np.abs(ref).max(), 1.0)
        )

    values = terms.values(W)
    assert values.shape == (m,)
    close(values[ids], np.einsum("kab,ba->k", A, W))
    quad = terms.quad_values(x)
    assert quad.shape == (m,)
    close(quad[ids], np.einsum("a,kab,b->k", x, A, x))
    jac = terms.jac_rows(x)
    assert jac.shape == (m, d)
    close(jac[ids], A @ x)
    # sum_i w_i A_i over every measurement, one dense A_i at a time.
    ref = np.zeros((d, d))
    for i in range(m):
        ref += weights[i] * reduced_dense(prob, keep, i)
    acc = terms.accumulate(weights)
    assert acc.shape == (d, d)
    close(acc, ref)


def test_factor_of_pd_matrix():
    W = random_pd(9, 11)
    L, logdet = _chol(W)
    assert np.all(np.triu(L, 1) == 0.0)
    np.testing.assert_allclose(L @ L.T, W, rtol=1e-12)
    sign, ref = np.linalg.slogdet(W)
    assert sign == 1.0
    assert logdet == pytest.approx(ref, rel=1e-12)


def test_inverse_from_factor():
    W = random_pd(9, 12)
    L, _ = _chol(W)
    Winv = _inv_from_factor(L)
    assert np.array_equal(Winv, Winv.T)
    np.testing.assert_allclose(Winv, np.linalg.inv(W), rtol=1e-10)


@pytest.mark.parametrize("where", [(1, 1), (2, 0)], ids=["diagonal", "off-diagonal"])
def test_infinite_matrix_has_no_factor(where):
    # NaN entries: test_non_finite_matrix_has_no_factor.
    W = random_pd(5, 13)
    W[where] = W[where[::-1]] = np.inf
    assert _chol(W) is None


def test_solve_spd_matches_dense_solve():
    rng = np.random.default_rng(8)
    M = random_pd(7, 9)
    b = rng.normal(size=7)
    np.testing.assert_allclose(_solve_spd(M, b), np.linalg.solve(M, b), rtol=1e-12)


def test_solve_spd_regularizes_rank_deficient():
    # Exactly rank one: the first pivot's Schur complement is exactly zero,
    # so only the jittered factorization succeeds.
    v = np.array([1.0, 2.0, 3.0])
    M = np.outer(v, v)
    assert _chol(M) is None
    b = M @ np.array([0.5, -1.0, 2.0])
    x = _solve_spd(M, b)
    assert x is not None
    assert np.all(np.isfinite(x))
    np.testing.assert_allclose(M @ x, b, atol=1e-6)


def test_indefinite_matrix_has_no_factor():
    M = np.array([[2.0, 0.5, 0.0], [0.5, -1.0, 0.2], [0.0, 0.2, 3.0]])
    assert _chol(M) is None
    assert _solve_spd(M, np.ones(3)) is None


@pytest.mark.parametrize("where", [(1, 1), (2, 0)], ids=["diagonal", "off-diagonal"])
def test_non_finite_matrix_has_no_factor(where):
    M = random_pd(4, 10)
    M[where] = M[where[::-1]] = np.nan
    assert _chol(M) is None
    assert _solve_spd(M, np.ones(4)) is None


def test_non_pd_initial_w_falls_back_to_identity():
    model, mats, V, prob, _ = solve_chain(n=4, seed=6)
    dim = prob.dim
    indefinite = np.diag(np.linspace(-1.0, 1.0, dim))
    with_nan = np.eye(dim)
    with_nan[1, 1] = np.nan
    reports = [
        solve(prob, SolverConfig(initial_W=W0))
        for W0 in (-np.eye(dim), indefinite, with_nan)
    ]
    # All three start from the identity, so they take the same path.
    for report in reports:
        assert report.status == "converged"
        assert report.iterations == reports[0].iterations
        np.testing.assert_array_equal(report.W, reports[0].W)
    X, _ = extract_state(reports[0].W, prob.anchors)
    n = model.n_nodes
    V_est = X[:n] + 1j * X[n:]
    assert np.max(np.abs(np.abs(V_est) - np.abs(V))) < 1e-6


def test_repeated_solve_is_deterministic():
    # The dense-side Gram reuses one buffer across iterations without
    # re-zeroing it; nothing may carry over from one solve into the next.
    model = netgen.model_from(netgen.chain_doc(6, seed=0))
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=1)
    meas = synthesize(
        model, mats, state_to_X(V), full_plan(model, mats), NoiseSpec(level=2, seed=0)
    )
    prob = assemble_problem(mats, meas, anchors=[0])
    keep = np.array([i for i in range(prob.dim) if i != model.n_nodes], dtype=np.intp)
    assert _Terms(prob, keep)._F is not None
    first, second = solve(prob), solve(prob)
    np.testing.assert_array_equal(first.W, second.W)
    assert first.objective == second.objective
    assert first.iterations == second.iterations
    assert first.status == second.status
