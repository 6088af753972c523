import numpy as np
import pytest
from scipy.linalg.lapack import dpotrs

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
from sdpse.problem import (
    assemble_problem,
    compute_residuals,
    extract_state,
    solve_to_state,
)
from sdpse.sdpmat import build_matrix_set
from sdpse.solver import (
    SolverConfig,
    _chol,
    _dual_bound,
    _eigs,
    _factor_spd,
    _linearize,
    _step_length,
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


def test_iteration_cap_reports_max_iter():
    model, mats, V, prob, report = solve_chain(config=SolverConfig(max_iterations=3))
    assert report.status == "max_iter"
    assert report.iterations == 3
    assert np.all(np.isfinite(report.W))


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
        L = _chol(W)
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
    L = _chol(W)
    assert np.all(np.triu(L, 1) == 0.0)
    np.testing.assert_allclose(L @ L.T, W, rtol=1e-12)
    sign, ref = np.linalg.slogdet(W)
    assert sign == 1.0
    assert 2.0 * np.sum(np.log(L.diagonal())) == pytest.approx(ref, rel=1e-12)


def multiphase_head_doc():
    """The 5-bus, 13-node head of the multiphase feeder (650 down to 646)."""
    doc = netgen.multiphase_feeder_doc()
    keep = {"650", "RG60", "632", "645", "646"}
    return {
        "buses": [b for b in doc["buses"] if b["id"] in keep],
        "branches": [
            br
            for br in doc["branches"]
            if br["from"]["bus"] in keep and br["to"]["bus"] in keep
        ],
    }


def svec_helpers(d):
    """svec/smat for symmetric d x d matrices: the upper triangle with
    off-diagonal entries weighted by sqrt(2), an isometry, so inner products
    carry over."""
    iu, ju = np.triu_indices(d)
    scale = np.where(iu == ju, 1.0, np.sqrt(2.0))

    def vec(X):
        return X[iu, ju] * scale

    def mat(v):
        X = np.zeros((d, d))
        X[iu, ju] = v / scale
        return X + np.triu(X, 1).T

    return vec, mat


def sym_power(X, p):
    vals, vecs = np.linalg.eigh(X)
    return (vecs * vals**p) @ vecs.T


def dense_kkt(A, w, W, S, Rp, Rd, C):
    """(dW, dS, dr) from a dense solve of the linearized optimality conditions

        dr + A(dW) = Rp,   dS + A^*(2 w o dr) = -Rd,   dW + What dS What = C

    over svec dW, svec dS and dr, with the NT scaling point What =
    W^1/2 (W^1/2 S W^1/2)^-1/2 W^1/2."""
    d, m = W.shape[0], len(w)
    vec, mat = svec_helpers(d)
    nt = d * (d + 1) // 2
    Wr = sym_power(W, 0.5)
    Wh = Wr @ sym_power(Wr @ S @ Wr, -0.5) @ Wr
    Avec = np.array([vec(Ai) for Ai in A])
    H = np.array([vec(Wh @ mat(e) @ Wh) for e in np.eye(nt)]).T
    M = np.zeros((2 * nt + m, 2 * nt + m))
    M[:m, :nt] = Avec
    M[:m, 2 * nt:] = np.eye(m)
    M[m:m + nt, nt:2 * nt] = np.eye(nt)
    M[m:m + nt, 2 * nt:] = Avec.T * (2.0 * w)
    M[m + nt:, :nt] = np.eye(nt)
    M[m + nt:, nt:2 * nt] = H
    x = np.linalg.solve(M, np.concatenate([Rp, -vec(Rd), vec(C)]))
    return mat(x[:nt]), mat(x[nt:2 * nt]), x[2 * nt:], Wh


@pytest.mark.parametrize(
    "doc", [lambda: netgen.chain_doc(6, seed=4), multiphase_head_doc],
    ids=["chain6-full", "multiphase-head-full"],
)
@pytest.mark.parametrize("steps", [0, 3])
def test_newton_step_matches_dense_newton(doc, steps):
    model = netgen.model_from(doc())
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=2)
    meas = synthesize(
        model, mats, state_to_X(V), full_plan(model, mats), NoiseSpec(level=2, seed=0)
    )
    prob = assemble_problem(mats, meas, anchors=[0])
    keep = np.array([i for i in range(prob.dim) if i != model.n_nodes], dtype=np.intp)
    terms = _Terms(prob, keep)
    d, z = terms.d, prob.z
    A = np.array([reduced_dense(prob, keep, i) for i in range(terms.m)])
    w = 1.0 / prob.sigma**2
    # The solver's own start (ten times the best multiple of I, S a multiple
    # of I with <W, S> = f(W), r primal feasible), then `steps` predictor
    # steps: the scaling's conditioning at the points the solver visits.
    a = terms.values(np.eye(d))
    W = 10.0 * float(np.dot(w * z, a) / np.dot(w * a, a)) * np.eye(d)
    r = z - terms.values(W)
    S = float(np.dot(w, r * r)) / np.trace(W) * np.eye(d)

    def linearize(W, S, r):
        Rp = z - r - np.einsum("kab,ab->k", A, W)
        Rd = S + np.einsum("k,kab->ab", 2.0 * w * r, A)
        return Rp, Rd, _linearize(terms, w, W, S, Rp, Rd)

    for _ in range(steps):
        R, lam, direction = linearize(W, S, r)[2]
        dWt, dSt, dS, dr = direction(-np.diag(lam))
        s = 1.0 / np.sqrt(lam)
        scaled = [D * s[:, None] * s for D in (dWt, dSt)]
        ends = [np.linalg.eigvalsh(D)[[0, -1]] for D in scaled]
        assert _eigs(scaled[1].copy(), 1, d) == pytest.approx(ends[1], abs=1e-12)
        t = _step_length(ends[0][0], ends[1][0])
        assert 0.0 < t <= 1.0
        dW = R @ dWt @ R.T
        W, S, r = W + t * (dW + dW.T) / 2.0, S + t * dS, r + t * dr
    Rp, Rd, (R, lam, direction) = linearize(W, S, r)

    def close(got, ref, rtol, atol):
        np.testing.assert_allclose(got, ref, rtol=rtol, atol=atol * np.abs(ref).max())

    # K = -diag(lam), the predictor, asks for dW + What dS What = -W, and the
    # solver passes A(R K R^T) = -A(W) for it.
    predictor = -np.diag(lam)
    for got, ref in zip(direction(predictor, -terms.values(W)), direction(predictor)):
        close(got, ref, 1e-8, 1e-10)
    K_rand = np.random.default_rng(5).normal(size=(d, d))
    for K, C in ((predictor, -W), (K_rand + K_rand.T, None)):
        dWt, dSt, dS, dr = direction(K)
        dW = R @ dWt @ R.T
        ref_dW, ref_dS, ref_dr, Wh = dense_kkt(
            A, w, W, S, Rp, Rd, R @ K @ R.T if C is None else C
        )
        close(Wh @ S @ Wh, W, 1e-8, 1e-10)
        close(R @ R.T, Wh, 1e-8, 1e-10)
        close(R.T @ S @ R, np.diag(lam), 1e-7, 1e-10)
        close(dSt, R.T @ dS @ R, 1e-10, 1e-12)
        for got, ref in ((dW, ref_dW), (dS, ref_dS), (dr, ref_dr)):
            close(got, ref, 1e-8, 1e-8)


def test_dual_bound_needs_a_psd_certificate():
    model, mats, V, prob, report = solve_chain()
    keep = np.array([i for i in range(prob.dim) if i != model.n_nodes], dtype=np.intp)
    terms = _Terms(prob, keep)
    w, z = 1.0 / prob.sigma**2, prob.z
    # Each Vmag A_i is PSD, so lambda < 0 on the Vmag rows and 0 elsewhere
    # makes -A^*(lambda) PSD, and every node has a Vmag reading in the full
    # plan, so it is positive definite.
    vmag = np.array([m.kind == "Vmag" for m in prob.measurements])
    assert vmag.sum() == model.n_nodes
    r = np.where(vmag, -1.0, 0.0) / (2.0 * w)
    lam = 2.0 * w * r
    bound = _dual_bound(terms, w, z, r)
    ref = float(lam @ z - np.sum(lam**2 / (4.0 * w)))
    assert bound == pytest.approx(ref, rel=1e-12)
    assert bound <= report.objective
    assert np.isnan(_dual_bound(terms, w, z, -r))


def eigenvector_misfit(prob, W):
    """Weighted misfit of the leading-eigenvector state of W."""
    vals, vecs = np.linalg.eigh(W)
    x = np.sqrt(vals[-1]) * vecs[:, -1]
    _, rn = compute_residuals(prob, np.outer(x, x))
    return float(np.sum(rn * rn))


@pytest.mark.parametrize("noise_seed", range(5))
def test_polish_is_kept_and_ratio_is_the_barriers(noise_seed):
    model = netgen.model_from(netgen.tree_doc(34, seed=7, trunk_bias=3))
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=2)
    meas = synthesize(
        model, mats, state_to_X(V), default_plan(model, mats),
        NoiseSpec(level=2, seed=noise_seed),
    )
    meas, _ = repair_observability(model, mats, meas, "negate")
    prob = assemble_problem(mats, meas, anchors=[0])
    polished = solve(prob, SolverConfig(convergence_tol=1e-2))
    relaxed = solve(prob, SolverConfig(convergence_tol=1e-2, polish=False))
    assert polished.polished_X is not None
    np.testing.assert_array_equal(
        polished.W, np.outer(polished.polished_X, polished.polished_X)
    )
    _, rn = compute_residuals(prob, polished.W)
    misfit = float(np.sum(rn * rn))
    assert misfit == pytest.approx(polished.objective, rel=1e-9)
    assert misfit <= eigenvector_misfit(prob, relaxed.W)
    vals = np.linalg.eigvalsh(relaxed.W)
    assert polished.rank1_ratio_raw == pytest.approx(vals[-2] / vals[-1], rel=1e-9)
    # The dual bound is certified here and sits below the misfit of the
    # relaxed W as well as the polished state's.
    _, rn = compute_residuals(prob, relaxed.W)
    assert relaxed.objective == pytest.approx(float(np.sum(rn * rn)), rel=1e-9)
    assert polished.dual_bound == relaxed.dual_bound
    assert relaxed.dual_bound <= relaxed.objective
    assert polished.dual_bound <= polished.objective


def test_polished_path_still_flags_rank_deficiency():
    # Magnitudes alone leave every angle free, so the relaxed solution lands
    # far from rank one; a polished state must not hide that.
    model = netgen.model_from(netgen.chain_doc(6, seed=0))
    mats = build_matrix_set(model)
    meas = [Measurement("Vmag", k, 1.0 + 0.01 * k, 0.01) for k in range(6)]
    prob = assemble_problem(mats, meas, anchors=[0])
    assert solve(prob).polished_X is not None
    with pytest.raises(RankRecoveryError, match="exceeds"):
        solve_to_state(prob)


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
    x = dpotrs(_factor_spd(M), b, lower=1)[0]
    np.testing.assert_allclose(x, np.linalg.solve(M, b), rtol=1e-12)


def test_solve_spd_regularizes_rank_deficient():
    # Exactly rank one: the first pivot's Schur complement is exactly zero,
    # so only the jittered factorization succeeds.
    v = np.array([1.0, 2.0, 3.0])
    M = np.outer(v, v)
    assert _chol(M) is None
    b = M @ np.array([0.5, -1.0, 2.0])
    F = _factor_spd(M)
    assert F is not None
    x = dpotrs(F, b, lower=1)[0]
    assert np.all(np.isfinite(x))
    np.testing.assert_allclose(M @ x, b, atol=1e-6)


def test_indefinite_matrix_has_no_factor():
    M = np.array([[2.0, 0.5, 0.0], [0.5, -1.0, 0.2], [0.0, 0.2, 3.0]])
    assert _chol(M) is None
    assert _factor_spd(M) is None


@pytest.mark.parametrize("where", [(1, 1), (2, 0)], ids=["diagonal", "off-diagonal"])
def test_non_finite_matrix_has_no_factor(where):
    M = random_pd(4, 10)
    M[where] = M[where[::-1]] = np.nan
    assert _chol(M) is None
    assert _factor_spd(M) is None


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
