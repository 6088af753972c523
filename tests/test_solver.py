import dataclasses

import numpy as np
import pytest
from scipy.linalg.lapack import dpbtrs, dpotrs

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
from sdpse.network import restrict
from sdpse.partition import _prepare_plan, detect_topology, separate
from sdpse.problem import (
    assemble_problem,
    compute_residuals,
    extract_state,
    finish,
)
from sdpse.sdpmat import build_matrix_set
import sdpse.solver
from sdpse.solver import (
    CLIQUE_MIN_DIM,
    SolveReport,
    SolverConfig,
    _chol,
    _band_chol,
    _best_bound,
    _cliques,
    _eigs,
    _factor_spd,
    _interior_point,
    _linearize,
    _reduce,
    _step_length,
    solve,
    solve_many,
)


def solve_chain(n=6, seed=0, plan_kind="full", config=None):
    model = netgen.model_from(netgen.chain_doc(n, seed=seed))
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=seed + 1)
    plan = full_plan(model, mats) if plan_kind == "full" else default_plan(model, mats)
    meas = synthesize(model, mats, state_to_X(V), plan, NoiseSpec(level=0, seed=seed))
    prob = assemble_problem(mats, meas, anchors=[0])
    return model, mats, V, prob, solve(prob, config)


def polished_state(report, anchors):
    """The report's polished state, signed as ``finish`` signs it:
    the first anchor's real part non-negative."""
    X = report.polished_X
    return -X if X[anchors[0]] < 0 else X


def test_zero_noise_recovery_full_set():
    model, mats, V, prob, report = solve_chain()
    assert report.status == "converged"
    X = polished_state(report, prob.anchors)
    n = model.n_nodes
    V_est = X[:n] + 1j * X[n:]
    assert np.max(np.abs(np.abs(V_est) - np.abs(V))) < 1e-7
    ang = np.degrees(np.angle(V_est * np.conj(V)))
    assert np.max(np.abs(ang)) < 1e-5
    assert report.rank1_ratio_raw < 1e-4
    assert report.objective < 1e-10


def test_anchor_angle_is_pinned():
    model, mats, V, prob, report = solve_chain(seed=3)
    X = report.polished_X
    n = model.n_nodes
    # The imaginary part at the anchor node is exactly eliminated.
    assert abs(X[n + 0]) < 1e-12
    assert abs(report.W[n + 0, n + 0]) < 1e-12


def test_residuals_vanish_at_zero_noise():
    model, mats, V, prob, report = solve_chain(seed=5)
    r, rn = compute_residuals(prob, np.outer(report.polished_X, report.polished_X))
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
    X1 = polished_state(report, prob.anchors)
    X2 = polished_state(report2, prob.anchors)
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
    X = polished_state(report, [0])
    assert X[0] == pytest.approx(1.02, rel=1e-6)
    assert report.rank1_ratio_raw < 1e-10


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
    with pytest.raises(RankRecoveryError, match=r"ratio 0\.9 exceeds"):
        extract_state(W, [0])
    vals = np.linalg.eigvalsh(W)
    assert vals[-2] / vals[-1] == pytest.approx(0.9)


def test_extract_state_sign_convention():
    X_true = np.array([1.0, 0.8, 0.1, -0.2])
    W = np.outer(-X_true, -X_true)
    X, ratio = extract_state(W, [0])
    assert X[0] > 0
    assert np.allclose(X, X_true, atol=1e-12)


def test_degenerate_w_rejected():
    with pytest.raises(SolverError, match="eigenvalue"):
        extract_state(np.zeros((4, 4)), [0])


def test_iteration_cap_reports_max_iter(monkeypatch):
    monkeypatch.setattr(sdpse.solver, "MAX_ITERATIONS", 3)
    model, mats, V, prob, report = solve_chain()
    assert report.status == "max_iter"
    assert report.iterations == 3
    assert np.all(np.isfinite(report.W))


def test_solver_config_round_trip():
    cfg = SolverConfig(convergence_tol=1e-7)
    model, mats, V, prob, report = solve_chain(n=4, seed=2, config=cfg)
    assert report.status == "converged"
    assert report.iterations <= 150


@pytest.mark.parametrize(
    "tol", [0, -1, float("nan"), float("inf"), 1.0, 10, "1e-3"],
    ids=["zero", "negative", "nan", "inf", "one", "ten", "string"],
)
def test_meaningless_tolerance_rejected(tol):
    # From tol 1 up the start itself passes the gap test, so such a solve
    # would report "converged" after 0 iterations.
    with pytest.raises(ValidationError, match="convergence_tol must be"):
        SolverConfig(convergence_tol=tol)


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
    keep, terms = _reduce(prob)
    return prob, keep, terms


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
    "doc, plan_kind, repair, term_side, max_support",
    [
        (lambda: netgen.chain_doc(6, seed=4), "full", False, True, 6),
        (lambda: netgen.tree_doc(34, seed=7, trunk_bias=3), "full", False, True, 8),
        (lambda: netgen.tree_doc(200, seed=9), "one_sided", True, False, 13),
        (netgen.multiphase_feeder_doc, "full", False, True, 24),
        (netgen.multiphase_feeder_doc, "one_sided", True, True, 8),
    ],
    ids=[
        "chain6-full", "tree34-full", "tree200-one-sided", "multiphase-full",
        "multiphase-one-sided",
    ],
)


@GRAM_CASES
def test_gram_matches_reference(doc, plan_kind, repair, term_side, max_support):
    model = netgen.model_from(doc())
    prob, keep, terms = gram_case(model, plan_kind, repair)
    m, d = terms.m, terms.d
    # Support rows: the (measurement, index) pairs whose row of A_i is nonzero.
    pairs = {(int(i), int(a)) for i, a in zip(terms.row, terms.p)}
    ns = len(pairs)
    # The measured crossover of the _Terms docstring.
    assert (m * d * d <= 4 * ns * ns) == term_side
    assert max(np.bincount([i for i, _ in pairs])) == max_support
    ids = reference_rows(m, d)
    A = np.array([reduced_dense(prob, keep, i) for i in ids])
    # Two different W in a row: entries left over from the first call must
    # not leak into the second.  Every formula is exact, whichever the rule
    # picks; on the 200-bus tree the term side's (d, d, m) buffer would be
    # 764 MB, so it runs there in chunks of readings.
    for seed in (3, 5):
        W = random_pd(d, seed)
        L = _chol(W)
        AW = A @ W
        ref = np.tensordot(AW, AW, axes=([1, 2], [2, 1]))
        formulas = [terms.gram_terms(W), terms.gram_support(W)]
        if term_side:
            # The packed form, which the term side hands over to, keeps an
            # unchunked (d, m, d) buffer.
            formulas.append(terms.gram_packed(L))
        for G in formulas:
            assert G.shape == (m, m)
            assert np.array_equal(G, G.T)
            np.testing.assert_allclose(
                G[np.ix_(ids, ids)], ref, rtol=1e-10, atol=1e-12 * np.abs(ref).max()
            )
        picked = terms.gram_terms(W) if term_side else terms.gram_support(W)
        np.testing.assert_array_equal(terms.gram(W, L), picked)
    assert (len(terms._chunks[1]) > 1) == (m * d * d > sdpse.solver._F_ENTRIES)


def test_term_side_hands_over_to_the_packed_form():
    # Once G's largest diagonal entry passes _packed_above, this and every
    # later Gram of the solve is the packed form.
    terms = _reduce(multiphase_problem())[1]
    assert terms._term_side
    W = random_pd(terms.d, 3)
    # G scales as the square of W: one W below the bound, one above.
    top = np.diag(terms.gram_terms(W)).max()
    small, big = (np.sqrt(f * terms._packed_above / top) * W for f in (0.5, 2.0))
    G = terms.gram(small, _chol(small))
    np.testing.assert_array_equal(G, terms.gram_terms(small))
    for X in (big, small):
        L = _chol(X)
        np.testing.assert_array_equal(terms.gram(X, L), terms.gram_packed(L))


@GRAM_CASES
def test_term_table_matches_reference(doc, plan_kind, repair, term_side, max_support):
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
    """The 5-bus, 13-node head of the multiphase feeder (650 down to 646),
    the feeder of the ``cli-multiphase`` benchmark workload."""
    return netgen.trim(
        netgen.multiphase_feeder_doc(), ["650", "RG60", "632", "645", "646"]
    )


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
    keep, terms = _reduce(prob)
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


def vmag_certificate(model, prob):
    """The dense term table of the chain and an r whose lambda = 2 w o r is
    -1 on the Vmag rows and 0 elsewhere.  Each Vmag A_i is PSD and every
    node has a Vmag reading in the full plan, so -A^*(lambda) is positive
    definite."""
    _, terms = _reduce(prob)
    w = 1.0 / prob.sigma**2
    vmag = np.array([m.kind == "Vmag" for m in prob.measurements])
    assert vmag.sum() == model.n_nodes
    return terms, w, np.where(vmag, -1.0, 0.0) / (2.0 * w)


def plain_bound(w, z, r):
    lam = 2.0 * w * r
    return float(lam @ z - np.sum(lam**2 / (4.0 * w)))


def test_dual_bound_needs_a_psd_certificate():
    model, mats, V, prob, report = solve_chain()
    terms, w, r = vmag_certificate(model, prob)
    z = prob.z
    part = terms.parts[0]
    bound = _best_bound(terms, w, z, [r], part)
    assert bound == pytest.approx(plain_bound(w, z, r), rel=1e-12)
    assert bound <= report.objective
    # lambda > 0 on the Vmag rows makes -A^*(lambda) negative definite.
    assert np.isnan(_best_bound(terms, w, z, [-r], part))
    assert np.isnan(_best_bound(terms, w, z, [], part))


def test_best_bound_tries_the_highest_candidate_first():
    model, mats, V, prob, report = solve_chain()
    terms, w, r = vmag_certificate(model, prob)
    z = prob.z
    # -r has the highest bound and no certificate; r / 2 is certified and
    # beats r; 2 r is certified and lowest.
    values = [plain_bound(w, z, c) for c in (-r, r / 2, r, 2 * r)]
    assert values == sorted(values, reverse=True)
    part = terms.parts[0]
    calls = []
    psd = terms.psd
    terms.psd = lambda X: calls.append(1) or psd(X)
    for order in ([r, 2 * r, -r, r / 2], [r / 2, -r, 2 * r, r]):
        calls.clear()
        bound = _best_bound(terms, w, z, order, part)
        assert bound == pytest.approx(values[1], rel=1e-12)
        assert len(calls) == 2
    calls.clear()
    bound = _best_bound(terms, w, z, [r, r / 2], part)
    assert bound == pytest.approx(values[1], rel=1e-12)
    assert len(calls) == 1
    assert np.isnan(_best_bound(terms, w, z, [-r, -2 * r], part))


def eigenvector_misfit(prob, W):
    """Weighted misfit of the leading-eigenvector state of W."""
    vals, vecs = np.linalg.eigh(W)
    x = np.sqrt(vals[-1]) * vecs[:, -1]
    _, rn = compute_residuals(prob, np.outer(x, x))
    return float(np.sum(rn * rn))


def radial_problem(truth_seed, level, noise_seed, vmag_nodes=None):
    """The 34-bus radial feeder of the c05 study: one-sided plan, negate
    repair."""
    model = netgen.model_from(netgen.tree_doc(34, seed=7, trunk_bias=3))
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=truth_seed)
    meas = synthesize(
        model, mats, state_to_X(V), default_plan(model, mats, vmag_nodes),
        NoiseSpec(level=level, seed=noise_seed),
    )
    meas, _ = repair_observability(model, mats, meas, "negate")
    return assemble_problem(mats, meas, anchors=[0])


def test_polish_ends_where_gauss_newton_predicts_no_descent():
    # One more Gauss-Newton step from the polished state, built from the
    # dense A_i: its predicted decrease gT H^-1 g is at rounding level.
    prob = radial_problem(2, 2, 0)
    report = solve(prob)
    keep, _ = _reduce(prob)
    X = report.polished_X[keep]
    A = np.stack([reduced_dense(prob, keep, i) for i in range(len(prob.z))])
    w = 1.0 / prob.sigma**2
    r = prob.z - np.einsum("a,iab,b->i", X, A, X)
    assert float(w @ (r * r)) == pytest.approx(report.objective, rel=1e-9)
    J = -2.0 * (A @ X)
    g = J.T @ (w * r)
    H = J.T @ (w[:, None] * J)
    step = np.linalg.solve(H, -g)
    pred = -(2.0 * g @ step + step @ H @ step)
    assert pred <= 1e-12 * report.objective


@pytest.mark.parametrize("noise_seed", range(5))
def test_polish_is_kept_and_ratio_is_the_barriers(noise_seed):
    prob = radial_problem(2, 2, noise_seed)
    report = solve(prob, SolverConfig(convergence_tol=1e-2))
    assert report.polished_X is not None
    X = report.polished_X
    _, rn = compute_residuals(prob, np.outer(X, X))
    misfit = float(np.sum(rn * rn))
    assert misfit == pytest.approx(report.objective, rel=1e-9)
    # report.W is the relaxed solution: the polish seeded from its leading
    # eigenvector fits no worse, and its ratio is the one reported.
    assert misfit <= eigenvector_misfit(prob, report.W)
    vals = np.linalg.eigvalsh(report.W)
    assert report.rank1_ratio_raw == pytest.approx(vals[-2] / vals[-1], rel=1e-9)
    # The dual bound is certified here and sits below the misfit of the
    # relaxed W as well as the polished state's.
    _, rn = compute_residuals(prob, report.W)
    assert report.dual_bound <= float(np.sum(rn * rn))
    assert report.dual_bound <= report.objective


def test_polished_path_still_flags_rank_deficiency():
    # Magnitudes alone leave every angle free, so the relaxed solution lands
    # far from rank one; a polished state must not hide that.
    model = netgen.model_from(netgen.chain_doc(6, seed=0))
    mats = build_matrix_set(model)
    meas = [Measurement("Vmag", k, 1.0 + 0.01 * k, 0.01) for k in range(6)]
    prob = assemble_problem(mats, meas, anchors=[0])
    assert solve(prob).polished_X is not None
    with pytest.raises(RankRecoveryError, match="exceeds"):
        finish(prob, solve(prob), [])


@pytest.mark.parametrize("scale", [0.01, 0.1, 1.0, 10.0])
def test_rank_deficiency_flag_does_not_depend_on_start_scale(scale):
    # The same magnitudes-only chain started at scale * I: lambda2/lambda1 of
    # the relaxed W is 0.55 from every such start.  That is why the default
    # start is a multiple of I and not a rank-one flat state: a start near
    # rank one leads the solve to a near rank-one W here, and the flag is
    # lost.
    model = netgen.model_from(netgen.chain_doc(6, seed=0))
    mats = build_matrix_set(model)
    meas = [Measurement("Vmag", k, 1.0 + 0.01 * k, 0.01) for k in range(6)]
    prob = assemble_problem(mats, meas, anchors=[0])
    config = SolverConfig(initial_W=scale * np.eye(prob.dim))
    with pytest.raises(RankRecoveryError, match="exceeds"):
        finish(prob, solve(prob, config), [])


@pytest.mark.parametrize("noise_seed", range(3))
@pytest.mark.parametrize("level", [0, 2, 4])
def test_loose_tolerance_solve_certifies_a_dual_bound(level, noise_seed):
    # At L0 and L4 the least-squares start left no dual-feasible iterate
    # with -A^*(lambda) positive definite, so the bound was NaN.
    prob = radial_problem(2, level, noise_seed)
    report = solve(prob, SolverConfig(convergence_tol=1e-2))
    assert report.status == "converged"
    assert np.isfinite(report.dual_bound)
    _, rn = compute_residuals(prob, report.W)
    assert report.dual_bound <= float(np.sum(rn * rn))


@pytest.mark.parametrize("noise_seed", range(6))
def test_radial_solve_iteration_budget(noise_seed):
    # From the per-unit start these take 19-20 iterations; the least-squares
    # multiple of I, pushed small by the weighted flow readings, took 36-38.
    vmag_nodes = [int(k) for k in np.linspace(0, 32, 5)]
    prob = radial_problem(100, 2, noise_seed, vmag_nodes)
    report = solve(prob, SolverConfig(convergence_tol=1e-2))
    assert report.status == "converged"
    assert report.iterations <= 25


@pytest.mark.parametrize(
    "make_W0",
    [
        lambda dim: np.eye(3),
        lambda dim: np.eye(dim)[:, :5],
        lambda dim: np.ones(dim),
        lambda dim: np.eye(dim + 1),
    ],
    ids=["too-small", "not-square", "vector", "too-large"],
)
def test_wrong_shape_initial_w_rejected(make_W0):
    model, mats, V, prob, _ = solve_chain()
    with pytest.raises(ValidationError, match="initial_W must have shape"):
        solve(prob, SolverConfig(initial_W=make_W0(prob.dim)))


@pytest.mark.parametrize("initial_W", ["no-such-start", [[1.0]]], ids=["string", "list"])
def test_unknown_initial_w_rejected(initial_W):
    with pytest.raises(ValidationError, match="initial_W must be"):
        SolverConfig(initial_W=initial_W)


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


def band_of(M, bandwidth):
    """The lower band of M in LAPACK's lower band storage: ``[k, j]`` holds
    ``M[j + k, j]``."""
    n = len(M)
    out = np.zeros((bandwidth + 1, n))
    for k in range(bandwidth + 1):
        out[k, : n - k] = M.diagonal(-k)
    return out


@pytest.mark.parametrize("bandwidth", [2, 11])
def test_band_factor_matches_dense_solve(bandwidth):
    rng = np.random.default_rng(8)
    B = rng.normal(size=(12, 12))
    M = np.tril(np.triu(B + B.T, -bandwidth), bandwidth) + 24.0 * np.eye(12)
    b = rng.normal(size=12)
    x = dpbtrs(_factor_spd(band_of(M, bandwidth), band=True), b, lower=1)[0]
    np.testing.assert_allclose(x, np.linalg.solve(M, b), rtol=1e-12)


def test_band_factor_regularizes_rank_deficient():
    # As test_solve_spd_regularizes_rank_deficient, on band storage; the
    # jitter goes onto the band's diagonal row and comes off again.
    v = np.array([1.0, 2.0, 3.0])
    M = np.outer(v, v)
    Mb = band_of(M, 2)
    assert _band_chol(Mb) is None
    b = M @ np.array([0.5, -1.0, 2.0])
    F = _factor_spd(Mb, band=True)
    assert F is not None
    np.testing.assert_array_equal(Mb, band_of(M, 2))
    x = dpbtrs(F, b, lower=1)[0]
    assert np.all(np.isfinite(x))
    np.testing.assert_allclose(M @ x, b, atol=1e-6)


def test_indefinite_band_matrix_has_no_factor():
    M = np.array([[2.0, 0.5, 0.0], [0.5, -1.0, 0.2], [0.0, 0.2, 3.0]])
    assert _band_chol(band_of(M, 1)) is None
    assert _factor_spd(band_of(M, 1), band=True) is None


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", [(1, 1), (2, 0)], ids=["diagonal", "off-diagonal"])
def test_non_finite_band_matrix_has_no_factor(where, value):
    M = random_pd(4, 10)
    M[where] = M[where[::-1]] = value
    assert _band_chol(band_of(M, 3)) is None
    assert _factor_spd(band_of(M, 3), band=True) is None


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
    # All three fall back to the default start, 0.1 I, so they take its path.
    default = solve(prob)
    for report in reports:
        assert report.status == "converged"
        assert report.iterations == default.iterations
        np.testing.assert_array_equal(report.W, default.W)
    X = polished_state(reports[0], prob.anchors)
    n = model.n_nodes
    V_est = X[:n] + 1j * X[n:]
    assert np.max(np.abs(np.abs(V_est) - np.abs(V))) < 1e-6


def test_repeated_solve_is_deterministic():
    # The term-side Gram reuses one buffer across iterations without
    # re-zeroing it; nothing may carry over from one solve into the next.
    model = netgen.model_from(netgen.chain_doc(6, seed=0))
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=1)
    meas = synthesize(
        model, mats, state_to_X(V), full_plan(model, mats), NoiseSpec(level=2, seed=0)
    )
    prob = assemble_problem(mats, meas, anchors=[0])
    assert _reduce(prob)[1]._term_side
    first, second = solve(prob), solve(prob)
    np.testing.assert_array_equal(first.W, second.W)
    assert first.objective == second.objective
    assert first.iterations == second.iterations
    assert first.status == second.status


def tree_problem(n, level, noise_seed):
    """The n-bus tree of the c05 study (``tree_doc(n, seed=7,
    trunk_bias=3)``, truth seed 100, magnitudes at every 25th bus from b0),
    one-sided plan without the tie flows, negate repair."""
    model = netgen.model_from(netgen.tree_doc(n, seed=7, trunk_bias=3))
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=100)
    vm = sorted({model.node_of(f"b{i}", "A") for i in range(0, n, 25)})
    meas = synthesize(
        model, mats, state_to_X(V), default_plan(model, mats, vm),
        NoiseSpec(level=level, seed=noise_seed),
    )
    meas, _ = repair_observability(model, mats, meas, "negate")
    return assemble_problem(mats, meas, anchors=[0])


def anchored_problem(anchors):
    """The 34-bus radial feeder with a zero-angle truth at every anchor, the
    one-sided plan, negate repair, L2.  With anchors 0 and 1 (a branch) and
    10 the clique cone has blocks with two pads, with one and with none, and
    separators at anchors."""
    model = netgen.model_from(netgen.tree_doc(34, seed=7, trunk_bias=3))
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=2)
    V[anchors] = np.abs(V[anchors])
    meas = synthesize(
        model, mats, state_to_X(V), default_plan(model, mats),
        NoiseSpec(level=2, seed=0),
    )
    meas, _ = repair_observability(model, mats, meas, "negate")
    return assemble_problem(mats, meas, anchors=anchors)


def test_reduce_drops_each_anchors_imaginary_index():
    prob = anchored_problem([0, 1, 10])
    n = prob.dim // 2
    keep, terms = _reduce(prob)
    drop = {n + a for a in prob.anchors}
    assert keep.dtype == np.intp
    np.testing.assert_array_equal(keep, [i for i in range(prob.dim) if i not in drop])
    assert terms.d == prob.dim - 3


def clique_cone(prob):
    """The problem's kept indices and its clique cone (``_cliques``)."""
    cone = _reduce(prob)
    op = _cliques([prob], [cone])
    assert op is not None
    return cone[0], op


@pytest.mark.parametrize("tol", [1e-9, 1e-2])
@pytest.mark.parametrize(
    "make",
    [
        lambda: radial_problem(2, 2, 0),
        lambda: tree_problem(102, 2, 1),
        lambda: anchored_problem([0, 1, 10]),
    ],
    ids=["tree34", "tree102", "tree34-3-anchors"],
)
def test_clique_cone_agrees_with_dense_cone(make, tol, monkeypatch):
    prob = make()
    config = SolverConfig(convergence_tol=tol)
    with monkeypatch.context() as patch:
        # No tree found: the problem takes the dense cone.
        patch.setattr(sdpse.solver, "_branch_cliques", lambda *args: None)
        dense = solve(prob, config)
    clique = solve(prob, config)
    assert (dense.blocks, clique.blocks) == (1, prob.dim // 2 - 1)
    assert clique.status == dense.status == "converged"
    np.testing.assert_allclose(
        polished_state(clique, prob.anchors), polished_state(dense, prob.anchors),
        rtol=0, atol=1e-9,
    )
    assert clique.objective == pytest.approx(dense.objective, rel=1e-9)
    for report in (dense, clique):
        assert report.dual_bound <= report.objective
    assert clique.dual_bound <= dense.objective
    # The report's W is the completion of the solved blocks: PSD, and its
    # clique blocks are the solved ones.  Not to the bit: at tol 1e-9 the
    # blocks are rank one to about 1e-10 and disagree on their separators
    # by the overlap rows' residual (about 5e-9 on the 102-bus tree), so no
    # PSD matrix has exactly these blocks; the completion moves them by up
    # to about 5e-6 there, well inside sqrt(residual) = 7e-5.
    keep, op = clique_cone(prob)
    w = 1.0 / prob.sigma**2
    blocks = _interior_point(op, w, prob.z, op.identity(0.1), tol)[0]
    X = clique.W[np.ix_(keep, keep)]
    np.testing.assert_array_equal(X, op.complete(blocks, op.parts[0]))
    vals = np.linalg.eigvalsh(X)
    assert vals[0] >= -1e-9 * vals[-1]
    np.testing.assert_allclose(
        op.restrict(X), blocks, rtol=0, atol=1e-4 * np.abs(blocks).max()
    )
    # The pads stay decoupled: in every block zero beside their diagonal,
    # which stays at the pinned 0.1 up to the hard rows' drift near a
    # rank-one optimum (measured up to 5e-7).
    pad = op._pad
    assert pad.sum(axis=1).max() == (2 if len(prob.anchors) > 1 else 1)
    beside = (pad[:, :, None] | pad[:, None, :]) & ~np.eye(4, dtype=bool)
    largest = np.abs(blocks).max(axis=(1, 2))
    assert (np.abs(np.where(beside, blocks, 0.0)).max(axis=(1, 2)) <= 1e-9 * largest).all()
    np.testing.assert_allclose(
        np.einsum("kii->ki", blocks)[pad], 0.1, rtol=0, atol=1e-6
    )


def test_clique_rule_sides():
    # Which cone each benchmark-shaped problem takes, so that a change to the
    # rule cannot move a workload across it unnoticed.
    loose = SolverConfig(convergence_tol=1e-2)
    # mono-radial: the 34-bus tree, one block per branch.
    assert solve(radial_problem(2, 2, 0), loose).blocks == 33
    # partitioned-feeder: the largest sub-network of the 96-bus tree split
    # into sub-networks of about 8 buses (9 buses, d = 17).
    model = netgen.model_from(netgen.tree_doc(96, seed=7, trunk_bias=3))
    largest = max(separate(model, detect_topology(model), 8).sub_networks, key=len)
    assert len(largest) == 9
    sub, _ = restrict(model, largest, head=largest[0])
    mats = build_matrix_set(sub)
    meas = synthesize(
        sub, mats, state_to_X(netgen.random_state(sub, seed=1)),
        full_plan(sub, mats), NoiseSpec(level=2, seed=0),
    )
    assert solve(assemble_problem(mats, meas, anchors=[0])).blocks == 1
    # baddata-sweep: the 10-bus chain with the full plan (d = 19).
    assert solve_chain(n=10)[4].blocks == 1
    # cli-multiphase: coupled phases, not a tree.
    multiphase = multiphase_problem()
    assert solve(multiphase).blocks == 1
    # A batch takes one forest of clique blocks when every problem is a
    # tree with an anchor and their reduced dimensions sum to at least
    # CLIQUE_MIN_DIM: partitioned-feeder's twelve sub-networks (d = 11 to
    # 17), and baddata-sweep's three combinations (3 x 19).
    problems = plan_problems(96, 8)
    assert [r.blocks for r in solve_many(problems, loose)] == [
        p.dim // 2 - 1 for p in problems
    ]
    chains = [solve_chain(n=10, seed=s)[3] for s in range(3)]
    assert [r.blocks for r in solve_many(chains, loose)] == [9, 9, 9]
    # Otherwise each problem is solved alone, on its own cone: a batch with
    # d summing to 38, one with a multiphase or a meshed part, one with a
    # start.
    assert [r.blocks for r in solve_many(chains[:2], loose)] == [1, 1]
    assert [r.blocks for r in solve_many(chains + [multiphase], loose)] == [1] * 4
    model = netgen.model_from(netgen.tree_doc(10, seed=5, meshed_extra=2))
    mats = build_matrix_set(model)
    meas = synthesize(
        model, mats, state_to_X(netgen.random_state(model, seed=1)),
        full_plan(model, mats), NoiseSpec(level=0, seed=0),
    )
    meshed = assemble_problem(mats, meas, anchors=[0])
    assert [r.blocks for r in solve_many(chains + [meshed], loose)] == [1] * 4
    started = SolverConfig(convergence_tol=1e-2, initial_W=np.eye(chains[0].dim))
    assert [r.blocks for r in solve_many(chains, started)] == [1, 1, 1]


def multiphase_problem():
    """The multiphase head with its full plan at L2."""
    model = netgen.model_from(multiphase_head_doc())
    mats = build_matrix_set(model)
    meas = synthesize(
        model, mats, state_to_X(netgen.random_state(model, seed=2)),
        full_plan(model, mats), NoiseSpec(level=2, seed=0),
    )
    return assemble_problem(mats, meas, anchors=[0])


def plan_problems(n, size, vmag_buses=(0,)):
    """The sub-network problems of ``netgen.anchored_plan_case(n, size,
    vmag_buses)`` at L2, prepared as ``estimate_decoupled`` prepares them."""
    model, _, meas, plan = netgen.anchored_plan_case(n, size, vmag_buses)
    return [problem for problem, _, _, _ in _prepare_plan(model, meas, plan, "negate")]


def assert_same_report(report, reference):
    for field in dataclasses.fields(SolveReport):
        a, b = getattr(report, field.name), getattr(reference, field.name)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b or (a != a and b != b), field.name


@pytest.mark.parametrize(
    "make, blocks",
    [(lambda: radial_problem(2, 2, 0), 33), (multiphase_problem, 1)],
    ids=["tree34", "multiphase-head"],
)
def test_batch_of_one_is_solve(make, blocks):
    # One problem takes the same rule's cone in both entries: the clique
    # cone of the 34-bus tree, the dense cone of the multiphase head.
    prob = make()
    report = solve(prob)
    assert report.blocks == blocks
    assert_same_report(solve_many([prob])[0], report)


@pytest.mark.parametrize("tol", [1e-9, 1e-2])
@pytest.mark.parametrize(
    "n, size, vmag_buses",
    [(96, 8, (0,)), (102, 34, (0, 25, 50, 75, 100))],
    ids=["partitioned-feeder", "c06"],
)
def test_batch_agrees_with_solo_solves(n, size, vmag_buses, tol):
    # The partitioned-feeder plan (12 sub-networks, d = 11 to 17, each on
    # the dense cone alone) and the c06 plan (3 sub-networks, d = 65 to 69,
    # each on the clique cone alone), solved as one forest.
    problems = plan_problems(n, size, vmag_buses)
    config = SolverConfig(convergence_tol=tol)
    batch = solve_many(problems, config)
    assert len({r.iterations for r in batch}) == 1
    for prob, joint in zip(problems, batch):
        alone = solve(prob, config)
        if alone.status == "numerical_failure":
            # ROADMAP item 1: at tol 1e-9 the solo solve of c06's first
            # sub-network fails near its rank-one optimum, where the joint
            # loop converges; it is held to the solve at tol 1e-7 instead.
            alone = solve(prob, SolverConfig(convergence_tol=1e-7))
        assert joint.status == alone.status == "converged"
        assert joint.blocks == prob.dim // 2 - 1
        np.testing.assert_allclose(
            polished_state(joint, prob.anchors), polished_state(alone, prob.anchors),
            rtol=0, atol=1e-9,
        )
        assert joint.objective == pytest.approx(alone.objective, rel=1e-9)
        assert joint.dual_bound <= joint.objective


def test_primal_residual_is_reported():
    # The largest |Rp| at the returned iterate over the problem's own rows.
    # On the clique cone those include the hard rows, whose b - B(W) the
    # solved blocks give.  Near a rank-one optimum it grows well above the
    # rounding of z: about 1e-8 on the 34-bus tree at tol 1e-9, 4e-6 with
    # that tree's full plan at L0.
    prob = radial_problem(2, 2, 0)
    _, op = clique_cone(prob)
    W = _interior_point(op, 1.0 / prob.sigma**2, prob.z, op.identity(0.1), 1e-9)[0]
    report = solve(prob)
    hard = np.abs(op.b - op.values(W)[op.m:]).max()
    assert 0.0 < hard <= report.primal_residual < 1e-6
    # The dense cone has readings only; a batch reports each part's own.
    assert 0.0 < solve(multiphase_problem()).primal_residual < 1e-5
    residuals = [r.primal_residual for r in solve_many(plan_problems(96, 8))]
    assert max(residuals) < 1e-6
    assert len(set(residuals)) == len(residuals)


def test_batch_falls_back_to_solo_solves_on_joint_failure(monkeypatch):
    # A numerical failure of the joint loop hands every part to ``solve``,
    # so each report is the part's own, bit for bit.
    problems = plan_problems(96, 8)
    config = SolverConfig()
    alone = [solve(prob, config) for prob in problems]
    joint_calls = []
    linearize = sdpse.solver._linearize

    def failing(op, *args):
        if len(op.parts) > 1:
            joint_calls.append(op)
            return None
        return linearize(op, *args)

    monkeypatch.setattr(sdpse.solver, "_linearize", failing)
    batch = solve_many(problems, config)
    assert len(joint_calls) == 1
    for report, reference in zip(batch, alone):
        assert_same_report(report, reference)


def test_clique_rule_threshold():
    # One anchor on an n-bus tree leaves d = 2 n - 1; the clique cone takes
    # over at d >= CLIQUE_MIN_DIM, and never on a meshed network.
    below, above = CLIQUE_MIN_DIM // 2, (CLIQUE_MIN_DIM + 2) // 2
    for n, meshed, blocks in ((below, 0, 1), (above, 0, above - 1), (above, 2, 1)):
        model = netgen.model_from(netgen.tree_doc(n, seed=5, meshed_extra=meshed))
        mats = build_matrix_set(model)
        meas = synthesize(
            model, mats, state_to_X(netgen.random_state(model, seed=1)),
            full_plan(model, mats), NoiseSpec(level=0, seed=0),
        )
        report = solve(assemble_problem(mats, meas, anchors=[0]))
        assert report.status == "converged"
        assert report.blocks == blocks


def test_clique_schur_band_matches_dense_reference(monkeypatch):
    # At a mid-run iterate of the 34-bus tree, the band-stored Schur matrix
    # against sum_K Tr(C_i^K W_K C_j^K W_K) from the dense 4 x 4
    # coefficient matrix of every row on every block, and its banded solve
    # against a dense one.
    prob = radial_problem(2, 2, 0)
    _, op = clique_cone(prob)
    w = 1.0 / prob.sigma**2
    monkeypatch.setattr(sdpse.solver, "MAX_ITERATIONS", 8)
    W = _interior_point(op, w, prob.z, op.identity(0.1), 1e-9)[0]
    N, m, bw = op.n_rows, len(w), op.bandwidth
    C = np.zeros((N, op.blocks * 16))
    np.add.at(C, (op.row, op.flat), op.c)
    CW = C.reshape(N, op.blocks, 4, 4) @ W
    ref = np.einsum("ikab,jkba->ij", CW, CW)
    band = op.gram(W, None)
    assert band.shape == (bw + 1, N)
    assert bw == 18
    # Expanded: the band in RCM order, mirrored, then put back in row order.
    Gp = np.zeros((N, N))
    for k in range(bw + 1):
        j = np.arange(N - k)
        Gp[j + k, j] = band[k, : N - k]
    Gp += np.tril(Gp, -1).T
    G = np.empty((N, N))
    G[np.ix_(op._perm, op._perm)] = Gp
    np.testing.assert_allclose(G, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    # With Sigma/2 on the readings' rows the matrix's condition number is
    # about 3e10 here, so the two solves agree to about that times the
    # rounding, against the largest entry (measured 7e-8).
    rhs = np.random.default_rng(3).normal(size=N)
    x = op.solve_schur(op.factor_schur(band, 0.5 / w), rhs)
    ref[np.arange(m), np.arange(m)] += 0.5 / w
    x_ref = np.linalg.solve(ref, rhs)
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-6 * np.abs(x_ref).max())


def test_clique_schur_storage_at_1000_buses():
    # N = m + h = 6034 rows; the RCM band is 42 wide, so the Schur storage
    # is 43 x 6034, not 6034 x 6034.  Construction only.
    prob = tree_problem(1000, 2, 0)
    _, op = clique_cone(prob)
    assert (op.blocks, op.n_rows) == (999, 6034)
    assert op.bandwidth <= 64
    assert op.gram(op.identity(0.1), None).shape == (op.bandwidth + 1, op.n_rows)


def test_clique_solve_at_400_buses():
    # The 400-bus tree: about half a second on one core.
    report = solve(tree_problem(400, 2, 0), SolverConfig(convergence_tol=1e-2))
    assert report.blocks == 399
    assert report.status == "converged"
    assert report.dual_bound <= report.objective


@pytest.mark.parametrize(
    "doc", [lambda: netgen.chain_doc(6, seed=4), multiphase_head_doc],
    ids=["chain6-full", "multiphase-head-full"],
)
def test_dense_cone_ignores_reading_order(doc):
    # Permuting the readings permutes the rows of A: G permutes with them,
    # and the polished state does not move.
    model = netgen.model_from(doc())
    mats = build_matrix_set(model)
    meas = synthesize(
        model, mats, state_to_X(netgen.random_state(model, seed=2)),
        full_plan(model, mats), NoiseSpec(level=2, seed=0),
    )
    order = np.random.default_rng(13).permutation(len(meas))
    prob = assemble_problem(mats, meas, anchors=[0])
    prob2 = assemble_problem(mats, [meas[i] for i in order], anchors=[0])
    terms, terms2 = _reduce(prob)[1], _reduce(prob2)[1]
    W = random_pd(terms.d, 3)
    L = _chol(W)
    G = terms.gram(W, L)
    np.testing.assert_allclose(
        terms2.gram(W, L), G[np.ix_(order, order)], rtol=0, atol=1e-12 * np.abs(G).max()
    )
    report, report2 = solve(prob), solve(prob2)
    assert report.blocks == report2.blocks == 1
    assert report.status == report2.status == "converged"
    np.testing.assert_allclose(
        polished_state(report2, prob.anchors), polished_state(report, prob.anchors),
        rtol=0, atol=1e-8,
    )


@pytest.mark.parametrize("tol", [1e-9, 1e-2])
def test_clique_solve_ignores_labels_and_reading_order(tol):
    # The clique tree is built breadth-first by node number; relabelling
    # the buses and reordering the readings changes that order (and which
    # child clique of the anchor comes first), not the state.
    doc = netgen.tree_doc(34, seed=7, trunk_bias=3)
    model = netgen.model_from(doc)
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=2)
    meas = synthesize(
        model, mats, state_to_X(V), default_plan(model, mats),
        NoiseSpec(level=2, seed=0),
    )
    meas, _ = repair_observability(model, mats, meas, "negate")
    rng = np.random.default_rng(11)
    order = rng.permutation(len(doc["buses"]))
    model2 = netgen.model_from(dict(doc, buses=[doc["buses"][i] for i in order]))
    new = np.array([model2.node_of(nd.bus, nd.phase) for nd in model.nodes])
    assert not np.array_equal(new, np.arange(len(new)))
    meas2 = [
        Measurement(
            kind=m.kind,
            node=int(new[m.node]),
            far_node=None if m.far_node is None else int(new[m.far_node]),
            value=m.value,
            sigma=m.sigma,
            provenance=m.provenance,
        )
        for m in (meas[i] for i in rng.permutation(len(meas)))
    ]
    config = SolverConfig(convergence_tol=tol)
    prob = assemble_problem(mats, meas, anchors=[0])
    prob2 = assemble_problem(build_matrix_set(model2), meas2, anchors=[int(new[0])])
    report, report2 = solve(prob, config), solve(prob2, config)
    assert report.blocks == report2.blocks == 33
    assert report.status == report2.status == "converged"
    n = model.n_nodes
    X = polished_state(report, prob.anchors)
    X2 = polished_state(report2, prob2.anchors)
    np.testing.assert_allclose(X2[np.concatenate([new, n + new])], X, rtol=0, atol=1e-9)
    assert report2.objective == pytest.approx(report.objective, rel=1e-9)
