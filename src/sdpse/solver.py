"""Embedded solver for the relaxed estimation problem.

Primal-dual interior-point method on

    minimize  sum_i w_i r_i^2   subject to   r + A(W) = z,   W PSD,

with w_i = 1/sigma_i^2, A(W)_i = Tr(A_i W) and W on the anchored subspace
(anchored rows/columns eliminated).  The iterate is (W, S, r): S is the dual
slack and the multiplier lambda = 2 w o r is implied by r, so its
stationarity residual is exactly zero.  The residuals left are the primal
``Rp = z - r - A(W)`` and the dual ``Rd = S + A^*(2 w o r)``.

Each iteration takes the Nesterov-Todd direction (Todd, Toh & Tutuncu, SIAM
J. Optim. 8, 1998) with Mehrotra's predictor-corrector (SIAM J. Optim. 2,
1992).  With W = L L^T and ``L^T S L = V Lam^2 V^T``, the scaling matrix is
``R = L V Lam^-1/2``: ``What = R R^T`` satisfies ``What S What = W``, and
``R^T S R = R^-1 W R^-T = Lam``.  For a scaled complementarity right-hand
side K the Newton equations reduce to the m x m system

    (G + Sigma/2) dlam = Rp - A(R (K + R^T Rd R) R^T),

G[i, j] = Tr(A_i What A_j What) and Sigma the reading variances, followed by
``dS = -A^*(dlam) - Rd``, ``dW = R (K - R^T dS R) R^T`` and ``dr = Sigma
dlam / 2``.  One factorization of that system serves the predictor (K =
-Lam) and the corrector (K from sigma mu I - Lam^2 minus the predictor's
second-order term, sigma = (mu_aff/mu)^3).  Both directions step 0.99 of the
way to the boundary of the cone, at most 1, with one step length for W, S
and r; the boundary comes from the smallest eigenvalues of the scaled steps.
The solve stops once the measured gap <W, S> is below the convergence
tolerance relative to the objective and the dual residual is small against S.

The Gram matrix G is built from a support-row table: one sparse row per
measurement i and index a whose row of A_i is nonzero (ns rows in all), so
one product with the table gives every nonzero row of every A_i What or
A_i R.  When m d^2 <= ns^2 (d the reduced dimension) G is the Gram matrix of
the symmetric d x d matrices R^T A_i R, each packed to its upper triangle;
otherwise G sums the ns x ns Hadamard product K o K^T, with K = (M What)
restricted to the support indices, over the owners of its rows.  Both are
exact; the rule only picks the smaller amount of work.  The term products
are ``np.bincount`` sums over the row-sorted term table, and the factor
and solves call LAPACK's ``dpotrf``/``dpotrs`` directly, reading ``info``.

At an iterate whose dual residual meets the stopping rule, lambda = 2 w o r
gives the dual bound ``lambda . z - sum_i lambda_i^2 / (4 w_i)`` whenever
``-A^*(lambda)`` is PSD (checked by a Cholesky factorization): no W in the
cone fits better, so it certifies how far the relaxed objective is from its
optimum.  The best such bound is reported.

A rank-one Gauss-Newton refinement runs afterwards: the leading eigenvector
x_e of the interior-point solution seeds a Levenberg-Marquardt descent on
the unlifted state, which tightens consistent problems down to machine
precision.  LM only accepts descending steps, so the refined state's misfit
is at most that of x_e x_e^T, and it is always returned.  The relaxed
objective is no yardstick for it: it is a lower bound on every rank-one
misfit.  How far the interior-point solution is from rank one is reported
all the same, as the ratio lambda2/lambda1 of its two leading eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs, dstebz, dsyevd, dsytrd

from .errors import ValidationError

if TYPE_CHECKING:
    from .problem import SdpProblem


@dataclass
class SolverConfig:
    max_iterations: int = 200
    convergence_tol: float = 1e-9
    initial_W: Union[str, np.ndarray] = "identity_scaled"
    polish: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not (self.convergence_tol > 0):
            raise ValidationError("convergence_tol must be positive")


@dataclass
class SolveReport:
    W: np.ndarray  # X X^T of polished_X when polished, else the relaxed solution
    objective: float  # weighted misfit of the returned W
    iterations: int  # interior-point iterations taken
    status: str  # converged | max_iter | numerical_failure
    # The refined rank-one state; None when the polish is off, the solve
    # failed or its solution has no positive eigenvalue.
    polished_X: Optional[np.ndarray] = None
    # lambda2/lambda1 of the relaxed solution, polished or not; NaN when that
    # has no positive eigenvalue or the solve failed.
    rank1_ratio_raw: float = float("nan")
    # Lower bound on the relaxed objective, and so on every rank-one misfit:
    # the best over the dual-feasible iterates whose -A^*(lambda) has a
    # Cholesky factor; NaN when none has, so no bound is certified.
    dual_bound: float = float("nan")


class _Terms:
    """Flattened sparse terms of all coefficient matrices on the reduced
    (anchor-eliminated) index set.

    The Gram matrix ``G[i, j] = Tr(A_i W A_j W)`` is built from a support-row
    table: one row r = (i, a) per measurement i and index a whose row of A_i
    is nonzero, with ``M[r] = A_i[a]`` (sparse, ns x d), owner ``own[r] = i``
    and index ``sup[r] = a``.  ``M @ X`` then holds every nonzero row of
    every ``A_i X``.  Two exact ways finish the sum; the one with less work is
    fixed per solve:

    * dense side, when m d^2 <= ns^2: with W = L L^T,
      ``G[i, j] = <L^T A_i L, L^T A_j L>``.  ``Q = M @ L`` is scattered into
      a (d, m, d) buffer F with ``F[a, i] = (A_i L)[a]`` (its nonzero
      positions never change, so it is allocated once and never re-zeroed),
      one product ``L^T @ F`` gives every ``L^T A_i L``, and their upper
      triangles, off-diagonal entries weighted by sqrt(2), are packed into
      the columns of P, so that ``G = P^T P`` (exactly symmetric);
    * support-row side, otherwise: with ``Q = M @ W`` and
      ``Q[r, b] = (A_i W)[a, b]``,

          G[i, j] = sum over r = (i, a), t = (j, b) of Q[r, b] * Q[t, a],

      taken as ``K = Q[:, sup]`` (ns x ns) and
      ``G = Sel (K o K^T) Sel^T``, Sel the m x ns owner selector.
    """

    def __init__(self, problem: SdpProblem, keep: np.ndarray):
        pos = -np.ones(problem.dim, dtype=np.intp)
        pos[keep] = np.arange(len(keep))
        row, p, q, c = problem.matrix_set.terms(problem.rows)
        p = pos[p]
        q = pos[q]
        ok = (p >= 0) & (q >= 0)
        self.m = m = problem.n_measurements
        self.d = d = len(keep)
        self.row = row[ok]
        self.p = p[ok]
        self.q = q[ok]
        self.c = c[ok]
        self.n_terms = len(self.c)
        # Flat position of each term in a d x d matrix.  The terms are sorted
        # by row, so the bincount sums below run in the order of a CSR
        # mat-vec.
        self.pq = self.p * d + self.q
        # Support-row table.  Terms are sorted by (row, p, q), so each
        # (row, p) pair is one contiguous run, already in CSR order.
        starts = np.flatnonzero(np.diff(self.row * d + self.p, prepend=-1))
        ns = len(starts)
        self.own = self.row[starts]
        self.sup = self.p[starts]
        indptr = np.append(starts, self.n_terms)
        self.M = sp.csr_matrix((self.c, self.q, indptr), shape=(ns, d))
        if m * d * d <= ns * ns:
            self._F = np.zeros((d, m, d))
            self._iu, self._ju = np.triu_indices(d)
            self._pack_w = np.where(self._iu == self._ju, 1.0, np.sqrt(2.0))[:, None]
        else:
            self._F = None
            self.Sel = sp.csr_matrix(
                (np.ones(ns), (self.own, np.arange(ns))), shape=(m, ns)
            )

    def values(self, W: np.ndarray) -> np.ndarray:
        """Tr(A_i W) for all i."""
        return np.bincount(self.row, self.c * W.take(self.pq), minlength=self.m)

    def accumulate(self, weights: np.ndarray) -> np.ndarray:
        """Dense sum_i weights_i A_i."""
        d = self.d
        out = np.bincount(self.pq, weights[self.row] * self.c, minlength=d * d)
        return out.reshape(d, d)

    def gram(self, W: np.ndarray, L: np.ndarray) -> np.ndarray:
        """G[i, j] = Tr(A_i W A_j W), given W and a square factor L with
        W = L L^T."""
        if self._F is not None:
            m, d = self.m, self.d
            self._F[self.sup, self.own] = self.M @ L
            B = (L.T @ self._F.reshape(d, m * d)).reshape(d, m, d)
            P = B[self._iu, :, self._ju]
            P *= self._pack_w
            return P.T @ P
        K = (self.M @ W)[:, self.sup]
        return self.Sel @ (self.Sel @ (K * K.T)).T

    def quad_values(self, X: np.ndarray) -> np.ndarray:
        """X^T A_i X for all i."""
        return np.bincount(
            self.row, self.c * (X[self.p] * X[self.q]), minlength=self.m
        )

    def jac_rows(self, X: np.ndarray) -> np.ndarray:
        """Rows A_i X stacked into an m x d matrix."""
        out = np.zeros((self.m, self.d))
        out[self.own, self.sup] = self.M @ X
        return out


def _chol(M: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factor L of M, its upper triangle zero; None when M is
    not numerically positive definite or not finite.

    This is LAPACK's ``dpotrf``; OpenBLAS's build tests a pivot only for
    ``<= 0``, so a NaN in the lower triangle passes with ``info == 0``.  It
    always reaches the factor's diagonal, which is checked instead."""
    L, info = dpotrf(M, lower=1, clean=1)
    if info != 0 or not np.isfinite(L.diagonal()).all():
        return None
    return L


def _factor_spd(M: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factor of an SPD matrix, for ``dpotrs``, with
    escalating diagonal regularization on failure; None when even that fails.

    When M has no factor, up to seven retries add a jitter growing from
    1e-14 of M's mean diagonal (at least 1e-14) by 100x each to a copy's
    diagonal."""
    L = _chol(M)
    if L is None:
        n = len(M)
        jitter = 1e-14 * max(np.trace(M) / max(n, 1), 1.0)
        Mj = M.copy()
        diag = M.diagonal()
        for _ in range(7):
            Mj.flat[:: n + 1] = diag + jitter
            L = _chol(Mj)
            if L is not None:
                break
            jitter *= 100.0
    return L


Direction = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _linearize(
    terms: _Terms,
    w: np.ndarray,
    W: np.ndarray,
    S: np.ndarray,
    Rp: np.ndarray,
    Rd: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray, Callable[..., Direction]]]:
    """NT scaling at (W, S) and the Newton direction of the residuals
    ``Rp = z - r - A(W)`` and ``Rd = S + A^*(2 w o r)``.

    Returns R and lam, with ``R R^T S R R^T = W`` and ``R^T S R = R^-1 W R^-T
    = diag(lam)``, and ``direction(K, AK=None)``: the step (dWt, dSt, dS, dr)
    that solves the linearized equations ``dr + A(dW) = Rp``, ``dS + A^*(2 w
    o dr) = -Rd`` and ``dWt + dSt = K``, where ``dWt = R^-1 dW R^-T`` and
    ``dSt = R^T dS R`` are the scaled steps (so ``dW = R dWt R^T``); AK is
    ``A(R K R^T)`` when the caller has it.  None when W or S is not
    numerically positive definite, or the Schur matrix has no factor even
    regularized."""
    L = _chol(W)
    if L is None:
        return None
    vals, V, info = dsyevd(L.T @ S @ L, compute_v=1, lower=1, overwrite_a=1)
    if info != 0 or not vals[0] > 0:
        return None
    lam = np.sqrt(vals)
    R = L @ (V / np.sqrt(lam))
    Wh = R @ R.T
    G = terms.gram(Wh, R)
    G.flat[:: terms.m + 1] += 0.5 / w
    F = _factor_spd(G)
    if F is None:
        return None
    rhs0 = Rp - terms.values(Wh @ Rd @ Wh)

    def direction(K: np.ndarray, AK: Optional[np.ndarray] = None) -> Direction:
        if AK is None:
            AK = terms.values(R @ K @ R.T)
        dlam = dpotrs(F, rhs0 - AK, lower=1)[0]
        dS = -terms.accumulate(dlam) - Rd
        dSt = R.T @ dS @ R
        return K - dSt, dSt, dS, 0.5 * dlam / w

    return R, lam, direction


def _eigs(D: np.ndarray, *ranks: int) -> List[float]:
    """Eigenvalues of the symmetric D (lower triangle read, overwritten) at
    the given ranks, 1 the smallest: one tridiagonal reduction (``dsytrd``),
    then bisection (``dstebz``) for each."""
    if len(D) == 1:
        return [float(D[0, 0])] * len(ranks)
    _, diag, off, _, _ = dsytrd(D, lower=1, overwrite_a=1)
    out = []
    for k in ranks:
        _, e, _, _, info = dstebz(diag, off, 3, 0.0, 0.0, k, k, 0.0, "E")
        out.append(float(e[0]) if info == 0 else float("nan"))
    return out


def _step_length(*lowest: float) -> float:
    """0.99 of the largest t with 1 + t e >= 0 for every e in ``lowest``, at
    most 1.  With e the smallest eigenvalues of the scaled steps
    ``Lam^-1/2 dWt Lam^-1/2`` and ``Lam^-1/2 dSt Lam^-1/2``, that is 0.99 of
    the distance to the boundary of the cone."""
    t = 1.0
    for e in lowest:
        if e < 0:
            t = min(t, -0.99 / e)
    return t


def _dual_bound(terms: _Terms, w: np.ndarray, z: np.ndarray, r: np.ndarray) -> float:
    """``lambda . z - sum_i lambda_i^2 / (4 w_i)`` for lambda = 2 w o r, which
    equals ``(w o r) . (2 z - r)``, when ``-A^*(lambda)`` has a Cholesky
    factor, else NaN.  For every PSD W, ``sum_i w_i (z - A(W))_i^2 >=
    lambda . (z - A(W)) - sum_i lambda_i^2 / (4 w_i)`` and ``-lambda . A(W)
    = <-A^*(lambda), W> >= 0``, so no W fits better than the bound."""
    if _chol(-terms.accumulate(2.0 * w * r)) is None:
        return float("nan")
    return float(np.dot(w * r, 2.0 * z - r))


def solve(problem: SdpProblem, config: Optional[SolverConfig] = None) -> SolveReport:
    if config is None:
        config = SolverConfig()
    dim = problem.dim
    n = dim // 2
    drop = set(n + a for a in problem.anchors)
    keep = np.array([i for i in range(dim) if i not in drop], dtype=np.intp)
    terms = _Terms(problem, keep)
    d = terms.d
    w = 1.0 / (problem.sigma * problem.sigma)
    z = problem.z
    tol = config.convergence_tol

    def objective(Wm: np.ndarray) -> float:
        res = z - terms.values(Wm)
        return float(np.dot(w, res * res))

    if isinstance(config.initial_W, np.ndarray):
        W = np.array(config.initial_W[np.ix_(keep, keep)], dtype=float)
        if _chol(W + 1e-12 * np.eye(d)) is None:
            W = np.eye(d)
        else:
            W = W + 1e-8 * np.eye(d)
    else:
        # Ten times the best multiple of the identity in the least-squares
        # sense: the objective is quadratic in the scale, so the minimizer is
        # closed form.  This matters when measurement weights are large; a
        # plain identity start can sit many orders of magnitude off.
        a = terms.values(np.eye(d))
        denom = float(np.dot(w * a, a))
        alpha = float(np.dot(w * z, a)) / denom if denom > 0 else 1.0
        W = 10.0 * max(alpha, 1e-6) * np.eye(d)
    # A centered start: S a multiple of I with <W, S> = f(W), and r primal
    # feasible.
    S = (objective(W) / np.trace(W)) * np.eye(d)
    r = z - terms.values(W)
    iterations = 0
    status = "converged"
    dual_bound = float("nan")

    while True:
        AW = terms.values(W)
        res = z - AW
        Rd = S + terms.accumulate(2.0 * w * r)
        dual_feasible = np.linalg.norm(Rd) <= tol * max(1.0, float(np.linalg.norm(S)))
        # At the last iterates S's smallest eigenvalues sink to rounding
        # against its largest, so the final one alone can fail the
        # certificate: the best bound over the dual-feasible iterates is kept.
        if dual_feasible:
            dual_bound = float(np.fmax(dual_bound, _dual_bound(terms, w, z, r)))
        # Converged: the measured gap <W, S> is small against the misfit (or,
        # on a near-exact fit, against 1e-2 tol per dimension).
        if dual_feasible and float(np.vdot(W, S)) <= max(
            tol * float(np.dot(w, res * res)), 1e-2 * tol * d
        ):
            break
        if iterations >= config.max_iterations:
            status = "max_iter"
            break
        lin = _linearize(terms, w, W, S, res - r, Rd)
        if lin is None:
            status = "numerical_failure"
            break
        R, lam, direction = lin
        mu = float(np.dot(lam, lam)) / d
        s = 1.0 / np.sqrt(lam)
        s = s[:, None] * s
        # Predictor: the affine-scaling direction, K = -Lam, for which
        # R K R^T = -W.  Its scaled W step is -Lam minus its scaled S step,
        # so one spectrum gives both distances to the boundary.
        Lam = np.diag(lam)
        dWa, dSa, _, _ = direction(-Lam, -AW)
        lo, hi = _eigs(dSa * s, 1, d)
        t = _step_length(lo, -1.0 - hi)
        mu_aff = float(np.vdot(Lam + t * dWa, Lam + t * dSa)) / d
        # Capped at 1: while the residuals are large, <dWa, dSa> can be
        # positive enough for mu_aff to exceed mu.
        sigma = min((mu_aff / mu) ** 3, 1.0)
        # Corrector: aim at sigma mu on the central path, with the
        # predictor's second-order term.
        C = dWa @ dSa
        C = -0.5 * (C + C.T)
        C.flat[:: d + 1] += sigma * mu - lam * lam
        dWt, dSt, dS, dr = direction(2.0 * C / (lam[:, None] + lam))
        t = _step_length(_eigs(dWt * s, 1)[0], _eigs(dSt * s, 1)[0])
        dW = R @ dWt @ R.T
        W = W + (0.5 * t) * (dW + dW.T)
        S = S + t * dS
        r = r + t * dr
        iterations += 1

    obj_out = objective(W)
    polished_X = None
    ratio_raw = float("nan")
    if status != "numerical_failure":
        vals, vecs = np.linalg.eigh(W)
        lam1 = vals[-1]
        if lam1 > 0:
            ratio_raw = (max(vals[-2], 0.0) if d > 1 else 0.0) / lam1
            if config.polish:
                polished_X, obj_out = _polish(terms, z, w, np.sqrt(lam1) * vecs[:, -1])
                W = np.outer(polished_X, polished_X)

    W_full = np.zeros((dim, dim))
    W_full[np.ix_(keep, keep)] = W
    X_full = None
    if polished_X is not None:
        X_full = np.zeros(dim)
        X_full[keep] = polished_X
    return SolveReport(
        W=W_full,
        objective=obj_out,
        iterations=iterations,
        status=status,
        polished_X=X_full,
        rank1_ratio_raw=ratio_raw,
        dual_bound=dual_bound,
    )


def _polish(
    terms: _Terms, z: np.ndarray, w: np.ndarray, X: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Levenberg-Marquardt on the unlifted state from the seed X (the relaxed
    solution's leading eigenvector state).  Only descending steps are taken,
    so the result fits no worse than X X^T.  Returns the refined state and its
    objective."""
    sw = np.sqrt(w)

    def obj_of(Xc: np.ndarray) -> float:
        r = z - terms.quad_values(Xc)
        return float(np.dot(w, r * r))

    lam = 1e-8
    fx = obj_of(X)
    for _ in range(60):
        r = z - terms.quad_values(X)
        J = -2.0 * terms.jac_rows(X)
        Jw = sw[:, None] * J
        g = Jw.T @ (sw * r)
        H = Jw.T @ Jw
        F = _factor_spd(H + lam * np.eye(len(X)))
        if F is None:
            break
        step = dpotrs(F, -g, lower=1)[0]
        Xn = X + step
        fn = obj_of(Xn)
        if fn < fx:
            X, fx = Xn, fn
            lam = max(lam * 0.3, 1e-14)
            if fx < 1e-30 or float(np.linalg.norm(step)) < 1e-14:
                break
        else:
            lam *= 10.0
            if lam > 1e8:
                break
    return X, fx
