"""Embedded solver for the relaxed estimation problem.

Primal barrier Newton method on

    f_mu(W) = sum_i (z_i - Tr(A_i W))^2 / sigma_i^2  -  mu * logdet(W)

over the anchored subspace (anchored rows/columns eliminated), with mu driven
geometrically toward zero.  The Newton step is computed through a
matrix-inversion-lemma reformulation that only needs an m x m factorization
(m = number of measurements) plus products against the sparse coefficient
terms, never a dense Hessian over matrix space.

That m x m system is the Gram matrix G[i, j] = Tr(A_i W A_j W).  It is built
from a support-row table: one sparse row per measurement i and index a whose
row of A_i is nonzero (ns rows in all), so one product with the table gives
every nonzero row of every A_i W or A_i L.  When m d^2 <= ns^2 (d the reduced
dimension) G is the Gram matrix of the symmetric d x d matrices L^T A_i L,
W = L L^T, each packed to its upper triangle; otherwise G sums the ns x ns
Hadamard product K o K^T, with K = (M W) restricted to the support indices,
over the owners of its rows.  Both are exact; the rule only picks the
smaller amount of work.

Each barrier iteration is a handful of library calls, so their number sets
the cost on small sub-networks.  One LAPACK Cholesky factor L per accepted
iterate serves every use of W inside the iteration: its logdet, W^-1 (from
``dpotri``) and the dense-side Gram.  The line search factors each trial
point, and the accepted one's factor is carried into the next iteration
instead of factoring W again.  The term products are ``np.bincount`` sums
over the row-sorted term table, and the Schur solve calls LAPACK's
``dpotrf``/``dpotrs`` directly, reading ``info``.

A rank-one Gauss-Newton refinement runs afterwards: the leading eigenvector
of the barrier solution seeds a Levenberg-Marquardt descent on the unlifted
state, which tightens consistent problems down to machine precision.  The
refined point is kept only when it strictly improves the objective, so
ill-posed problems keep the (honestly bad) barrier solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

from .errors import ValidationError

if TYPE_CHECKING:
    from .problem import SdpProblem


@dataclass
class SolverConfig:
    max_iterations: int = 200
    convergence_tol: float = 1e-9
    barrier_reduction: float = 0.2
    initial_W: Union[str, np.ndarray] = "identity_scaled"
    polish: bool = True
    mu_initial: float = 1.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not (self.convergence_tol > 0):
            raise ValidationError("convergence_tol must be positive")
        if not (0.0 < self.barrier_reduction < 1.0):
            raise ValidationError("barrier_reduction must be in (0, 1)")


@dataclass
class SolveReport:
    W: np.ndarray
    objective: float
    iterations: int
    status: str  # converged | max_iter | numerical_failure
    polished_X: Optional[np.ndarray] = None
    rank1_ratio_raw: float = float("nan")


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
        """G[i, j] = Tr(A_i W A_j W), given W and its lower Cholesky factor L
        (upper triangle zero)."""
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


def _chol(M: np.ndarray) -> Optional[Tuple[np.ndarray, float]]:
    """Lower Cholesky factor L of M, its upper triangle zero, and logdet(M);
    None when M is not numerically positive definite or not finite.

    This is LAPACK's ``dpotrf``; OpenBLAS's build tests a pivot only for
    ``<= 0``, so a NaN in the lower triangle passes with ``info == 0``.  It
    always reaches the factor's diagonal, and so the logdet, which is
    checked instead."""
    L, info = dpotrf(M, lower=1, clean=1)
    if info != 0:
        return None
    logdet = 2.0 * float(np.sum(np.log(L.diagonal())))
    return (L, logdet) if np.isfinite(logdet) else None


def _inv_from_factor(L: np.ndarray) -> np.ndarray:
    """M^-1 from the factor ``_chol`` returns, exactly symmetric.  ``dpotri``
    writes the lower triangle and leaves the (zero) upper one alone."""
    inv = dpotri(L, lower=1)[0]
    inv += np.tril(inv, -1).T
    return inv


def _solve_spd(M: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """SPD solve with escalating diagonal regularization on failure.

    In the barrier this factors the m x m Schur matrix, once per iteration.
    When M has no factor, up to seven retries add a jitter growing from
    1e-14 of M's mean diagonal (at least 1e-14) by 100x each to a copy's
    diagonal."""
    fac = _chol(M)
    if fac is None:
        n = len(M)
        jitter = 1e-14 * max(np.trace(M) / max(n, 1), 1.0)
        Mj = M.copy()
        diag = M.diagonal()
        for _ in range(7):
            Mj.flat[:: n + 1] = diag + jitter
            fac = _chol(Mj)
            if fac is not None:
                break
            jitter *= 100.0
        else:
            return None
    return dpotrs(fac[0], b, lower=1)[0]


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
        # Best multiple of the identity in the least-squares sense: the
        # objective is quadratic in the scale, so the minimizer is closed
        # form.  This matters when measurement weights are large; a plain
        # identity start can sit many orders of magnitude off.
        a = terms.values(np.eye(d))
        denom = float(np.dot(w * a, a))
        alpha = float(np.dot(w * z, a)) / denom if denom > 0 else 1.0
        W = max(alpha, 1e-6) * np.eye(d)

    # Start the barrier at the scale of the initial misfit so the first
    # centering passes are genuinely damped, then drive it down.
    mu = config.mu_initial * max(objective(W) / d, 1e-6)
    iterations = 0
    status = "converged"
    sigma2_half = problem.sigma * problem.sigma / 2.0
    # Factor and logdet of the current W; the line search hands over the
    # accepted trial point's.
    fac = _chol(W)

    while True:
        # Center at the current mu.
        for _ in range(40):
            if iterations >= config.max_iterations:
                status = "max_iter"
                break
            if fac is None:
                status = "numerical_failure"
                break
            L, logdet = fac
            Winv = _inv_from_factor(L)
            res = z - terms.values(W)
            # Exactly symmetric: so is every A_i in the term table, and so is
            # the W^-1 that dpotri gives.
            Rm = 2.0 * terms.accumulate(w * res) + mu * Winv
            T = W @ Rm @ W
            u = terms.values(T)
            G = terms.gram(W, L)
            G.flat[:: terms.m + 1] += mu * sigma2_half
            s = _solve_spd(G, u)
            if s is None:
                status = "numerical_failure"
                break
            dW = (T - W @ terms.accumulate(s) @ W) / mu
            dW = (dW + dW.T) / 2.0
            lam2 = float(np.sum(Rm * dW))
            iterations += 1
            if lam2 <= 0:
                break
            # Backtracking line search keeping the iterate PSD.
            f0 = float(np.dot(w, res * res)) - mu * logdet
            t = 1.0
            accepted = False
            while t > 1e-13:
                Wt = W + t * dW
                fac_t = _chol(Wt)
                if fac_t is not None:
                    ft = objective(Wt) - mu * fac_t[1]
                    if ft <= f0 - 0.25 * t * lam2:
                        W = Wt
                        fac = fac_t
                        accepted = True
                        break
                t *= 0.5
            if not accepted:
                break
            if lam2 < max(1e-16, 0.1 * mu):
                break
        if status != "converged":
            break
        # Stop once mu is negligible against the (post-centering) objective;
        # the floor is evaluated after centering so a bad start cannot end
        # the solve before any progress is made.
        obj = objective(W)
        mu_min = max(config.convergence_tol * 1e-2, config.convergence_tol * obj / d)
        if mu < mu_min:
            break
        mu *= config.barrier_reduction

    obj_W = objective(W)
    polished_X = None
    obj_out = obj_W
    ratio_raw = float("nan")
    if status != "numerical_failure":
        vals = np.linalg.eigvalsh(W)
        lam1 = vals[-1]
        lam2v = max(vals[-2], 0.0) if d > 1 else 0.0
        if lam1 > 0:
            ratio_raw = lam2v / lam1
        if config.polish and lam1 > 0:
            X, obj_X = _polish(terms, z, w, W)
            if obj_X < obj_W:
                # The refined rank-one point is the better minimizer of the
                # same convex problem, so it becomes the returned solution
                # (and is exactly rank one).
                polished_X = X
                obj_out = obj_X
                W = np.outer(X, X)
                ratio_raw = 0.0

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
    )


def _polish(
    terms: _Terms, z: np.ndarray, w: np.ndarray, W: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Levenberg-Marquardt on the unlifted state, seeded from W's leading
    eigenvector.  Returns the refined state and its objective."""
    vals, vecs = np.linalg.eigh(W)
    X = np.sqrt(max(vals[-1], 0.0)) * vecs[:, -1]
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
        step = _solve_spd(H + lam * np.eye(len(X)), -g)
        if step is None:
            break
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
