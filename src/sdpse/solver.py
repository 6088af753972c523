"""Embedded solver for the relaxed estimation problem.

Primal-dual interior-point method on

    minimize  sum_i w_i r_i^2   subject to   r + A(W) = z,   W PSD,

with w_i = 1/sigma_i^2, A(W)_i = Tr(A_i W) and W on the anchored subspace
(anchored rows/columns eliminated).  The iterate is (W, S, r): S is the dual
slack and the multiplier lambda = 2 w o r is implied by r, so its
stationarity residual is exactly zero.  The residuals left are the primal
``Rp = z - r - A(W)`` and the dual ``Rd = S + A^*(2 w o r)``.  Unless
warm-started, the solve starts in per unit at W = 0.1 I, a tenth of the
|V|^2 on the diagonal of a rank-one solution, with S = (f(W)/tr W) I and r
primal feasible.

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

The cone comes in two forms, and one loop (``_interior_point``) runs both;
the step rule, the sigma rule, the stopping test and the dual bound are
shared.

* Dense: W is one d x d matrix.  The Gram matrix G is built from a
  support-row table: one sparse row per measurement i and index a whose row
  of A_i is nonzero (ns rows in all), so one product ``Q = M What`` gives
  every nonzero row of every A_i What.  When m d^2 <= 4 ns^2 (d the reduced
  dimension) G[i, j] = <A_i, What A_j What> is read off What A_j What at
  the upper-triangle positions where some A_i has a term, as SDPA builds
  the Schur matrix of a sparse SDP (Fujisawa, Kojima & Nakata, Math.
  Programming 79, 1997): Q is scattered into a buffer of fixed pattern, one
  batched product with rows of What gives What A_j What at those positions
  for every j, and one sparse product with the positions' coefficients
  gives G, averaged with its transpose.  Near a rank-one optimum that sum
  loses G's PSD structure to rounding, so once G's diagonal passes 1e12
  times the smallest Sigma/2 the solve goes on with G = P^T P, P the packed
  upper triangles of R^T A_i R, which stays PSD to rounding.  Otherwise G
  sums the ns x ns Hadamard product K o K^T, with K = Q restricted to the
  support indices, over the owners of its rows.  All are exact and exactly
  symmetric; the rule, measured (``_Terms``), only picks the smaller amount
  of work.  The term products are ``np.bincount`` sums over the row-sorted
  term table, and the factor and solves call LAPACK's ``dpotrf``/``dpotrs``
  directly, reading ``info``.
* Clique (``_CliqueTerms``): when the node graph of the terms is a tree and
  d is at least ``CLIQUE_MIN_DIM``, W PSD is replaced by one 4 x 4 PSD block
  per branch {parent(a), a}, on the re/im slots of its two nodes, and W is
  one (blocks, 4, 4) array.  A tree is chordal with the branches as its
  maximal cliques, so a W with these blocks PSD and consistent has a PSD
  completion and the relaxation is unchanged (Grone, Johnson, Sa &
  Wolkowicz, Linear Algebra Appl. 58, 1984; Fukuda, Kojima, Murota &
  Nakata, SIAM J. Optim. 11, 2001).  Cliques are ordered breadth-first from
  the first anchor; the anchor's other child cliques hang on the first one.
  Each term goes to the clique of its node pair.  An anchor's imaginary
  index, eliminated on the dense cone, keeps its slot as a pad that no term
  touches.  Hard rows B(W) = b join the operator, with free multipliers y,
  no reading variance in the Schur diagonal and the start's r extended by y
  = 0: on each separator J (the parent node's two slots) three overlap rows
  set W_K[J, J] = W_parent[J, J] (b = 0), and one pin row per anchor sets
  its pad's diagonal to the start's 0.1.  Flipping the sign of every pad
  coordinate maps the problem onto itself, so the pads stay decoupled and
  the solution on the kept indices is that of the relaxation.  G (order N =
  m + h) sums vec(C_i)^T (What_K kron What_K) vec(C_j) over the cliques K,
  so rows i and j meet only on a block they share: G keeps the sparsity of
  the clique tree, and its pattern is fixed per solve.  The rows are
  ordered once per solve by reverse Cuthill-McKee on that pattern, in which
  G is a band of width b << N (18 on the 34-bus tree, 42 at 1000 buses, 56
  at 3000), so G is built straight into LAPACK's lower band storage, (b + 1)
  x N, and factored and solved with ``dpbtrf``/``dpbtrs``: no N x N array,
  O(N b^2) work per factor.  NT scaling and the step to the boundary run on
  the stack of blocks, and the dual bound needs a Cholesky factor of every
  block of -A^*(lambda) - B^*(y).  The report's W is the max-determinant
  completion of the blocks along the clique tree, without the pads.

One rule, ``_cliques``, picks the cone of one problem or of a batch: one
clique cone of them all when their reduced dimensions sum to at least
``CLIQUE_MIN_DIM`` and the node graph of each is a tree with an anchor,
else none.  A forest of chordal parts is chordal, with every branch of every
part a clique, so the clique cones of several problems are laid side by
side as one: one stack of blocks, the rows ordered as every part's
readings, then every part's hard rows, so that the first m rows are still
the readings.  ``solve`` runs its problem on the rule's cone, or on the
dense cone when there is none.  ``solve_many`` runs two or more problems,
with no start given, in one loop on the rule's cone of them all.  G is then
block diagonal, and one RCM band, as wide as the widest part's, serves all
parts with one ``dpbtrf``/``dpbtrs`` call per factor and solve, as one
stacked eigen-decomposition serves all their blocks.  The loop is shared
(one step length, mu and sigma), but the start's S is scaled per part and
the stopping test runs per part, on its own blocks and rows: the loop ends
once every part meets it, and a part that does not at the last iterate
reports ``max_iter``.  Each part's dual bound comes from its own segment of
the dual-feasible r and is certified on its own blocks, and its completion,
polish and rank-1 ratio from its own blocks and term table; its
``iterations`` are the joint loop's.  Any other batch, and every batch whose
joint loop ends in ``numerical_failure``, is solved one problem at a time
by ``solve``, so a problem that fails alone fails as it always did and the
others are untouched.

At an iterate whose dual residual meets the stopping rule, lambda = 2 w o r
gives the dual bound ``lambda . z - sum_i lambda_i^2 / (4 w_i) + y . b``
whenever ``-A^*(lambda) - B^*(y)`` is PSD (checked by a Cholesky
factorization): no W in the cone fits better, so it certifies how far the
relaxed objective is from its optimum.  The loop keeps the r of every such
iterate; after it, the candidates are certified from the highest bound down
and the first that passes is reported (``_best_bound``), so a solve
usually factors one certificate, not one per dual-feasible iterate.

A rank-one Gauss-Newton refinement runs afterwards: the leading eigenvector
x_e of the interior-point solution seeds a Levenberg-Marquardt descent on
the unlifted state, which tightens consistent problems down to machine
precision.  LM only accepts descending steps, so the refined state's misfit
is at most that of x_e x_e^T, and it is always returned as the state; the
report's W stays the relaxed interior-point solution.  The descent stops
once the Gauss-Newton model of its next step predicts a decrease at the
rounding level of the misfit, before evaluating that step.  The relaxed
objective is no yardstick for the state: it is a lower bound on every
rank-one misfit.  How far the interior-point solution is from rank one is
reported all the same, as the ratio lambda2/lambda1 of its two leading
eigenvalues.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrf, dpotrs, dstebz, dsyevd, dsytrd
from scipy.sparse.csgraph import breadth_first_order, reverse_cuthill_mckee

from .errors import ValidationError
from .network import edge_graph

if TYPE_CHECKING:
    from .problem import SdpProblem

# The clique cone is used on tree-shaped problems of reduced dimension d at
# least this, the crossover measured with a dense Schur factor on both cones
# (the banded one moved it lower: _branch_cliques).
CLIQUE_MIN_DIM = 39

# Entries of the dense cone's term-side Gram buffer (16 MB); a larger one is
# taken in chunks of readings, which also run faster out of cache (one Gram
# on the 102-bus full-plan tree: 75 ms in one chunk, 47 ms in eight).
_F_ENTRIES = 1 << 21

# The dense cone's term-side G is used while its largest diagonal entry is
# at most this multiple of the smallest diagonal shift Sigma/2 of the Schur
# system; beyond, each solve takes the packed Gram form (``_Terms``).
_SCHUR_RANGE = 1e12

# The per-unit start's diagonal; the clique cone pins its pads to it, so
# that the start meets the pins.
_W0 = 0.1

# Interior-point iterations before a solve stops with ``max_iter``.
MAX_ITERATIONS = 200


@dataclass
class SolverConfig:
    convergence_tol: float = 1e-9
    initial_W: Optional[np.ndarray] = None  # None: the per-unit start 0.1 I

    def __post_init__(self):
        # The start sets <W, S> = f(W), so at a tolerance of 1 or more the
        # gap test can pass before the first step.
        tol = self.convergence_tol
        if not (isinstance(tol, numbers.Real) and 0 < tol < 1):
            raise ValidationError(
                f"convergence_tol must be a real number in (0, 1), got {tol!r}"
            )
        if self.initial_W is not None and not isinstance(self.initial_W, np.ndarray):
            raise ValidationError("initial_W must be None or a numpy array")


@dataclass
class SolveReport:
    # The relaxed interior-point solution; on the clique cone the
    # max-determinant completion of its blocks.
    W: np.ndarray
    objective: float  # weighted misfit of polished_X, or of W when it is None
    iterations: int  # interior-point iterations taken
    status: str  # converged | max_iter | numerical_failure
    # The refined rank-one state; None when the solve failed or W has no
    # positive eigenvalue.
    polished_X: Optional[np.ndarray] = None
    # lambda2/lambda1 of W; NaN when W has no positive eigenvalue or the
    # solve failed.
    rank1_ratio_raw: float = float("nan")
    # Lower bound on the relaxed objective, and so on every rank-one misfit:
    # the best over the dual-feasible iterates whose -A^*(lambda) has a
    # Cholesky factor; NaN when none has, so no bound is certified.
    dual_bound: float = float("nan")
    # PSD blocks of the cone: 1 on the dense cone, one per branch on the
    # clique cone.
    blocks: int = 1
    # The largest |Rp| over the problem's rows at the returned iterate:
    # z - r - A(W) on the readings, b - B(W) on the clique cone's hard rows.
    primal_residual: float = float("nan")


@dataclass
class _Part:
    """One problem's share of a cone: its readings ``reads`` (rows of A),
    its hard rows ``hard`` (entries of b, rows m + hard of A), its blocks
    ``blocks`` (a slice of W's first axis; all of W on the dense cone), its
    share of the cone's size and its number of PSD blocks.  On the clique
    cone also what its completion needs: the slot of each clique's parent
    node and of each reduced index, in breadth-first node order."""

    reads: slice
    hard: slice
    blocks: slice
    size: int
    count: int
    pslot: Optional[np.ndarray] = None
    slot: Optional[np.ndarray] = None


class _Cone:
    """The operator A and the cone, in what both forms share.  Rows
    0..m-1 are the readings; rows m..n_rows-1 are hard rows B(W) = b (none
    on the dense cone), whose free multipliers y the iterate's r carries
    after the m residuals.  W is one array of ``shape``: (d, d) on the dense
    cone, (blocks, 4, 4) on the clique cone.  Term t of row ``row[t]`` has
    coefficient ``c[t]`` at flat position ``flat[t]`` of W.  ``parts`` lists
    the problems the cone holds (``_Part``): one, except on a forest."""

    def values(self, W: np.ndarray) -> np.ndarray:
        """Tr(A_i W) for every row."""
        return np.bincount(self.row, self.c * W.take(self.flat), minlength=self.n_rows)

    def accumulate(self, weights: np.ndarray) -> np.ndarray:
        """sum_i weights_i A_i over every row."""
        out = np.bincount(self.flat, weights[self.row] * self.c, minlength=self.entries)
        return out.reshape(self.shape)

    def identity(self, alpha: float) -> np.ndarray:
        return alpha * np.broadcast_to(np.eye(self.shape[-1]), self.shape)

    def trace(self, W: np.ndarray) -> float:
        return float(_diagonal(W).sum())

    def multipliers(self, w: np.ndarray, r: np.ndarray) -> np.ndarray:
        m = self.m
        return np.concatenate([2.0 * w * r[:m], r[m:]])

    def r_step(self, dlam: np.ndarray, w: np.ndarray) -> np.ndarray:
        m = self.m
        return np.concatenate([0.5 * dlam[:m] / w, dlam[m:]])


class _Terms(_Cone):
    """Flattened sparse terms of all coefficient matrices on the reduced
    (anchor-eliminated) index set, and the dense cone on them.

    The Gram matrix ``G[i, j] = Tr(A_i W A_j W)`` reads a support-row table:
    one row r = (i, a) per measurement i and index a whose row of A_i is
    nonzero, with ``M[r] = A_i[a]`` (sparse, ns x d), owner ``own[r] = i``
    and index ``sup[r] = a``.  ``Q = M @ W`` then holds every nonzero row of
    every ``A_i W``, ``Q[r, b] = (A_i W)[a, b]``.  Two exact ways finish the
    sum; the one with less work is fixed per solve, and the term side hands
    over to a third near the optimum (below):

    * term side, when m d^2 <= 4 ns^2: ``G[i, j] = <A_i, W A_j W>`` needs
      W A_j W only at the set U of upper-triangle positions (c, b), c <= b,
      where some A_i has a term (Fujisawa, Kojima & Nakata, Math.
      Programming 79, 1997, their formula F2).  Q is scattered into a
      (d, d, m) buffer F with ``F[b, a, j] = (A_j W)[a, b]``; its nonzero
      positions never change, so it is allocated once and never re-zeroed.
      One batched product ``W[rows] @ F``, ``rows[b]`` the rows c of U in
      column b padded to the longest list (k), gives ``(W A_j W)[c, b]`` for
      every j, and one sparse product with A_U, the m x |U| coefficients at
      U with off-diagonal ones doubled, finishes G, set to (G + G^T) / 2:
      d^2 k m + |U| m multiply-adds.  A buffer of more than ``_F_ENTRIES``
      entries is taken in chunks of readings, each chunk's entries cleared
      after its product.
    * support-row side, otherwise:

          G[i, j] = sum over r = (i, a), t = (j, b) of Q[r, b] * Q[t, a],

      taken as ``K = Q[:, sup]`` (ns x ns) and ``G = Sel (K o K^T) Sel^T``,
      Sel the m x ns owner selector, its upper triangle mirrored from the
      lower one, which is the one the factor reads.

    Crossover: time of one Gram in ms, term / support side (10th percentile
    of 30 to 200 calls at a random positive definite W, one BLAS thread,
    2-core x86-64 host), on problems built as ``test_gram_matches_reference``
    builds its cases (truth seed 2, L0, anchor 0; the full plan, or the
    one-sided one with negate repair): chain ``chain_doc(10, seed=3)``,
    trees ``tree_doc(n, seed=7, trunk_bias=3)`` (the 200-bus one
    ``seed=9``), meshed ``tree_doc(n, seed=5, meshed_extra=e)``, the
    multiphase feeder and its 13-node head:

        problem                      m     d     ns  m d^2/ns^2   term / support
        chain 10, full              66    19    267     0.33      0.09 /   0.36
        head, full                 151    25    729     0.18      0.38 /   3.38
        head, one-sided             93    25    378     0.41      0.17 /   0.73
        multiphase, full           494    75   2487     0.45      7.27 /  87.6
        multiphase, one-sided      294    75   1182     1.18      3.64 /  11.5
        tree 34, full              234    67    987     1.08      1.37 /   4.90
        tree 34, one-sided         102    67    400     2.86      0.49 /   0.77
        meshed 34 (e=6), one-s.    120    67    476     2.38      0.72 /   0.83
        meshed 50 (e=8), one-s.    174    99    694     3.54      1.75 /   2.11
        tree 102, full             710   203   3027     3.19     52.7  / 143
        tree 50, one-sided         150    99    592     4.19      1.29 /   1.68
        meshed 80 (e=10), one-s.   270   159   1079     5.86     10.5  /   8.04
        tree 102, one-sided        306   203   1216     8.53     13.0  /  14.8
        tree 200, one-sided        600   399   2397    16.6     230    / 107

    Both sides read memory more than they compute, so the rule compares the
    term side's buffer, m d^2, with the support side's K, ns^2.  Between a
    ratio of about 3.5 and 9 the two tie within the timing's spread (other
    runs of the same cases gave either side the 50- and 102-bus one-sided
    trees); above it the support side wins, below it the term side, by up to
    12x.  The rule's 4 sits at the low end of the tie.

    Near a rank-one optimum the term side's G, a sum of entries of a W whose
    eigenvalues spread over many orders of magnitude, loses the PSD
    structure of G to rounding: on a draw of the 13-node head whose solve
    failed, the smallest eigenvalue of G + Sigma/2, which the readings'
    Sigma/2 (1.1e-8 there) keeps positive, came out negative one iteration
    before the packed form's.  So once G's largest diagonal entry passes
    ``_SCHUR_RANGE`` times the smallest Sigma/2, the solve goes on with the
    packed form: with W = R R^T, ``G = P^T P``, P's column j the upper
    triangle of R^T A_j R with off-diagonal entries weighted by sqrt(2),
    which is PSD to rounding whatever W's spread.  ``Z[a, j] = (A_j R)[a]``
    is scattered from ``M @ R`` into its own (d, m, d) buffer, allocated
    once and never re-zeroed, and one product ``R^T @ Z`` gives every R^T
    A_j R.  That takes the last fifth of the iterations.  Solves that end
    in ``numerical_failure`` on the 13-node head, full plan, tol 1e-9,
    truth and noise seed s:

        G                               L2, s < 5000    L1, s < 2000
        packed form alone                    0              112
        term side alone                 1 of s < 1500       214
        term side, then packed form          0              119

    119 against 112 is within the draw-to-draw spread (about 15 at these
    counts).  Those failures are the dense cone's stall near a rank-one
    optimum, which no form of G removes.

    The positions, the buffers and Sel are built at the first ``gram`` call
    that needs them: the clique cone uses the table only for the polish, and
    never calls it.
    """

    blocks = 1

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
        # The dense cone: W is one d x d matrix and the rows are the
        # readings.  The terms are sorted by row, so the bincount sums of
        # ``values`` and ``accumulate`` run in the order of a CSR mat-vec.
        self.size = d
        self.n_rows = m
        self.b = np.zeros(0)
        self.shape = (d, d)
        self.entries = d * d
        self.flat = self.p * d + self.q
        # Support-row table.  Terms are sorted by (row, p, q), so each
        # (row, p) pair is one contiguous run, already in CSR order.
        starts = np.flatnonzero(np.diff(self.row * d + self.p, prepend=-1))
        ns = len(starts)
        self.own = self.row[starts]
        self.sup = self.p[starts]
        indptr = np.append(starts, self.n_terms)
        self.M = sp.csr_matrix((self.c, self.q, indptr), shape=(ns, d))
        self._term_side = m * d * d <= 4 * ns * ns
        # Sigma/2 is half the reading variances.
        self._packed_above = _SCHUR_RANGE * 0.5 * float(np.min(problem.sigma)) ** 2
        self._packed = False
        self.parts = [_Part(slice(0, m), slice(0, 0), slice(None), d, 1)]

    @cached_property
    def _positions(self) -> Tuple[np.ndarray, sp.csr_matrix]:
        """The upper-triangle term positions U, the (c, b) with c <= b at
        which some A_i has a term: for each column b its rows c, padded with
        row 0 to the longest list (d x k), and A_U, the m x d k CSR that
        puts every term's coefficient at its position's slot b k + t (the
        terms at (c, b) and (b, c) summed, so off-diagonal ones doubled)."""
        m, d = self.m, self.d
        lo, hi = np.minimum(self.p, self.q), np.maximum(self.p, self.q)
        at = np.zeros((d, d), dtype=np.intp)
        at[hi, lo] = 1
        col, row = np.nonzero(at)
        t = np.arange(len(col)) - np.searchsorted(col, col)
        k = int(t.max(initial=0)) + 1
        rows = np.zeros((d, k), dtype=np.intp)
        rows[col, t] = row
        at[col, row] = col * k + t
        # The terms are sorted by row: CSR as they stand, the two terms of an
        # off-diagonal position summed by the product.
        indptr = np.searchsorted(self.row, np.arange(m + 1))
        A_U = sp.csr_matrix((self.c, at[hi, lo], indptr), shape=(m, d * k))
        return rows, A_U

    @cached_property
    def _chunks(self) -> Tuple[np.ndarray, list]:
        """The term side's buffer F, (d, d, w) with ``F[b, a, j] = (A_j X)[a,
        b]`` for the w readings of one chunk (at most ``_F_ENTRIES`` entries
        unless w = 1), and per chunk its readings, its support rows and where
        their entries land in ``F.reshape(d, d w)``."""
        m, d = self.m, self.d
        w = -(-m // -(-m * d * d // _F_ENTRIES))
        chunks = []
        for j in range(0, m, w):
            r0, r1 = np.searchsorted(self.own, [j, j + w])
            at = self.sup[r0:r1] * w + self.own[r0:r1] - j
            chunks.append((slice(j, min(j + w, m)), slice(r0, r1), at))
        return np.zeros((d, d, w)), chunks

    @cached_property
    def Sel(self) -> sp.csr_matrix:
        ns = len(self.own)
        return sp.csr_matrix(
            (np.ones(ns), (self.own, np.arange(ns))), shape=(self.m, ns)
        )

    @cached_property
    def _pack(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The packed form's (d, m, d) buffer, never re-zeroed, and the
        upper triangle's indices with their sqrt(2) packing weights."""
        iu, ju = np.triu_indices(self.d)
        weight = np.where(iu == ju, 1.0, np.sqrt(2.0))[:, None]
        return np.zeros((self.d, self.m, self.d)), iu, ju, weight

    def gram(self, W: np.ndarray, R: np.ndarray) -> np.ndarray:
        """G[i, j] = Tr(A_i W A_j W), given W and a square factor R with
        W = R R^T, by the side the rule picks.  On the term side, once G's
        largest diagonal entry passes ``_packed_above``, this and every
        later call take the packed form."""
        if not self._term_side:
            return self.gram_support(W)
        if not self._packed:
            G = self.gram_terms(W)
            if _diagonal(G).max() <= self._packed_above:
                return G
            self._packed = True
        return self.gram_packed(R)

    def gram_terms(self, W: np.ndarray) -> np.ndarray:
        """<A_i, W A_j W> from W A_j W at the term positions U, exactly
        symmetric.  The support rows' entries of F are cleared after use
        when F holds one chunk of several; its other entries stay zero."""
        rows, A_U = self._positions
        F, chunks = self._chunks
        flat = F.reshape(self.d, -1)
        QT = (self.M @ W).T
        Wr = W[rows]
        G = np.empty((self.m, self.m))
        for cols, sr, at in chunks:
            flat[:, at] = QT[:, sr]
            n = cols.stop - cols.start
            G[:, cols] = A_U @ (Wr @ F[:, :, :n]).reshape(-1, n)
            if len(chunks) > 1:
                flat[:, at] = 0.0
        return 0.5 * (G + G.T)

    def gram_packed(self, R: np.ndarray) -> np.ndarray:
        """G = P^T P, P's column j the upper triangle of R^T A_j R with
        off-diagonal entries weighted by sqrt(2): exactly symmetric, and PSD
        to rounding.  ``Q = M @ R`` is scattered into the buffer Z with
        ``Z[a, j] = (A_j R)[a]``, and one product ``R^T @ Z`` gives every
        R^T A_j R."""
        m, d = self.m, self.d
        Z, iu, ju, weight = self._pack
        Z[self.sup, self.own] = self.M @ R
        B = (R.T @ Z.reshape(d, m * d)).reshape(d, m, d)
        P = B[iu, :, ju]
        P *= weight
        return P.T @ P

    def gram_support(self, W: np.ndarray) -> np.ndarray:
        """G from the support-row table's Hadamard product, exactly
        symmetric."""
        K = (self.M @ W)[:, self.sup]
        G = self.Sel @ (self.Sel @ (K * K.T)).T
        # Mirrored from the lower triangle, the one the factor reads.
        return np.tril(G) + np.tril(G, -1).T

    def factor_schur(self, G: np.ndarray, shift: np.ndarray) -> Optional[np.ndarray]:
        """The factor of G plus ``shift`` on the diagonal of the first rows
        (G is changed), for ``solve_schur``."""
        _diagonal(G)[: len(shift)] += shift
        return _factor_spd(G)

    def solve_schur(self, F: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return dpotrs(F, rhs, lower=1)[0]

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

    def restrict(self, W: np.ndarray) -> np.ndarray:
        return W

    def complete(self, W: np.ndarray, part: _Part) -> np.ndarray:
        return W

    def nt_scaling(
        self, W: np.ndarray, S: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        L = _chol(W)
        if L is None:
            return None
        vals, V, info = dsyevd(L.T @ S @ L, compute_v=1, lower=1, overwrite_a=1)
        if info != 0 or not vals[0] > 0:
            return None
        lam = np.sqrt(vals)
        return L @ (V / np.sqrt(lam)), lam

    def psd(self, X: np.ndarray) -> bool:
        return _chol(X) is not None

    def ends(self, X: np.ndarray) -> List[float]:
        return _eigs(X, 1, self.d)

    def lowest(self, X: np.ndarray) -> float:
        return _eigs(X, 1)[0]


def _branch_cliques(
    problem: SdpProblem, terms: _Terms, keep: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The clique tree of a tree-shaped problem, or None when the node graph
    of its terms is not a tree with an anchor and at least one branch.

    One problem takes the clique cone when it is tree shaped and ``d >=
    CLIQUE_MIN_DIM`` (``_cliques`` tests d): the rule reads only the problem.
    Median time per solve in ms with the banded Schur factor (one BLAS
    thread, 2-core x86-64 host, 6 noise draws x 5 repeats) on
    ``tree_doc(n, seed=7, trunk_bias=3)``, truth seed 100, its one-sided
    plan with magnitudes at 5 evenly spaced buses, negate repair, L2:

        buses   d   tol 1e-2 dense / clique   tol 1e-9 dense / clique
         10    19         6.0 /  7.0               8.6 /  9.1
         14    27         9.5 /  8.1              12.2 / 10.6
         16    31        13.1 /  8.5              15.9 / 11.7
         18    35        18.0 /  8.6              24.2 / 11.6
         19    37        19.9 /  9.3              27.2 / 11.4
         20    39        22.5 / 10.6              30.0 / 12.9
         22    43        30.3 / 12.0              36.9 / 14.1
         24    47        33.2 / 10.2              48.8 / 13.5
         34    67        79.3 / 14.0             109.5 / 18.5
         40    79       121.8 / 17.3             160.8 / 24.1

    A repeat gave the same sides from d = 27 up; at d = 19 it was a tie at
    tol 1e-2 and the clique cone won at tol 1e-9.  So the crossover now lies
    near d = 27, below the threshold of 39 measured when the clique cone's
    Schur factor was dense.  The threshold is kept: moving it moves problems
    between the cones, a change to be measured on its own.

    A batch of problems (``solve_many``) takes one forest when every problem
    is tree shaped and their d sum to at least ``CLIQUE_MIN_DIM``.  Median
    time per batch in ms (same host, 6 noise draws x 5 repeats), every
    problem solved alone on the dense cone against the forest, forced below
    the threshold where the sum is under it.  The parts are copies of the
    10-bus chain of the bad-data sweep (``chain_doc(10, seed=3)``, truth seed
    4, full plan, L2, d = 19) and 8-bus sub-networks of the partitioned
    feeder (``tree_doc(96, seed=7, trunk_bias=3)`` split by ``separate(...,
    8)``, one-sided plan, a µPMU magnitude at each anchor, negate repair, L2,
    d = 15), each copy with its own noise draw:

        batch         sum d   tol 1e-2 alone / forest   tol 1e-9 alone / forest
        2 x chain10     38         18.0 / 11.4              23.2 / 15.1
        3 x chain10     57         26.9 / 15.0              35.2 / 20.2
        2 x sub8        30         10.6 /  8.9              14.2 / 10.8
        3 x sub8        45         16.1 / 10.8              20.8 / 14.5

    The forest already wins with two parts, as the loop pays the fixed cost
    of an iteration once for all of them, so the batch crossover lies below
    a sum of 30 and the rule's sum of 39 is on its safe side.  The batch rule
    keeps the single-problem threshold so that one constant decides both;
    lowering it would move two-combination bad-data sweeps (sum 38) to the
    forest, a change to be measured on its own.  The gain shrinks as the
    parts grow, because the shared loop runs until its slowest part stops
    and its shared steps add iterations.  On three 34-bus sub-networks of
    ``tree_doc(102, seed=7, trunk_bias=3)`` (d = 65 to 69, each on the
    clique cone alone) the forest took 44 / 61 ms against 46 / 62 ms alone
    at tol 1e-2 / 1e-9.  On fifty 60-bus sub-networks of ``tree_doc(3000,
    seed=11, trunk_bias=4)`` (d = 57 to 133) it took 42 iterations at tol
    1e-7, against a median of 28 and at most 34 alone, and 2.0 s against
    1.6 s for the fifty solves; at tol 1e-9 it converged all fifty in 2.4 s,
    where six of the solves alone end in ``numerical_failure``.

    Returns, per clique in breadth-first order from the first anchor, its
    child node a, its parent node and its parent clique (-1 for the first);
    the anchor's other child cliques hang on the first one.  Each clique
    becomes one 4 x 4 block of ``_CliqueTerms``, the re and im slots of its
    parent node and of a, where an anchor's im slot is a pad held by a pin
    row."""
    n = problem.dim // 2
    if n < 2 or not problem.anchors:
        return None
    node = keep % n
    graph = edge_graph(n, node[terms.p], node[terms.q])
    if graph.nnz != 2 * (n - 1):
        return None
    root = problem.anchors[0]
    order, pred = breadth_first_order(
        graph, root, directed=False, return_predecessors=True
    )
    if len(order) != n:
        return None
    child = order[1:].astype(np.intp)
    parent_node = pred[child].astype(np.intp)
    clique_of = np.zeros(n, dtype=np.intp)
    clique_of[child] = np.arange(n - 1)
    parent = np.where(parent_node == root, 0, clique_of[parent_node])
    parent[0] = -1
    return child, parent_node, parent


def _term_cliques(terms: _Terms, keep: np.ndarray, n: int, child, pnode):
    """The clique of each term and its local (p, q) in that clique's block.

    A branch's terms go to its clique; a node's own terms to the first
    clique of the same row that holds the node, else to the node's home
    clique (the one it is the child of; the first one for the root).  A
    block holds the re and im slots of its parent node, then of its child
    node."""
    node = keep % n
    im = (keep >= n).astype(np.intp)
    row, p, q = terms.row, terms.p, terms.q
    u, v = node[p], node[q]
    clique_of = np.zeros(n, dtype=np.intp)
    clique_of[child] = np.arange(len(child))
    parent_of = -np.ones(n, dtype=np.intp)
    parent_of[child] = pnode
    blk = clique_of[np.where(parent_of[u] == v, u, v)]
    off = u != v
    key = np.concatenate([row[off] * n + u[off], row[off] * n + v[off]])
    kb = np.concatenate([blk[off], blk[off]])
    o = np.lexsort((kb, key))
    key, kb = key[o], kb[o]
    lowest = np.ones(len(key), dtype=bool)
    lowest[1:] = key[1:] != key[:-1]
    key, kb = key[lowest], kb[lowest]
    own = row[~off] * n + u[~off]
    at = np.minimum(np.searchsorted(key, own), len(key) - 1)
    blk[~off] = np.where(key[at] == own, kb[at], blk[~off])
    lp = np.where(u == pnode[blk], 0, 2) + im[p]
    lq = np.where(v == pnode[blk], 0, 2) + im[q]
    return blk, lp, lq


def _hard_terms(child, pnode, parent, pad):
    """Terms (row, clique, local p, local q, c) of the hard rows, rows
    numbered from 0, and the rows' right-hand sides b.

    On each separator J (the parent node's two slots) three overlap rows set
    the entries (0, 0), (0, 1) and (1, 1) of J equal in the child block (+1)
    and the parent block (-1), b = 0.  Then one pin row per pad sets the
    pad's diagonal to the start's, b = 0.1, in its home block: the one whose
    child node it belongs to, or the first one for the root."""
    nb = len(child)
    kid = np.arange(1, nb)  # the cliques with a parent clique
    P = parent[kid]
    base = np.where(child[P] == pnode[kid], 2, 0)[:, None]
    # The four entries of J and which of the three rows each belongs to.
    i, j, k = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), np.array([0, 1, 1, 2])
    coef = np.tile(np.where(i == j, 1.0, 0.5), nb - 1)
    orow = (3 * (kid - 1)[:, None] + k).ravel()
    home = np.zeros_like(pad)
    home[0, 1] = True
    home[:, 3] = True
    pb, pl = np.nonzero(pad & home)
    h = 3 * (nb - 1)
    row = np.concatenate([orow, orow, h + np.arange(len(pb))])
    blk = np.concatenate([np.repeat(kid, 4), np.repeat(P, 4), pb])
    lp = np.concatenate([np.tile(i, nb - 1), (base + i).ravel(), pl])
    lq = np.concatenate([np.tile(j, nb - 1), (base + j).ravel(), pl])
    c = np.concatenate([coef, -coef, np.ones(len(pb))])
    rhs = np.concatenate([np.zeros(h), np.full(len(pb), _W0)])
    return row, blk, lp, lq, c, rhs


class _CliqueTerms(_Cone):
    """The clique cone of a tree-shaped problem: one 4 x 4 PSD block per
    branch, W one (blocks, 4, 4) array.  A block holds the re and im slots
    of its parent node, then of its child node; an anchor's im slots are
    pads, which no reading touches (``_Terms`` drops the anchors' imaginary
    indices).

    The hard rows are the overlap rows ``W_K[J, J] - W_parent[J, J] = 0``
    (3 per separator) and one pin row ``W_pp = 0.1`` per anchor.  Flipping
    the sign of every pad coordinate maps the problem and the start onto
    themselves, so the central path keeps each pad decoupled, zero beside
    its diagonal, and on the kept indices it is that of the blocks without
    pads.

    The Schur matrix G is band-stored: its rows are taken in ``_perm``, the
    reverse Cuthill-McKee order of its fixed pattern, and ``gram`` sums each
    product of two entries of one block straight into its slot of the lower
    band, ``(bandwidth + 1) x N`` in LAPACK's layout.  ``factor_schur`` adds
    Sigma/2 at each reading's place on the band's diagonal and factors with
    ``dpbtrf``; ``solve_schur`` permutes the right-hand side, calls
    ``dpbtrs`` and permutes back.
    """

    def __init__(
        self, parts: Sequence[Tuple[_Terms, np.ndarray, Tuple[np.ndarray, ...]]]
    ):
        """The cone of one or more tree-shaped problems, each given by its
        term table, its kept indices and its clique tree: their blocks side
        by side, every part's readings first, then every part's hard rows."""
        reads, hards, idx, pad, self.parts = [], [], [], [], []
        M = sum(terms.m for terms, _, _ in parts)
        m = B = H = 0
        for terms, keep, (child, pnode, parent) in parts:
            # A tree of n nodes has n - 1 cliques.
            n, d, k = len(child) + 1, len(keep), len(child)
            # Each block's reduced indices, d at a pad.
            pos = np.full(2 * n, d, dtype=np.intp)
            pos[keep] = np.arange(d)
            idx.append(pos[np.stack([pnode, n + pnode, child, n + child], 1)])
            pad.append(idx[-1] == d)
            blk, lp, lq = _term_cliques(terms, keep, n, child, pnode)
            hrow, hblk, hlp, hlq, hc, b = _hard_terms(child, pnode, parent, pad[-1])
            reads.append((m + terms.row, B + blk, lp * 4 + lq, terms.c))
            hards.append((M + H + hrow, B + hblk, hlp * 4 + hlq, hc, b))
            # For the completion: the slots in breadth-first node order (the
            # root's two, then each clique's child node's two) of every
            # clique's parent node and of every reduced index.
            rank = np.zeros(n, dtype=np.intp)
            rank[child] = np.arange(1, k + 1)
            self.parts.append(_Part(
                slice(m, m + terms.m), slice(H, H + len(b)), slice(B, B + k),
                4 * k, k, 2 * rank[pnode], 2 * rank[keep % n] + (keep >= n),
            ))
            m, B, H = m + terms.m, B + k, H + len(b)
        self.blocks = nb = B
        self.m = m
        self.d = sum(len(keep) for _, keep, _ in parts)
        self.size = 4 * nb
        self.shape = (nb, 4, 4)
        self.entries = 16 * nb
        self._idx = np.concatenate(idx)
        self._pad = np.concatenate(pad)
        self.b = np.concatenate([h[4] for h in hards])
        self.n_rows = N = m + H
        terms_of = reads + [h[:4] for h in hards]
        self.row = row = np.concatenate([t[0] for t in terms_of])
        self.c = c = np.concatenate([t[3] for t in terms_of])
        blk = np.concatenate([t[1] for t in terms_of])
        local = np.concatenate([t[2] for t in terms_of])
        self.flat = blk * 16 + local

        # One entry per (row, block) pair, its coefficient matrix row-major
        # in V[block, slot] (padded to the most entries of any block, rmax).
        ekey, inv = np.unique(blk * N + row, return_inverse=True)
        eblk, erow = np.divmod(ekey, N)
        E = len(ekey)
        first = np.searchsorted(eblk, eblk)
        count = np.searchsorted(eblk, eblk, side="right") - first
        li = np.arange(E) - first
        rmax = int(count.max())
        self._V = np.bincount(
            (eblk * rmax + li)[inv] * 16 + local, c, minlength=nb * rmax * 16
        ).reshape(nb, rmax, 16)
        # Every ordered pair of entries of one block, and where its product
        # lands in G and in the (blocks, rmax, rmax) products.
        pe = np.repeat(np.arange(E), count)
        pf = np.repeat(first, count) + (
            np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        )
        # The pairs' cells are G's pattern.  In its reverse Cuthill-McKee
        # order only the products on or below the diagonal are kept, G[i, j]
        # (i >= j in that order) at [i - j, j] of the band storage.
        gi, gj = erow[pe], erow[pf]
        pattern = sp.csr_matrix((np.ones(len(gi)), (gi, gj)), shape=(N, N))
        self._perm = perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        self._at = at = np.empty(N, dtype=np.intp)
        at[perm] = np.arange(N)
        gi, gj = at[gi], at[gj]
        lower = gi >= gj
        self.bandwidth = bw = int((gi - gj)[lower].max())
        self._cell = (gj * (bw + 1) + gi - gj)[lower]
        self._gpos = ((eblk[pe] * rmax + li[pe]) * rmax + li[pf])[lower]

    def gram(self, W: np.ndarray, R: np.ndarray) -> np.ndarray:
        """G[i, j] = sum over cliques K of Tr(C_i^K What_K C_j^K What_K) =
        vec(C_i^K)^T (What_K kron What_K) vec(C_j^K), for every pair of
        entries of one block at once, scattered into G's lower band: G in
        LAPACK's lower band storage, rows and columns in ``_perm`` order."""
        kron = (W[:, :, None, :, None] * W[:, None, :, None, :]).reshape(-1, 16, 16)
        vals = (self._V @ kron @ self._V.swapaxes(1, 2)).take(self._gpos)
        rows = self.bandwidth + 1
        out = np.bincount(self._cell, vals, minlength=rows * self.n_rows)
        return out.reshape(self.n_rows, rows).T

    def factor_schur(self, G: np.ndarray, shift: np.ndarray) -> Optional[np.ndarray]:
        """The banded factor of the band-stored G plus ``shift`` on the
        diagonal of the first rows (G is changed), for ``solve_schur``."""
        G[0, self._at[: len(shift)]] += shift
        return _factor_spd(G, band=True)

    def solve_schur(self, F: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        x = np.empty_like(rhs)
        x[self._perm] = dpbtrs(F, rhs[self._perm], lower=1)[0]
        return x

    def restrict(self, W: np.ndarray) -> np.ndarray:
        """The clique blocks of a reduced d x d matrix, each pad 0.1 on its
        diagonal and 0 beside it (a cone of one part)."""
        Wp = np.zeros((self.d + 1, self.d + 1))
        Wp[:-1, :-1] = W
        B = Wp[self._idx[:, :, None], self._idx[:, None, :]]
        _diagonal(B)[self._pad] = _W0
        return B

    def complete(self, W: np.ndarray, part: _Part) -> np.ndarray:
        """The max-determinant completion of a part's blocks along its clique
        tree, without the pads: each clique's child slots N are set
        conditionally independent of the slots U before them given the
        separator J, ``X[N, U] = Phi X[J, U]`` with ``Phi = W_K[N, J]
        W_K[J, J]^-1``, and ``X[N, N] = Phi X[J, J] Phi^T`` plus the Schur
        complement of W_K[J, J] in W_K.  Where the blocks agree on their
        separators that is W_K itself.  Near a rank-one optimum they differ
        by the overlap rows' residual (the Schur system's rounding, up to
        about 1e-6 relative) and every separator block without a pad is rank
        one to rounding, so the inverse is a pseudo-inverse that drops
        directions below 1e-10 of the largest: with the parent's X[J, J] the
        completion then stays PSD to rounding.  Built in breadth-first node
        order, where U is a prefix."""
        W = W[part.blocks]
        F = W[:, 2:, :2] @ np.linalg.pinv(W[:, :2, :2], rcond=1e-10, hermitian=True)
        C = W[:, 2:, 2:] - F @ W[:, :2, 2:]
        X = np.zeros((2 * part.count + 2,) * 2)
        X[:4, :4] = W[0]
        for b in range(1, part.count):
            s, ps, f = 2 * b + 2, part.pslot[b], F[b]
            X[s : s + 2, :s] = f @ X[ps : ps + 2, :s]
            X[:s, s : s + 2] = X[s : s + 2, :s].T
            Y = C[b] + f @ X[ps : ps + 2, ps : ps + 2] @ f.T
            X[s : s + 2, s : s + 2] = 0.5 * (Y + Y.T)
        return X[np.ix_(part.slot, part.slot)]

    def nt_scaling(
        self, W: np.ndarray, S: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        L = _stack_chol(W)
        if L is None:
            return None
        try:
            vals, V = np.linalg.eigh(L.swapaxes(1, 2) @ S @ L)
        except np.linalg.LinAlgError:
            return None
        if not vals[:, 0].min() > 0:
            return None
        lam = np.sqrt(vals)
        return L @ (V / np.sqrt(lam)[:, None, :]), lam

    def psd(self, X: np.ndarray) -> bool:
        return _stack_chol(X) is not None

    def ends(self, X: np.ndarray) -> List[float]:
        vals = np.linalg.eigvalsh(X)
        return [float(vals[:, 0].min()), float(vals[:, -1].max())]

    def lowest(self, X: np.ndarray) -> float:
        return float(np.linalg.eigvalsh(X)[:, 0].min())


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


def _stack_chol(X: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factors of a stack of blocks; None when any block is
    not numerically positive definite or not finite."""
    try:
        L = np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(L).all():
        return None
    return L


def _band_chol(M: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factor of a matrix in LAPACK's lower band storage
    (``M[k, j]`` the entry at row j + k, column j), in the same storage; None
    when it is not numerically positive definite or not finite.  This is
    ``dpbtrf``, whose pivot test lets a NaN pass as ``dpotrf``'s does; every
    band entry below the diagonal reaches a later diagonal entry of the
    factor, row 0, which is checked instead."""
    L, info = dpbtrf(M, lower=1)
    if info != 0 or not np.isfinite(L[0]).all():
        return None
    return L


def _factor_spd(M: np.ndarray, band: bool = False) -> Optional[np.ndarray]:
    """Lower Cholesky factor of an SPD matrix, dense (for ``dpotrs``) or in
    LAPACK's lower band storage (``band``, for ``dpbtrs``), with escalating
    diagonal regularization on failure; None when even that fails.

    When M has no factor, up to seven retries add a jitter growing from
    1e-14 of M's mean diagonal (at least 1e-14) by 100x each to its
    diagonal, which is restored afterwards."""
    chol = _band_chol if band else _chol
    L = chol(M)
    if L is None:
        diag = M[0] if band else _diagonal(M)
        base = diag.copy()
        jitter = 1e-14 * max(base.sum() / max(len(base), 1), 1.0)
        for _ in range(7):
            diag[...] = base + jitter
            L = chol(M)
            if L is not None:
                break
            jitter *= 100.0
        diag[...] = base
    return L


Direction = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _linearize(
    op,
    w: np.ndarray,
    W: np.ndarray,
    S: np.ndarray,
    Rp: np.ndarray,
    Rd: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray, Callable[..., Direction]]]:
    """NT scaling at (W, S) and the Newton direction of the residuals
    ``Rp = z - r - A(W)`` and ``Rd = S + A^*(2 w o r)`` on op's cone (on the
    clique cone Rp and A run over the hard rows too, with Rp = b - B(W)
    there, Rd holds B^*(y) and dr carries the step of y after the
    readings').

    Returns R and lam, with ``R R^T S R R^T = W`` and ``R^T S R = R^-1 W R^-T
    = diag(lam)``, and ``direction(K, AK=None)``: the step (dWt, dSt, dS, dr)
    that solves the linearized equations ``dr + A(dW) = Rp``, ``dS + A^*(2 w
    o dr) = -Rd`` and ``dWt + dSt = K``, where ``dWt = R^-1 dW R^-T`` and
    ``dSt = R^T dS R`` are the scaled steps (so ``dW = R dWt R^T``); AK is
    ``A(R K R^T)`` when the caller has it.  None when W or S is not
    numerically positive definite, or the Schur matrix has no factor even
    regularized."""
    scaling = op.nt_scaling(W, S)
    if scaling is None:
        return None
    R, lam = scaling
    Wh = R @ R.swapaxes(-1, -2)
    # Sigma/2 on the readings' rows; the hard rows have none.
    F = op.factor_schur(op.gram(Wh, R), 0.5 / w)
    if F is None:
        return None
    rhs0 = Rp - op.values(Wh @ Rd @ Wh)

    def direction(K, AK: Optional[np.ndarray] = None) -> Direction:
        if AK is None:
            AK = op.values(R @ K @ R.swapaxes(-1, -2))
        dlam = op.solve_schur(F, rhs0 - AK)
        dS = -op.accumulate(dlam) - Rd
        dSt = R.swapaxes(-1, -2) @ dS @ R
        return K - dSt, dSt, dS, op.r_step(dlam, w)

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


def _sigma(mu_aff: float, mu: float) -> float:
    """Mehrotra's centering parameter (mu_aff/mu)^3, capped at 1: while the
    residuals are large, <dWa, dSa> can be positive enough for mu_aff to
    exceed mu."""
    return min((mu_aff / mu) ** 3, 1.0)


def _converged(gap: float, misfit: float, tol: float, size: int) -> bool:
    """The measured gap <W, S> is small against the misfit (or, on a
    near-exact fit, against 1e-2 tol per dimension of the cone)."""
    return gap <= max(tol * misfit, 1e-2 * tol * size)


def _best_bound(
    op,
    w: np.ndarray,
    z: np.ndarray,
    candidates: List[np.ndarray],
    part: _Part,
) -> float:
    """The highest certified dual bound of a part over the candidate
    iterates' r, NaN when none is certified.

    Each r gives lambda = 2 w o r and the bound ``lambda . z - sum_i
    lambda_i^2 / (4 w_i) + y . b``, which equals ``(w o r) . (2 z - r) + y .
    b``, taken over the part's readings and hard rows; it is certified when
    ``-A^*(lambda) - B^*(y)`` has a Cholesky factor on the part's blocks (on
    the clique cone, every block of it; the dense cone has no hard rows).
    For every PSD W with B(W) = b, ``sum_i w_i (z - A(W))_i^2 >= lambda . (z
    - A(W)) - sum_i lambda_i^2 / (4 w_i)`` and ``-lambda . A(W) =
    <-A^*(lambda) - B^*(y), W> + y . b >= y . b``, so no W fits better than
    a certified bound.  The candidates are tried from the highest bound
    down, so the first that passes is the best one."""
    m, a, h = len(z), part.reads, part.hard
    values = [
        float(np.dot(w[a] * r[a], 2.0 * z[a] - r[a]) + np.dot(r[m:][h], op.b[h]))
        for r in candidates
    ]
    for k in np.argsort(-np.array(values)):
        r = candidates[k]
        if op.psd(-op.accumulate(op.multipliers(w, r))[part.blocks]):
            return values[k]
    return float("nan")


def _diagonal(X: np.ndarray) -> np.ndarray:
    """The writable diagonal of X, or of each matrix of a stack."""
    return np.einsum("...ii->...i", X)


def _diag(lam: np.ndarray) -> np.ndarray:
    out = np.zeros(lam.shape + lam.shape[-1:])
    _diagonal(out)[...] = lam
    return out


def _pair_scale(lam: np.ndarray) -> np.ndarray:
    """lam_a^-1/2 lam_b^-1/2: scales a step to ``Lam^-1/2 dX Lam^-1/2``."""
    s = 1.0 / np.sqrt(lam)
    return s[..., :, None] * s[..., None, :]


def _corrector(dWa: np.ndarray, dSa: np.ndarray, lam: np.ndarray, target: float):
    """The corrector's K: aim at ``target = sigma mu`` on the central path,
    with the predictor's second-order term."""
    C = dWa @ dSa
    C = -0.5 * (C + C.swapaxes(-1, -2))
    _diagonal(C)[...] += target - lam * lam
    return 2.0 * C / (lam[..., :, None] + lam[..., None, :])


def _interior_point(op, w: np.ndarray, z: np.ndarray, W: np.ndarray, tol: float):
    """The primal-dual iteration on op's cone from W, on all of its parts at
    once: one step length, mu and sigma, and a stop once every part meets
    the stopping test on its own blocks and rows.  Returns the last iterate
    W, the iterations taken, and each part's status, dual bound and largest
    primal residual |Rp| at W."""
    m, size, parts = len(z), op.size, op.parts
    AW = op.values(W)
    res = z - AW[:m]
    # A centered start: on each part S a multiple of I with <W, S> = f(W),
    # and r primal feasible (with zero multipliers y of the hard rows).
    S = op.identity(1.0)
    for part in parts:
        a = part.reads
        misfit = float(np.dot(w[a], res[a] * res[a]))
        S[part.blocks] *= misfit / op.trace(W[part.blocks])
    r = np.concatenate([res, np.zeros(len(op.b))])
    iterations = 0
    status = "converged"
    feasible: List[List[np.ndarray]] = [[] for _ in parts]
    done = [False] * len(parts)

    while True:
        AW = op.values(W)
        res = z - AW[:m]
        Rd = S + op.accumulate(op.multipliers(w, r))
        for k, part in enumerate(parts):
            b, a = part.blocks, part.reads
            Sk = S[b]
            dual_feasible = np.linalg.norm(Rd[b]) <= tol * max(1.0, np.linalg.norm(Sk))
            # At the last iterates S's smallest eigenvalues sink to rounding
            # against its largest, so the final one alone can fail the
            # certificate: every dual-feasible iterate is a candidate.
            if dual_feasible:
                feasible[k].append(r)
            done[k] = dual_feasible and _converged(
                float(np.vdot(W[b], Sk)),
                float(np.dot(w[a], res[a] * res[a])),
                tol,
                part.size,
            )
        if all(done):
            break
        if iterations >= MAX_ITERATIONS:
            status = "max_iter"
            break
        Rp = np.concatenate([res - r[:m], op.b - AW[m:]])
        lin = _linearize(op, w, W, S, Rp, Rd)
        if lin is None:
            status = "numerical_failure"
            break
        R, lam, direction = lin
        mu = float(np.vdot(lam, lam)) / size
        s = _pair_scale(lam)
        # Predictor: the affine-scaling direction, K = -Lam, for which
        # R K R^T = -W.  Its scaled W step is -Lam minus its scaled S step,
        # so one spectrum gives both distances to the boundary.
        Lam = _diag(lam)
        dWa, dSa, _, _ = direction(-Lam, -AW)
        lo, hi = op.ends(dSa * s)
        t = _step_length(lo, -1.0 - hi)
        mu_aff = float(np.vdot(Lam + t * dWa, Lam + t * dSa)) / size
        K = _corrector(dWa, dSa, lam, _sigma(mu_aff, mu) * mu)
        dWt, dSt, dS, dr = direction(K)
        t = _step_length(op.lowest(dWt * s), op.lowest(dSt * s))
        dW = R @ dWt @ R.swapaxes(-1, -2)
        W = W + (0.5 * t) * (dW + dW.swapaxes(-1, -2))
        S = S + t * dS
        r = r + t * dr
        iterations += 1
    if status == "numerical_failure":
        statuses = [status] * len(parts)
    else:
        statuses = ["converged" if ok else "max_iter" for ok in done]
    bounds = [_best_bound(op, w, z, c, part) for c, part in zip(feasible, parts)]
    AW = op.values(W)
    Rp = np.abs(np.concatenate([z - r[:m] - AW[:m], op.b - AW[m:]]))
    residuals = [
        float(np.concatenate([Rp[part.reads], Rp[m:][part.hard]]).max())
        for part in parts
    ]
    return W, iterations, statuses, bounds, residuals


def solve(problem: SdpProblem, config: Optional[SolverConfig] = None) -> SolveReport:
    """One problem on the clique cone of ``_cliques``, or on the dense cone
    when that rule gives none."""
    if config is None:
        config = SolverConfig()
    dim = problem.dim
    keep, terms = cone = _reduce(problem)
    op = _cliques([problem], [cone])
    if op is None:
        op = terms

    # The per-unit start: diag W = |V|^2 is about 1 at the optimum, whatever
    # the readings weigh, and 0.1 I sits inside the cone on that scale
    # without fitting any of them.  It must stay full rank: a start near
    # rank one steers the solve to a near rank-one W even where the readings
    # leave the state free, and lambda2/lambda1 of the relaxed W is the flag
    # that reports such a state as unrecoverable.
    W = op.identity(_W0)
    if config.initial_W is not None:
        if config.initial_W.shape != (dim, dim):
            raise ValidationError(
                f"initial_W must have shape ({dim}, {dim}), "
                f"got {config.initial_W.shape}"
            )
        W0 = op.restrict(np.array(config.initial_W[np.ix_(keep, keep)], dtype=float))
        if op.psd(W0 + op.identity(1e-12)):
            W = W0 + op.identity(1e-8)
    return _run([problem], [cone], op, W, config)[0]


def solve_many(
    problems: Sequence[SdpProblem], config: Optional[SolverConfig] = None
) -> List[SolveReport]:
    """``solve`` of each problem, in order.  Two or more problems with no
    start given are solved together when ``_cliques`` gives one clique cone
    of them all; when that joint loop fails, or there is no such cone, each
    problem is solved alone."""
    if config is None:
        config = SolverConfig()
    if len(problems) > 1 and config.initial_W is None:
        cones = [_reduce(problem) for problem in problems]
        op = _cliques(problems, cones)
        if op is not None:
            reports = _run(problems, cones, op, op.identity(_W0), config)
            if all(report.status != "numerical_failure" for report in reports):
                return reports
    return [solve(problem, config) for problem in problems]


def _reduce(problem: SdpProblem) -> Tuple[np.ndarray, _Terms]:
    """The kept indices (anchors' imaginary parts dropped) and the dense
    term table on them."""
    n = problem.dim // 2
    drop = [n + a for a in problem.anchors]
    keep = np.delete(np.arange(problem.dim, dtype=np.intp), drop)
    return keep, _Terms(problem, keep)


def _cliques(
    problems: Sequence[SdpProblem], cones: Sequence[Tuple[np.ndarray, _Terms]]
) -> Optional[_CliqueTerms]:
    """One clique cone of all the problems, given their kept indices and term
    tables (``_reduce``): None unless their reduced dimensions sum to at
    least ``CLIQUE_MIN_DIM`` and the node graph of each is a tree with an
    anchor (``_branch_cliques``).  One problem is a forest of one tree."""
    if sum(terms.d for _, terms in cones) < CLIQUE_MIN_DIM:
        return None
    parts = []
    for problem, (keep, terms) in zip(problems, cones):
        tree = _branch_cliques(problem, terms, keep)
        if tree is None:
            return None
        parts.append((terms, keep, tree))
    return _CliqueTerms(parts)


def _run(
    problems: Sequence[SdpProblem],
    cones: Sequence[Tuple[np.ndarray, _Terms]],
    op,
    W: np.ndarray,
    config: SolverConfig,
) -> List[SolveReport]:
    """The interior-point loop on op from W, then each problem's report
    from its own part of the last iterate: its completion, its polish from
    the leading eigenvector (on its kept indices and term table, ``cones``)
    and its rank-1 ratio."""
    w = np.concatenate([1.0 / (p.sigma * p.sigma) for p in problems])
    z = np.concatenate([p.z for p in problems])
    W, iterations, statuses, bounds, residuals = _interior_point(
        op, w, z, W, config.convergence_tol
    )
    res = z - op.values(W)[: len(z)]
    reports = []
    for problem, (keep, terms), part, status, dual_bound, primal_residual in zip(
        problems, cones, op.parts, statuses, bounds, residuals
    ):
        a = part.reads
        objective = float(np.dot(w[a], res[a] * res[a]))
        Wk = op.complete(W, part)
        polished_X = None
        ratio_raw = float("nan")
        if status != "numerical_failure":
            vals, vecs = np.linalg.eigh(Wk)
            lam1 = vals[-1]
            if lam1 > 0:
                ratio_raw = (max(vals[-2], 0.0) if terms.d > 1 else 0.0) / lam1
                polished_X, objective = _polish(
                    terms, problem.z, w[a], np.sqrt(lam1) * vecs[:, -1]
                )
        dim = problem.dim
        W_full = np.zeros((dim, dim))
        W_full[np.ix_(keep, keep)] = Wk
        X_full = None
        if polished_X is not None:
            X_full = np.zeros(dim)
            X_full[keep] = polished_X
        reports.append(
            SolveReport(
                W=W_full,
                objective=objective,
                iterations=iterations,
                status=status,
                polished_X=X_full,
                rank1_ratio_raw=ratio_raw,
                dual_bound=dual_bound,
                blocks=part.count,
                primal_residual=primal_residual,
            )
        )
    return reports


def _polish(
    terms: _Terms, z: np.ndarray, w: np.ndarray, X: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Levenberg-Marquardt on the unlifted state from the seed X (the relaxed
    solution's leading eigenvector state).  Only descending steps are taken,
    so the result fits no worse than X X^T.  Returns the refined state and its
    objective.

    With r the residual, Jw the weighted Jacobian of r, ``g = Jw^T (sqrt(w) o
    r)`` and ``H = Jw^T Jw``, the step s solves ``(H + lam I) s = -g``, and the
    Gauss-Newton model predicts the decrease ``-(2 g . s + s . H s) = s . H s
    + 2 lam |s|^2 >= 0``.  The misfit f is a sum of m rounded terms, so once
    that is at most 1e-14 f no step can descend by more than f's rounding:
    the descent stops there, before evaluating X + s.  Otherwise it stops at
    f < 1e-30, at a step below 1e-14, when lam passes 1e8 after rejected
    steps, or after 60 steps."""
    sw = np.sqrt(w)
    lam = 1e-8
    r = z - terms.quad_values(X)
    fx = float(np.dot(w, r * r))
    for _ in range(60):
        Jw = -2.0 * sw[:, None] * terms.jac_rows(X)
        g = Jw.T @ (sw * r)
        H = Jw.T @ Jw
        F = _factor_spd(H + lam * np.eye(len(X)))
        if F is None:
            break
        step = dpotrs(F, -g, lower=1)[0]
        if float(step @ H @ step) + 2.0 * lam * float(step @ step) <= 1e-14 * fx:
            break
        Xn = X + step
        rn = z - terms.quad_values(Xn)
        fn = float(np.dot(w, rn * rn))
        if fn < fx:
            X, r, fx = Xn, rn, fn
            lam = max(lam * 0.3, 1e-14)
            if fx < 1e-30 or float(np.linalg.norm(step)) < 1e-14:
                break
        else:
            lam *= 10.0
            if lam > 1e8:
                break
    return X, fx
