"""The relaxed estimation problem: assembly, solve to a state, residuals, and
``estimate``, the one path from readings to a state.

The estimation problem is: minimize the weighted sum of squared residuals
(z_i - Tr(A_i W))^2 / sigma_i^2 over PSD matrices W, with the angle reference
fixed by forcing the imaginary-part diagonal entry of each anchor node to
zero (a PSD matrix with a zero diagonal entry has the whole row zero, which
pins that node's angle to zero exactly).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import RankRecoveryError, SolverError, UnobservableError, ValidationError
from .measurements import Measurement, X_to_state, repair_observability
from .network import NetworkModel
from .observability import analyze
from .sdpmat import MeasurementMatrixSet, build_matrix_set
from .solver import SolveReport, SolverConfig, solve

RANK1_SILENT = 1e-4
RANK1_ERROR = 0.1


@dataclass
class SdpProblem:
    matrix_set: MeasurementMatrixSet
    rows: np.ndarray  # row id of each measurement in the matrix set
    z: np.ndarray
    sigma: np.ndarray
    anchors: List[int]
    measurements: List[Measurement]

    @property
    def dim(self) -> int:
        return self.matrix_set.dim

    @property
    def n_measurements(self) -> int:
        return len(self.rows)


def lifted_readings(
    mats: MeasurementMatrixSet, measurements: Sequence[Measurement]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row ids, targets z_i and sigmas of readings as functionals of W.

    Magnitude readings are squared here; their sigma is propagated to first
    order (sigma of |V|^2 is about 2 |V| sigma of |V|).
    """
    rows = mats.rows_of((m.kind, m.node, m.far_node) for m in measurements)
    value = np.array([m.value for m in measurements], dtype=float)
    sigma = np.array([m.sigma for m in measurements], dtype=float)
    vmag = np.array([m.kind == "Vmag" for m in measurements], dtype=bool)
    z = np.where(vmag, value * value, value)
    sig = np.where(vmag, np.maximum(2.0 * np.abs(value) * sigma, 1e-12), sigma)
    bad = np.flatnonzero(~(np.isfinite(z) & np.isfinite(sig)))
    if len(bad):
        i = int(bad[0])
        raise ValidationError(
            f"measurement {i}: non-finite reading {measurements[i].value}"
        )
    return rows, z, sig


def assemble_problem(
    mats: MeasurementMatrixSet,
    measurements: Sequence[Measurement],
    anchors: Sequence[int],
) -> SdpProblem:
    """Turn measurements into (row, z_i, sigma_i) triples plus anchors,
    deduplicated in the given order."""
    if not measurements:
        raise ValidationError("empty measurement list")
    n = mats.n_nodes
    anchors = list(dict.fromkeys(int(a) for a in anchors))
    for a in anchors:
        if not (0 <= a < n):
            raise ValidationError(f"anchor node {a} out of range")
    unreached = mats.model.unreached(anchors)
    if len(unreached):
        raise ValidationError(
            f"no anchor in connected component containing node {unreached[0]}; "
            "the angle reference is undetermined"
        )
    rows, z, sig = lifted_readings(mats, measurements)
    return SdpProblem(
        matrix_set=mats,
        rows=rows,
        z=z,
        sigma=sig,
        anchors=anchors,
        measurements=list(measurements),
    )


def compute_residuals(
    problem: SdpProblem, W: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Raw residuals z_i - Tr(A_i W) and their sigma-normalized values."""
    r = problem.z - problem.matrix_set.values(problem.rows, W)
    return r, r / problem.sigma


def solve_to_state(
    problem: SdpProblem, config: Optional[SolverConfig] = None
) -> Tuple[SolveReport, np.ndarray, float]:
    """Solve and return the report, the polished rank-one state X and the
    rank-1 ratio.

    X has its sign fixed so the first anchor's real part is non-negative.
    The ratio is lambda2/lambda1 of the relaxed solution and is checked as
    ``extract_state`` checks it.
    """
    report = solve(problem, config)
    if report.status == "numerical_failure":
        raise SolverError("solver failed to produce a PSD iterate")
    if report.polished_X is None:
        raise SolverError("degenerate lifted state: leading eigenvalue <= 0")
    X = report.polished_X
    if X[problem.anchors[0]] < 0:
        X = -X
    _check_rank1(report.rank1_ratio_raw)
    return report, X, report.rank1_ratio_raw


def extract_state(W: np.ndarray, anchors: Sequence[int]) -> Tuple[np.ndarray, float]:
    """Best rank-one factor of W and the quality ratio lambda2/lambda1.

    The global sign is fixed so the first anchor node's real part is
    positive.  A large ratio means the relaxation did not land near a
    physical state; that raises instead of returning garbage.
    """
    W = np.asarray(W, dtype=float)
    vals, vecs = np.linalg.eigh(W)
    lam1 = vals[-1]
    lam2 = max(vals[-2], 0.0) if len(vals) > 1 else 0.0
    if lam1 <= 0:
        raise SolverError("degenerate lifted state: leading eigenvalue <= 0")
    ratio = lam2 / lam1
    X = np.sqrt(lam1) * vecs[:, -1]
    pivot = int(anchors[0]) if len(anchors) else int(np.argmax(np.abs(X)))
    if X[pivot] == 0.0:
        pivot = int(np.argmax(np.abs(X)))
    if X[pivot] < 0:
        X = -X
    _check_rank1(ratio)
    return X, float(ratio)


def _check_rank1(ratio: float) -> None:
    """Raise above RANK1_ERROR, warn above RANK1_SILENT."""
    if ratio > RANK1_ERROR:
        raise RankRecoveryError(
            f"rank-1 quality ratio {ratio:.3g} exceeds {RANK1_ERROR}; "
            "the measurement set likely leaves the state undetermined"
        )
    if ratio > RANK1_SILENT:
        warnings.warn(
            f"rank-1 quality ratio {ratio:.3g} above {RANK1_SILENT}; "
            "treat the extracted state with caution",
            stacklevel=3,
        )


@dataclass
class EstimationResult:
    V: np.ndarray  # complex node voltages
    rank1_ratio: float
    objective: float
    iterations: int
    status: str
    residuals: Optional[np.ndarray] = None
    normalized_residuals: Optional[np.ndarray] = None
    measurements: List[Measurement] = field(default_factory=list)
    repair_log: List[dict] = field(default_factory=list)
    # A decoupled estimate's per-sub-network results, in plan order.
    sub_reports: List["EstimationResult"] = field(default_factory=list)


def estimate(
    model: NetworkModel,
    measurements: Sequence[Measurement],
    anchors: Sequence[int],
    config: Optional[SolverConfig] = None,
    repair_method: Optional[str] = "negate",
    mats: Optional[MeasurementMatrixSet] = None,
) -> EstimationResult:
    """Estimate the state of one network: observability gate, optional
    repair, solve to a state, residuals.

    With ``repair_method`` set, one-sided branch flows get their far-end
    pseudo-measurement before solving.  With it disabled, any observability
    gap is a hard error: a solve would return a low-quality state whose
    extraction is meaningless.
    """
    if mats is None:
        mats = build_matrix_set(model)
    report_obs = analyze(model, mats, measurements)
    repair_log: List[dict] = []
    meas = list(measurements)
    if report_obs.verdict == "unobservable":
        raise UnobservableError(
            "measurement set leaves nodes uncovered: "
            f"{report_obs.uncovered_nodes[:5]}"
        )
    if report_obs.verdict == "repairable":
        if repair_method is None:
            raise UnobservableError(
                "one-sided flow measurements make the problem unobservable "
                f"({len(report_obs.unobservable_branches)} branch(es)); "
                "enable observability repair or supply far-end readings"
            )
        meas, repair_log = repair_observability(model, mats, meas, repair_method)

    problem = assemble_problem(mats, meas, anchors)
    report, X, ratio = solve_to_state(problem, config)
    r, rn = compute_residuals(problem, np.outer(X, X))
    return EstimationResult(
        V=X_to_state(X),
        rank1_ratio=ratio,
        objective=report.objective,
        iterations=report.iterations,
        status=report.status,
        residuals=r,
        normalized_residuals=rn,
        measurements=meas,
        repair_log=repair_log,
    )
