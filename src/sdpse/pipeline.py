"""End-to-end estimation runs: observability gate, optional repair,
monolithic or decoupled solve, state extraction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .errors import UnobservableError
from .measurements import Measurement, X_to_state, repair_observability
from .network import NetworkModel
from .observability import analyze
from .partition import PartitionPlan, SubReport, estimate_decoupled
from .problem import assemble_problem, compute_residuals, solve_to_state
from .sdpmat import MeasurementMatrixSet, build_matrix_set
from .solver import SolverConfig


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
    sub_reports: List[SubReport] = field(default_factory=list)
    W: Optional[np.ndarray] = None


def estimate(
    model: NetworkModel,
    measurements: Sequence[Measurement],
    anchors: Sequence[int],
    config: Optional[SolverConfig] = None,
    repair_method: Optional[str] = "negate",
    mats: Optional[MeasurementMatrixSet] = None,
) -> EstimationResult:
    """Monolithic estimate.

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
    V = X_to_state(X)
    r, rn = compute_residuals(problem, np.outer(X, X))
    return EstimationResult(
        V=V,
        rank1_ratio=ratio,
        objective=report.objective,
        iterations=report.iterations,
        status=report.status,
        residuals=r,
        normalized_residuals=rn,
        measurements=meas,
        repair_log=repair_log,
        sub_reports=[],
        W=report.W,
    )


def estimate_with_plan(
    model: NetworkModel,
    measurements: Sequence[Measurement],
    plan: PartitionPlan,
    config: Optional[SolverConfig] = None,
    repair_method: Optional[str] = "negate",
) -> EstimationResult:
    """Decoupled estimate over a partition plan, merged to full-network
    indexing."""
    V, sub_reports = estimate_decoupled(
        model, measurements, plan, config, repair_method
    )
    return EstimationResult(
        V=V,
        rank1_ratio=max(s.rank1_ratio for s in sub_reports),
        objective=sum(s.objective for s in sub_reports),
        iterations=sum(s.iterations for s in sub_reports),
        status="converged"
        if all(s.status == "converged" for s in sub_reports)
        else "max_iter",
        measurements=list(measurements),
        sub_reports=sub_reports,
    )
