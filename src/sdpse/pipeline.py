"""End-to-end estimation runs.  The monolithic ``estimate`` lives with the
problem it solves, in ``problem``; a decoupled run over a partition plan
takes each sub-network through its steps, solving them all at once, and
merges them."""

from __future__ import annotations

from typing import Optional, Sequence

from .measurements import Measurement
from .network import NetworkModel
from .partition import PartitionPlan, estimate_decoupled
from .problem import EstimationResult, estimate
from .solver import SolverConfig

__all__ = ["EstimationResult", "estimate", "estimate_with_plan"]


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
