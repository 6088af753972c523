"""Structural observability analysis of a measurement set.

The lifted formulation has 3 distinct unknowns per node and 4 per branch,
while even the largest measurement set supplies only n + 2m independent
equations, so the margin is thin and one-sided branch flows are enough to
break it.  The analysis here is combinatorial (coefficient supports and
redundancy identities), not a numerical rank computation.  The identities and
the one-sided branch pairs come from ``MeasurementMatrixSet.identities`` and
``MeasurementMatrixSet.one_sided``, the enumerators that observability repair
and bad-data detection use as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from .measurements import Measurement
from .network import NetworkModel
from .sdpmat import Identity, MeasurementMatrixSet, count_variables


@dataclass
class ObservabilityReport:
    distinct_vars: int
    independent_ceiling: int
    measured_distinct: int
    redundancy_deductions: int
    independent_eqs_available: int
    redundancy_points: List[dict] = field(default_factory=list)
    unobservable_branches: List[dict] = field(default_factory=list)
    uncovered_nodes: List[dict] = field(default_factory=list)
    verdict: str = "observable"  # observable | repairable | unobservable

    def to_dict(self) -> dict:
        return {
            "distinct_vars": self.distinct_vars,
            "independent_ceiling": self.independent_ceiling,
            "measured_distinct": self.measured_distinct,
            "redundancy_deductions": self.redundancy_deductions,
            "independent_eqs_available": self.independent_eqs_available,
            "redundancy_points": self.redundancy_points,
            "unobservable_branches": self.unobservable_branches,
            "uncovered_nodes": self.uncovered_nodes,
            "verdict": self.verdict,
        }


_BRANCH_IDENTITY = {"branch_1": "loss", "branch_2": "voltage_drop"}


def _point(model: NetworkModel, identity: Identity) -> dict:
    if identity.kind in ("node_P", "node_Q"):
        return {
            "type": "node",
            "quantity": identity.kind[-1],
            "node": model.node_name(identity.location[0]),
        }
    l, m = identity.location
    return {
        "type": "branch",
        "identity": _BRANCH_IDENTITY[identity.kind],
        "from": model.node_name(l),
        "to": model.node_name(m),
    }


def analyze(
    model: NetworkModel,
    mats: MeasurementMatrixSet,
    measurements: Sequence[Measurement],
) -> ObservabilityReport:
    counts = count_variables(model.n_nodes, model.n_closed_branches)
    measured: Set[Tuple[str, int, Optional[int]]] = set()
    for m in measurements:
        measured.add((m.kind, m.node, m.far_node))

    identities = mats.identities(measured)
    deductions = len(identities)
    redundancy_points = [_point(model, ident) for ident in identities]
    one_sided = [
        {"from": model.node_name(near), "to": model.node_name(far)}
        for near, far in mats.one_sided(measured)
    ]

    # Coverage: a node that no measurement's coefficient support touches can
    # take any value without changing a single residual.
    covered: Set[int] = set()
    for m in measurements:
        if m.kind in ("P_inj", "Q_inj"):
            covered.add(m.node)
            covered.update(model.neighbors(m.node))
        elif m.kind in ("P_flow", "Q_flow"):
            covered.add(m.node)
            covered.add(m.far_node)
        else:
            covered.add(m.node)
    uncovered = [
        model.node_name(k) for k in range(mats.n_nodes) if k not in covered
    ]

    if uncovered:
        verdict = "unobservable"
    elif one_sided:
        verdict = "repairable"
    else:
        verdict = "observable"

    available = min(len(measured) - deductions, counts["independent"])
    return ObservabilityReport(
        distinct_vars=counts["distinct"],
        independent_ceiling=counts["independent"],
        measured_distinct=len(measured),
        redundancy_deductions=deductions,
        independent_eqs_available=available,
        redundancy_points=redundancy_points,
        unobservable_branches=one_sided,
        uncovered_nodes=uncovered,
        verdict=verdict,
    )
