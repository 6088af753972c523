"""Pre-estimation bad-data detection via redundancy tests, and identification
by re-estimation sweeps.

Every fully-metered node yields an exact balance identity (injection plus
incident flows), and every fully-metered zero-shunt branch yields two more
(loss balance and voltage drop); ``MeasurementMatrixSet.identities`` lists
them, the same list that observability analysis counts.  Under clean data
each identity's residual is zero-mean Gaussian with a composable variance; a
residual far outside its sigma flags all participating measurements as
suspects.  Identification then tries, for each combination of one suspect per
violated identity, replacing the hypothesized culprit by the value its own
identity implies, re-running the estimator, and keeping the combination that
best explains the untouched measurements.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceededError, SolverError, ValidationError
from .measurements import Measurement, state_to_X
from .network import NetworkModel
from .problem import EstimationResult, estimate, lifted_readings
from .sdpmat import MeasurementMatrixSet
from .solver import SolverConfig

SIGMA2_FLOOR = 1e-18


@dataclass
class RedundancyResidual:
    kind: str  # node_P | node_Q | branch_1 | branch_2
    location: Tuple
    u: float
    sigma: float
    normalized: float
    members: List[int]
    # Identity terms (measurement index, coefficient, squares_value) with
    # sum(coeff * signal) expected to vanish; signal is the reading itself,
    # or its square for magnitude channels.
    terms: List[Tuple[int, float, bool]] = field(default_factory=list)

    def to_dict(self, model: NetworkModel) -> dict:
        return {
            "kind": self.kind,
            "location": _loc_name(model, self.location),
            "u": self.u,
            "sigma": self.sigma,
            "normalized": self.normalized,
            "members": self.members,
        }


@dataclass
class SuspectSet:
    trigger: RedundancyResidual
    members: List[int]


def _loc_name(model: NetworkModel, loc: Tuple) -> dict:
    if len(loc) == 1:
        return model.node_name(loc[0])
    return {"from": model.node_name(loc[0]), "to": model.node_name(loc[1])}


def prefilter_obvious(
    measurements: Sequence[Measurement],
) -> Tuple[List[Measurement], List[dict]]:
    """Strip readings that are wrong on their face (non-finite values,
    non-positive magnitudes) before any statistics run."""
    kept: List[Measurement] = []
    removed: List[dict] = []
    for i, m in enumerate(measurements):
        if not math.isfinite(m.value):
            removed.append({"index": i, "kind": m.kind, "reason": "non-finite value"})
        elif m.kind == "Vmag" and m.value <= 0:
            removed.append(
                {"index": i, "kind": m.kind, "reason": "non-positive magnitude"}
            )
        else:
            kept.append(m)
    return kept, removed


def compute_redundancy_residuals(
    model: NetworkModel,
    mats: MeasurementMatrixSet,
    measurements: Sequence[Measurement],
) -> List[RedundancyResidual]:
    idx: Dict[Tuple, int] = {}
    for i, m in enumerate(measurements):
        idx[(m.kind, m.node, m.far_node)] = i

    out: List[RedundancyResidual] = []
    for identity in mats.identities(idx):
        terms = [(idx[loc], coeff, squared) for loc, coeff, squared in identity.terms]
        u, var = _identity_sum(measurements, terms)
        if var <= 0:
            warnings.warn(
                f"{identity.kind} residual variance non-positive ({var:.3g}) at "
                f"{identity.location}; flooring at {SIGMA2_FLOOR}",
                stacklevel=2,
            )
        sigma = math.sqrt(max(var, SIGMA2_FLOOR))
        out.append(
            RedundancyResidual(
                kind=identity.kind,
                location=identity.location,
                u=u,
                sigma=sigma,
                normalized=u / sigma,
                members=[i for i, _, _ in terms],
                terms=terms,
            )
        )
    return out


def _identity_sum(
    measurements: Sequence[Measurement],
    terms: Sequence[Tuple[int, float, bool]],
    skip: Optional[int] = None,
) -> Tuple[float, float]:
    """Sum of coeff * s over the identity terms other than ``skip``, and its
    variance, the sum of coeff^2 * var(s); s is the reading, or its square
    for magnitude channels."""
    u = var = 0.0
    for i, coeff, squared in terms:
        if i == skip:
            continue
        meas = measurements[i]
        s = meas.value**2 if squared else meas.value
        var_s = (2 * meas.value * meas.sigma) ** 2 if squared else meas.variance
        u += coeff * s
        var += coeff * coeff * var_s
    return u, var


def detect(
    model: NetworkModel,
    mats: MeasurementMatrixSet,
    measurements: Sequence[Measurement],
    threshold: float = 3.0,
) -> List[SuspectSet]:
    residuals = compute_redundancy_residuals(model, mats, measurements)
    return _suspect_sets(residuals, threshold)


def _suspect_sets(
    residuals: Sequence[RedundancyResidual], threshold: float
) -> List[SuspectSet]:
    if not (threshold > 0):
        raise ValidationError("threshold must be positive")
    return [
        SuspectSet(trigger=r, members=list(r.members))
        for r in residuals
        if abs(r.normalized) > threshold
    ]


def _replace_from_identity(
    measurements: List[Measurement], residual: RedundancyResidual, target: int
) -> Optional[Measurement]:
    """Solve the identity for the target measurement; None when infeasible."""
    own = [(coeff, squared) for i, coeff, squared in residual.terms if i == target]
    if not own or own[0][0] == 0.0:
        return None
    c_k, squared_k = own[0]
    acc, var_acc = _identity_sum(measurements, residual.terms, skip=target)
    s_k = -acc / c_k
    var_k = var_acc / (c_k * c_k)
    old = measurements[target]
    if squared_k:
        if s_k <= 0:
            return None
        value = math.sqrt(s_k)
        sigma = math.sqrt(max(var_k, SIGMA2_FLOOR)) / (2.0 * value)
    else:
        value = s_k
        sigma = math.sqrt(max(var_k, SIGMA2_FLOOR))
    return replace(old, value=value, sigma=sigma)


def identify_and_reestimate(
    model: NetworkModel,
    mats: MeasurementMatrixSet,
    measurements: Sequence[Measurement],
    suspects: Sequence[SuspectSet],
    anchors: Sequence[int],
    config: Optional[SolverConfig] = None,
    max_combinations: int = 256,
) -> Tuple[List[int], EstimationResult, int]:
    """Try every one-culprit-per-suspect-set combination; keep the one whose
    re-estimate best fits the untouched measurements.

    Returns (culprit indices, winning estimate, combinations evaluated).
    """
    if not suspects:
        raise ValidationError("identification needs at least one suspect set")
    total = 1
    for s in suspects:
        total *= len(s.members)
    if total > max_combinations:
        raise BudgetExceededError(
            f"{total} replacement combinations exceed the budget of "
            f"{max_combinations}; raise the detection threshold or the budget"
        )

    meas_list = list(measurements)
    best: Optional[Tuple[float, List[int], EstimationResult]] = None
    evaluated = 0
    for combo in itertools.product(*(s.members for s in suspects)):
        chosen = sorted(set(combo))
        trial = list(meas_list)
        feasible = True
        for s, target in zip(suspects, combo):
            rep = _replace_from_identity(meas_list, s.trigger, target)
            if rep is None:
                feasible = False
                break
            trial[target] = rep
        if not feasible:
            continue
        evaluated += 1
        try:
            result = estimate(
                model, trial, anchors, config, repair_method="negate", mats=mats
            )
        except SolverError:
            continue
        err = _fit_error(mats, meas_list, result, exclude=set(chosen))
        if best is None or err < best[0]:
            best = (err, chosen, result)
    if best is None:
        raise SolverError("every replacement combination failed to solve")
    return best[1], best[2], evaluated


def _fit_error(
    mats: MeasurementMatrixSet,
    measurements: List[Measurement],
    result: EstimationResult,
    exclude: set,
) -> float:
    kept = [m for i, m in enumerate(measurements) if i not in exclude]
    rows, z, sigma = lifted_readings(mats, kept)
    X = state_to_X(result.V)
    r = (z - mats.values(rows, np.outer(X, X))) / sigma
    return float(np.dot(r, r))


def run_bad_data(
    model: NetworkModel,
    mats: MeasurementMatrixSet,
    measurements: Sequence[Measurement],
    anchors: Sequence[int],
    config: Optional[SolverConfig] = None,
    threshold: float = 3.0,
    max_combinations: int = 256,
) -> Tuple[dict, EstimationResult]:
    """Full pipeline: prefilter, detect, identify (if needed), estimate."""
    kept, removed = prefilter_obvious(measurements)
    residuals = compute_redundancy_residuals(model, mats, kept)
    suspects = _suspect_sets(residuals, threshold)
    if suspects:
        culprits, result, evaluated = identify_and_reestimate(
            model, mats, kept, suspects, anchors, config, max_combinations
        )
    else:
        culprits, evaluated = [], 0
        result = estimate(model, kept, anchors, config, repair_method="negate", mats=mats)
    report = {
        "removed_obvious": removed,
        "residuals": [r.to_dict(model) for r in residuals],
        "suspects": [
            {"trigger": s.trigger.to_dict(model), "members": s.members}
            for s in suspects
        ],
        "culprits": [
            {
                "index": i,
                "kind": kept[i].kind,
                "location": _loc_name(
                    model,
                    (kept[i].node,)
                    if kept[i].far_node is None
                    else (kept[i].node, kept[i].far_node),
                ),
            }
            for i in culprits
        ],
        "combinations_evaluated": evaluated,
    }
    return report, result
