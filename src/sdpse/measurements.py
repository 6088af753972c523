"""Measurement data model, synthesis from ground truth, and far-end
pseudo-measurements that restore observability.

Flow measurements are referenced into their end node: a reading at (l, m) is
the power the branch delivers into node l.  When a branch only carries
readings at one end, the lifted formulation loses independent equations and
the estimate degrades badly; the repair helpers append a far-end counterpart
with a deliberately inflated standard deviation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import ValidationError
from .network import NetworkModel, parse_number, parse_phase, require_object
from .rand import normal_stream, subseed
from .sdpmat import MeasurementMatrixSet, PairData

KINDS = ("P_inj", "Q_inj", "P_flow", "Q_flow", "Vmag")
PROVENANCES = ("real", "pseudo", "zero_injection")

# Noise standard deviations (pu) per severity level 0..4.
NOISE_LEVELS: Dict[str, Tuple[float, ...]] = {
    "P_inj": (0.0, 1.5e-5, 1.5e-4, 1.5e-3, 1.5e-2),
    "Q_inj": (0.0, 1.5e-5, 1.5e-4, 1.5e-3, 1.5e-2),
    "Vmag": (0.0, 1e-5, 1e-4, 1e-3, 1e-2),
    "P_flow": (0.0, 2e-5, 2e-4, 2e-3, 2e-2),
    "Q_flow": (0.0, 2e-5, 2e-4, 2e-3, 2e-2),
}

# Default recorded standard deviations (pu) used when the noise level gives
# sigma = 0 (a measurement must still carry a positive weight).
DEFAULT_SIGMA: Dict[str, float] = {
    "P_inj": 0.015,
    "Q_inj": 0.015,
    "P_flow": 0.02,
    "Q_flow": 0.02,
    "Vmag": 0.01,
}

PSEUDO_SIGMA_FACTOR = 1000.0


@dataclass(frozen=True)
class Measurement:
    """One scalar reading.

    ``node`` is the measured node; for flows it is the end the reading refers
    to and ``far_node`` the opposite end of the branch.  Vmag values are the
    magnitude reading itself (squaring happens at problem assembly).
    """

    kind: str
    node: int
    value: float
    sigma: float
    far_node: Optional[int] = None
    provenance: str = "real"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown measurement kind {self.kind!r}")
        if self.provenance not in PROVENANCES:
            raise ValidationError(f"unknown provenance {self.provenance!r}")
        if not (self.sigma > 0) or not math.isfinite(self.sigma):
            raise ValidationError(f"sigma must be positive and finite, got {self.sigma}")
        is_flow = self.kind in ("P_flow", "Q_flow")
        if is_flow and self.far_node is None:
            raise ValidationError("flow measurements need far_node")
        if not is_flow and self.far_node is not None:
            raise ValidationError(f"{self.kind} measurement must not set far_node")

    @property
    def variance(self) -> float:
        return self.sigma * self.sigma


@dataclass(frozen=True)
class NoiseSpec:
    """Either a severity level 0..4 or an explicit per-kind sigma table."""

    level: Optional[int] = None
    table: Optional[Dict[str, float]] = None
    seed: int = 0

    def __post_init__(self):
        if (self.level is None) == (self.table is None):
            raise ValidationError("specify exactly one of level or table")
        if self.level is not None and self.level not in range(5):
            raise ValidationError(f"noise level must be 0..4, got {self.level}")
        if self.table is not None:
            bad = {k: v for k, v in self.table.items() if k not in KINDS or v < 0}
            if bad:
                raise ValidationError(f"bad noise table entries: {bad}")

    def noise_sigma(self, kind: str) -> float:
        if self.level is not None:
            return NOISE_LEVELS[kind][self.level]
        return self.table.get(kind, 0.0)

    def recorded_sigma(self, kind: str) -> float:
        s = self.noise_sigma(kind)
        return s if s > 0 else DEFAULT_SIGMA[kind]


PlanEntry = Tuple[str, int, Optional[int]]


def default_plan(
    model: NetworkModel,
    mats: MeasurementMatrixSet,
    vmag_nodes: Optional[Sequence[int]] = None,
) -> List[PlanEntry]:
    """One-sided flows on every branch pair, injection at the feeder head,
    and voltage magnitudes at the given nodes (feeder head by default)."""
    head_nodes = model.nodes_of_bus(model.feeder_head)
    if vmag_nodes is None:
        vmag_nodes = head_nodes
    plan: List[PlanEntry] = []
    seen: Set[Tuple[int, int]] = set()
    for br in model.closed_branches:
        key = (br.from_node, br.to_node)
        if key in seen:
            continue
        seen.add(key)
        seen.add((br.to_node, br.from_node))
        plan.append(("P_flow", br.from_node, br.to_node))
        plan.append(("Q_flow", br.from_node, br.to_node))
    for k in head_nodes:
        plan.append(("P_inj", k, None))
        plan.append(("Q_inj", k, None))
    for k in vmag_nodes:
        plan.append(("Vmag", k, None))
    return plan


def full_plan(model: NetworkModel, mats: MeasurementMatrixSet) -> List[PlanEntry]:
    """Every supported measurement: both-end flows, all injections, all Vmag."""
    plan: List[PlanEntry] = []
    for (l, m) in sorted(mats.pairs):
        plan.append(("P_flow", l, m))
        plan.append(("Q_flow", l, m))
    for k in range(model.n_nodes):
        plan.append(("P_inj", k, None))
        plan.append(("Q_inj", k, None))
    for k in range(model.n_nodes):
        plan.append(("Vmag", k, None))
    return plan


def synthesize(
    model: NetworkModel,
    mats: MeasurementMatrixSet,
    X_true: np.ndarray,
    plan: Sequence[PlanEntry],
    noise: NoiseSpec,
) -> List[Measurement]:
    """Exact evaluations at the true state plus seeded Gaussian noise.

    Deterministic for a fixed (plan, NoiseSpec): the i-th plan entry always
    consumes the i-th draw of the derived stream.
    """
    draws = normal_stream(subseed(noise.seed, "synthesize"), len(plan))
    X = np.asarray(X_true, dtype=float)
    exact = mats.values(mats.rows_of(plan), np.outer(X, X))
    out: List[Measurement] = []
    for (kind, node, far), e, g in zip(plan, exact, draws):
        if kind == "Vmag":
            e = math.sqrt(max(e, 0.0))
        value = e + noise.noise_sigma(kind) * g
        out.append(
            Measurement(
                kind=kind,
                node=node,
                far_node=far,
                value=value,
                sigma=noise.recorded_sigma(kind),
                provenance="real",
            )
        )
    return out


def add_zero_injection(
    model: NetworkModel, bus_ids: Sequence[str], sigma: float = 1e-4
) -> List[Measurement]:
    """Zero P and Q injection readings for every node of the listed buses."""
    out: List[Measurement] = []
    for bid in bus_ids:
        if bid not in model.bus_by_id:
            raise ValidationError(f"zero-injection bus {bid!r} not in network")
        for k in model.nodes_of_bus(bid):
            out.append(Measurement("P_inj", k, 0.0, sigma, provenance="zero_injection"))
            out.append(Measurement("Q_inj", k, 0.0, sigma, provenance="zero_injection"))
    return out


def pseudo_negate(meas: Measurement, pair: PairData) -> Measurement:
    """Far-end flow assuming zero loss on the branch.

    Exact when the relevant impedance component vanishes (resistance for
    active power, reactance for reactive); otherwise the sigma is inflated by
    a factor of 1000 to reflect the neglected loss.
    """
    z = 1.0 / pair.series
    exact = (z.real == 0.0) if meas.kind == "P_flow" else (z.imag == 0.0)
    sigma = meas.sigma if exact else PSEUDO_SIGMA_FACTOR * meas.sigma
    return Measurement(
        kind=meas.kind,
        node=meas.far_node,
        far_node=meas.node,
        value=-meas.value,
        sigma=sigma,
        provenance="pseudo",
    )


def pseudo_efficiency(meas: Measurement, pair: PairData, eta: float) -> Measurement:
    """Far-end flow from a historical transfer-efficiency figure."""
    if not (0.0 < eta <= 1.0):
        raise ValidationError(f"efficiency must be in (0, 1], got {eta}")
    p = meas.value
    value = -p / eta if p >= 0 else -eta * p
    return Measurement(
        kind=meas.kind,
        node=meas.far_node,
        far_node=meas.node,
        value=value,
        sigma=PSEUDO_SIGMA_FACTOR * meas.sigma,
        provenance="pseudo",
    )


def analytic_variance_bound(
    p: float,
    q: float,
    sigma_p: float,
    sigma_q: float,
    vmag: float,
    sigma_v: float,
    r: float,
) -> float:
    """Upper bound on the variance of the analytically-derived far-end flow.

    Composes worst-case bounds for each moment of the loss term
    r * (P^2 + Q^2) / |V|^2 and combines them with the direct term by
    Cauchy-Schwarz, so the result dominates the true variance whenever the
    component bounds hold.
    """
    if vmag - 3.0 * sigma_v <= 0.0:
        raise ValidationError("variance bound needs |V| - 3 sigma_V > 0")
    ap = abs(p) + 3.0 * sigma_p
    aq = abs(q) + 3.0 * sigma_q
    e_s = ap * ap + aq * aq
    var_p2 = 2.0 * sigma_p**4 + 4.0 * sigma_p**2 * ap * ap
    var_q2 = 2.0 * sigma_q**4 + 4.0 * sigma_q**2 * aq * aq
    lo_p = max(abs(p) - 3.0 * sigma_p, 0.0)
    lo_q = max(abs(q) - 3.0 * sigma_q, 0.0)
    cov_bound = ap * ap * aq * aq - lo_p * lo_p * lo_q * lo_q
    var_s = var_p2 + var_q2 + cov_bound
    lo_v = vmag - 3.0 * sigma_v
    hi_v = vmag + 3.0 * sigma_v
    e_inv = 1.0 / (lo_v * lo_v)
    var_inv = 1.0 / lo_v**4 - 1.0 / hi_v**4
    var_loss = var_s * var_inv + var_s * e_inv * e_inv + e_s * e_s * var_inv
    sigma = sigma_p + abs(r) * math.sqrt(var_loss)
    return sigma * sigma


def pseudo_analytic(
    meas_p: Measurement,
    meas_q: Measurement,
    pair: PairData,
    vmag_meas: Optional[Measurement] = None,
    target_kind: str = "P_flow",
) -> Measurement:
    """Far-end flow from the loss equation using both near-end readings.

    With a magnitude reading at the near end, the variance comes from the
    analytical bound; otherwise |V| = 1 is assumed and the sigma is inflated
    by the standard factor.
    """
    z = 1.0 / pair.series
    coeff = z.real if target_kind == "P_flow" else z.imag
    base = meas_p if target_kind == "P_flow" else meas_q
    s2 = meas_p.value**2 + meas_q.value**2
    if vmag_meas is not None:
        v = vmag_meas.value
        sig_v = vmag_meas.sigma
    else:
        v, sig_v = 1.0, 0.0
    value = -base.value - coeff * s2 / (v * v)
    if vmag_meas is not None and v - 3.0 * sig_v > 0.0:
        var = analytic_variance_bound(
            meas_p.value, meas_q.value, meas_p.sigma, meas_q.sigma, v, sig_v, coeff
        )
        sigma = math.sqrt(max(var, 1e-24))
    else:
        sigma = PSEUDO_SIGMA_FACTOR * base.sigma
    return Measurement(
        kind=target_kind,
        node=base.far_node,
        far_node=base.node,
        value=value,
        sigma=sigma,
        provenance="pseudo",
    )


def repair_observability(
    model: NetworkModel,
    mats: MeasurementMatrixSet,
    measurements: Sequence[Measurement],
    method: str = "negate",
    eta: float = 0.98,
) -> Tuple[List[Measurement], List[dict]]:
    """Append one far-end pseudo flow per one-sided branch pair.

    Idempotent: pairs already covered at both ends (by real or pseudo data)
    are left alone, so a second pass is a no-op.  Returns the augmented list
    and a log describing every addition.
    """
    if method not in ("negate", "efficiency", "analytic"):
        raise ValidationError(f"unknown repair method {method!r}")
    by_loc: Dict[PlanEntry, Measurement] = {}
    for m in measurements:
        by_loc[(m.kind, m.node, m.far_node)] = m
    vmag_at: Dict[int, Measurement] = {
        m.node: m for m in measurements if m.kind == "Vmag"
    }
    out = list(measurements)
    log: List[dict] = []
    for near, far in mats.one_sided(by_loc):
        pair = mats.pairs[(near, far)]
        p_here = by_loc.get(("P_flow", near, far))
        q_here = by_loc.get(("Q_flow", near, far))
        z = 1.0 / pair.series
        # Prefer the active-power relation; switch to reactive when the
        # branch is purely resistive (the reactive relation is then exact)
        # or when no active reading exists.
        target = "P_flow"
        if p_here is None or (z.imag == 0.0 and z.real != 0.0 and q_here is not None):
            target = "Q_flow"
        base = p_here if target == "P_flow" else q_here

        if method == "negate":
            pseudo = pseudo_negate(base, pair)
        elif method == "efficiency":
            pseudo = pseudo_efficiency(base, pair, eta)
        else:
            if p_here is not None and q_here is not None:
                pseudo = pseudo_analytic(
                    p_here, q_here, pair, vmag_at.get(base.node), target
                )
            else:
                pseudo = pseudo_negate(base, pair)
        out.append(pseudo)
        log.append(
            {
                "from": model.node_name(pseudo.node),
                "to": model.node_name(pseudo.far_node),
                "kind": pseudo.kind,
                "method": method,
                "value": pseudo.value,
                "sigma": pseudo.sigma,
            }
        )
    return out, log


# ---------------------------------------------------------------------------
# File formats


def measurements_to_doc(model: NetworkModel, measurements: Sequence[Measurement]) -> list:
    doc = []
    for m in measurements:
        nd = model.nodes[m.node]
        rec = {
            "kind": m.kind,
            "bus": nd.bus,
            "phase": nd.phase,
            "value": m.value,
            "sigma": m.sigma,
            "provenance": m.provenance,
        }
        if m.far_node is not None:
            far = model.nodes[m.far_node]
            rec["to_bus"] = far.bus
            rec["to_phase"] = far.phase
        doc.append(rec)
    return doc


def measurements_from_doc(model: NetworkModel, doc: list) -> List[Measurement]:
    if not isinstance(doc, list):
        raise ValidationError("measurement file must be a JSON array")
    out = []
    for i, rec in enumerate(doc):
        require_object(rec, f"measurement {i}")
        allowed = {"kind", "bus", "phase", "to_bus", "to_phase", "value", "sigma", "provenance"}
        extra = set(rec) - allowed
        if extra:
            raise ValidationError(f"measurement {i}: unknown keys {sorted(extra)}")
        try:
            kind = rec["kind"]
            phase = parse_phase(rec.get("phase", "A"), f"measurement {i}: phase")
            node = model.node_of(str(rec["bus"]), phase)
            far = None
            if "to_bus" in rec:
                to_phase = parse_phase(rec.get("to_phase", "A"), f"measurement {i}: to_phase")
                far = model.node_of(str(rec["to_bus"]), to_phase)
            out.append(
                Measurement(
                    kind=kind,
                    node=node,
                    far_node=far,
                    # A non-finite reading loads: the bad-data prefilter
                    # drops it and estimation rejects it.
                    value=parse_number(rec["value"], f"measurement {i}: value", finite=False),
                    sigma=parse_number(rec["sigma"], f"measurement {i}: sigma"),
                    provenance=rec.get("provenance", "real"),
                )
            )
        except KeyError as exc:
            raise ValidationError(f"measurement {i}: missing key {exc}")
    return out


def save_measurements(path: str, model: NetworkModel, measurements: Sequence[Measurement]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(measurements_to_doc(model, measurements), fh, indent=1)
        fh.write("\n")


def load_measurements(path: str, model: NetworkModel) -> List[Measurement]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"measurement file {path}: invalid JSON ({exc})")
    return measurements_from_doc(model, doc)


def state_to_doc(model: NetworkModel, V: np.ndarray) -> list:
    doc = []
    for nd in model.nodes:
        v = V[nd.index]
        doc.append(
            {
                "bus": nd.bus,
                "phase": nd.phase,
                "mag_pu": float(abs(v)),
                "angle_deg": float(np.degrees(np.angle(v))),
            }
        )
    return doc


def state_from_doc(model: NetworkModel, doc: list) -> np.ndarray:
    """Complex node voltages from a state document (every node required)."""
    if not isinstance(doc, list):
        raise ValidationError("state file must be a JSON array")
    V = np.full(model.n_nodes, np.nan + 0j)
    for i, rec in enumerate(doc):
        require_object(rec, f"state record {i}")
        extra = set(rec) - {"bus", "phase", "mag_pu", "angle_deg"}
        if extra:
            raise ValidationError(f"state record {i}: unknown keys {sorted(extra)}")
        try:
            phase = parse_phase(rec.get("phase", "A"), f"state record {i}: phase")
            idx = model.node_of(str(rec["bus"]), phase)
            mag = parse_number(rec["mag_pu"], f"state record {i}: mag_pu")
            angle = parse_number(rec["angle_deg"], f"state record {i}: angle_deg")
            V[idx] = mag * np.exp(1j * np.radians(angle))
        except KeyError as exc:
            raise ValidationError(f"state record {i}: missing key {exc}")
    if np.any(np.isnan(V.real)):
        missing = [
            (nd.bus, nd.phase) for nd in model.nodes if np.isnan(V[nd.index].real)
        ]
        raise ValidationError(f"state file missing nodes: {missing[:5]}")
    return V


def save_state(path: str, model: NetworkModel, V: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_doc(model, V), fh, indent=1)
        fh.write("\n")


def load_state(path: str, model: NetworkModel) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"state file {path}: invalid JSON ({exc})")
    return state_from_doc(model, doc)


def state_to_X(V: np.ndarray) -> np.ndarray:
    return np.concatenate([V.real, V.imag])


def X_to_state(X: np.ndarray) -> np.ndarray:
    n = len(X) // 2
    return X[:n] + 1j * X[n:]
