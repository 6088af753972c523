"""Output checks that do not depend on the program's own arithmetic.

``PowerFlowOracle`` recomputes readings from complex node voltages with plain
complex arithmetic on the network document: injections as
S_k = V_k conj((Y V)_k), branch flows from the series and per-end shunt
admittances.  ``Checker`` holds an estimate of one case to the noise model of
its real readings in two tiers.

An operation fails when the estimate is plainly wrong: its weighted misfit J
exceeds GROSS_MISFIT times the number m of real readings, a node's error
against the truth exceeds GROSS_SIGMAS standard deviations of the linearized
weighted-least-squares estimate, (H^T R^-1 H)^-1 at the true state, or an
anchor node is off its reference angle.

An estimate is *beyond the noise* when it explains the readings worse than the
truth itself does, J above the chi-square bound m + 6 sqrt(2 m) + 10, or a
node's error exceeds ERROR_SIGMAS standard deviations.  That is counted, not
failed: the program's estimates cross it on some noise draws and truth states
and not on others (see CHANGES.md), and a count that depends on the draw
cannot be a failure the benchmark repeats exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from feeders import branch_nodes, closed_branches, node_index

MISFIT_SIGMAS = 6.0
MISFIT_SLACK = 10.0
# A correct estimate stays within a few standard deviations; the relaxation,
# the squared-magnitude weighting and decoupled solves are not the linearized
# estimate, hence the margin of ERROR_SIGMAS.
ERROR_SIGMAS = 25.0
# Gross bounds: an RMS normalized residual of 10, and 100 standard deviations.
GROSS_MISFIT = 100.0
GROSS_SIGMAS = 100.0
ERROR_FLOOR = 1e-9
ANCHOR_TOL_DEG = 1e-6
KIND_CODES = {"P_inj": 0, "Q_inj": 1, "P_flow": 2, "Q_flow": 3, "Vmag": 4}


def wrap_deg(delta: np.ndarray) -> np.ndarray:
    return (np.asarray(delta, dtype=float) + 180.0) % 360.0 - 180.0


def polar_errors(V_est: np.ndarray, V_true: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-node magnitude error (pu) and angle error (deg), both absolute."""
    mag = np.abs(np.abs(V_est) - np.abs(V_true))
    ang = np.abs(wrap_deg(np.degrees(np.angle(V_est) - np.angle(V_true))))
    return mag, ang


def chi2_bound(m: int) -> float:
    return m + MISFIT_SIGMAS * np.sqrt(2.0 * m) + MISFIT_SLACK


@dataclass
class Readings:
    """Readings as parallel arrays, with the admittances of flow readings."""

    kind: np.ndarray
    node: np.ndarray
    far: np.ndarray
    value: np.ndarray
    sigma: np.ndarray
    ys: np.ndarray
    ysh: np.ndarray


class PowerFlowOracle:
    """Reading values of a network document at given node voltages."""

    def __init__(self, doc: dict):
        if "base_mva" in doc or any("base_kV" in b for b in doc["buses"]):
            raise ValueError("the oracle takes per-unit documents only")
        self.index = node_index(doc)
        n = len(self.index)
        self.ybus = np.zeros((n, n), dtype=complex)
        # Directed pair (l, m) -> (series, shunt at l), summed over parallel
        # branches: the flow into l is -V_l conj((ys + ysh) V_l - ys V_m).
        self.pairs: Dict[Tuple[int, int], Tuple[complex, complex]] = {}
        for br in closed_branches(doc):
            l, m = branch_nodes(self.index, br)
            ys = 1.0 / complex(float(br["r"]), float(br["x"]))
            ysh = 0.5j * float(br.get("shunt_b", 0.0))
            self.ybus[l, l] += ys + ysh
            self.ybus[m, m] += ys + ysh
            self.ybus[l, m] -= ys
            self.ybus[m, l] -= ys
            for a, b in ((l, m), (m, l)):
                s0, h0 = self.pairs.get((a, b), (0j, 0j))
                self.pairs[(a, b)] = (s0 + ys, h0 + ysh)

    def readings(self, objs: Sequence) -> Readings:
        """Arrays of objects with ``kind``, ``node``, ``far_node``, ``value``
        and ``sigma`` attributes."""
        far = [r.node if r.far_node is None else r.far_node for r in objs]
        pair = [self.pairs.get((r.node, f), (0j, 0j)) for r, f in zip(objs, far)]
        return Readings(
            kind=np.array([KIND_CODES[r.kind] for r in objs], dtype=np.intp),
            node=np.array([r.node for r in objs], dtype=np.intp),
            far=np.array(far, dtype=np.intp),
            value=np.array([r.value for r in objs], dtype=float),
            sigma=np.array([r.sigma for r in objs], dtype=float),
            ys=np.array([p[0] for p in pair], dtype=complex),
            ysh=np.array([p[1] for p in pair], dtype=complex),
        )

    def predict(self, V: np.ndarray, r: Readings) -> np.ndarray:
        """Every reading's value at the node voltages V."""
        Vl, Vm = V[r.node], V[r.far]
        inj = (V * np.conj(self.ybus @ V))[r.node]
        flow = -Vl * np.conj((r.ys + r.ysh) * Vl - r.ys * Vm)
        s = np.where((r.kind == 2) | (r.kind == 3), flow, inj)
        return np.where(
            r.kind == 4, np.abs(Vl), np.where(r.kind % 2 == 0, s.real, s.imag)
        )

    def misfit(self, V: np.ndarray, r: Readings) -> float:
        """Sum of ((value - prediction) / sigma)^2 over the readings."""
        return float(np.sum(((r.value - self.predict(V, r)) / r.sigma) ** 2))

    def error_sigmas(
        self, V: np.ndarray, r: Readings, fixed_angles: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Standard deviations of the magnitude (pu) and angle (rad) of every
        node under the readings' noise model, linearized at V by central
        differences.  Nodes in ``fixed_angles`` get angle deviation 0."""
        n = len(V)
        mag, ang = np.abs(V), np.angle(V)
        fixed = set(fixed_angles)
        free = np.array([k for k in range(n) if k not in fixed], dtype=np.intp)
        h = 1e-7
        cols = []
        for part, idx in ((0, range(n)), (1, free)):
            for k in idx:
                x = [mag.copy(), ang.copy()]
                x[part][k] += h
                up = self.predict(x[0] * np.exp(1j * x[1]), r)
                x[part][k] -= 2 * h
                down = self.predict(x[0] * np.exp(1j * x[1]), r)
                cols.append((up - down) / (2 * h))
        H = np.array(cols).T / r.sigma[:, None]
        sd = np.sqrt(np.clip(np.diag(np.linalg.inv(H.T @ H)), 0.0, None))
        ang_sd = np.zeros(n)
        ang_sd[free] = sd[n:]
        return sd[:n], ang_sd


class Checker:
    """Checks of the estimates of one case.

    ``template`` holds the case's real readings; their locations and sigma
    fix the error covariance.  ``anchors`` are (node, reference angle in
    degrees).
    """

    def __init__(
        self,
        oracle: PowerFlowOracle,
        V_true: np.ndarray,
        template: Sequence,
        anchors: Sequence[Tuple[int, float]],
    ):
        self.oracle = oracle
        self.V_true = V_true
        self.anchors = list(anchors)
        self.mag_sd, self.ang_sd = oracle.error_sigmas(
            V_true, oracle.readings(template), [a for a, _ in anchors]
        )

    def _measure(self, V_est: np.ndarray, readings: Sequence) -> Tuple[float, float, float]:
        """Misfit, and the largest magnitude and angle errors in standard
        deviations."""
        j = self.oracle.misfit(V_est, self.oracle.readings(readings))
        mag, ang = polar_errors(V_est, self.V_true)
        mag_z = float(np.max(mag / (self.mag_sd + ERROR_FLOOR)))
        ang_z = float(np.max(np.radians(ang) / (self.ang_sd + ERROR_FLOOR)))
        return j, mag_z, ang_z

    def problems(self, V_est: np.ndarray, readings: Sequence) -> List[str]:
        """Reasons the estimate fails against the case's real ``readings``,
        empty when it passes."""
        if V_est.shape != self.V_true.shape or not np.all(np.isfinite(V_est)):
            return ["estimate has the wrong shape or non-finite voltages"]
        out = []
        m = len(readings)
        j, mag_z, ang_z = self._measure(V_est, readings)
        if not j <= GROSS_MISFIT * m:
            out.append(f"misfit {j:.4g} of {m} real readings exceeds {GROSS_MISFIT * m:.4g}")
        if not mag_z <= GROSS_SIGMAS:
            out.append(f"magnitude error {mag_z:.3g} sd exceeds {GROSS_SIGMAS}")
        if not ang_z <= GROSS_SIGMAS:
            out.append(f"angle error {ang_z:.3g} sd exceeds {GROSS_SIGMAS}")
        for node, ref in self.anchors:
            off = abs(float(wrap_deg(np.degrees(np.angle(V_est[node])) - ref)))
            if not off <= ANCHOR_TOL_DEG:
                out.append(f"anchor node {node} is {off:.3g} deg off its reference")
        return out

    def beyond_noise(self, V_est: np.ndarray, readings: Sequence) -> bool:
        """Whether a passing estimate is worse than the noise model allows."""
        j, mag_z, ang_z = self._measure(V_est, readings)
        return j > chi2_bound(len(readings)) or max(mag_z, ang_z) > ERROR_SIGMAS

    def self_test(self, V_est: np.ndarray, readings: Sequence) -> List[str]:
        """Corrupt a passing estimate and confirm the checks reject it.

        A 10 % magnitude error at one node must trip the misfit and the truth
        bound; rotating the whole state by 0.5 degree changes no reading and
        must trip the anchor check.  Returns the corruptions that passed.
        """
        anchor_nodes = {a for a, _ in self.anchors}
        k = max(k for k in range(len(V_est)) if k not in anchor_nodes)
        bumped = V_est.copy()
        bumped[k] *= 1.1
        rotated = V_est * np.exp(1j * np.radians(0.5))
        passed = []
        for name, V_bad, check in (
            ("magnitude", bumped, "misfit"),
            ("magnitude", bumped, "magnitude error"),
            ("rotation", rotated, "anchor"),
        ):
            if not any(p.startswith(check) for p in self.problems(V_bad, readings)):
                passed.append(f"{name} corruption passed the {check} check")
        return passed
