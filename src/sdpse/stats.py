"""Error statistics of an estimate against ground truth.

Reports RMS / average / maximum absolute error of voltage magnitude (pu) and
angle (degrees), plus a decade histogram of the absolute errors.  Angle
differences are wrapped into (-180, 180] before taking magnitudes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import ValidationError

# Decade bin edges of the histogram; everything below the first edge falls in
# the underflow bin, everything at or above the last in the overflow bin, so
# the counts always sum to the node count.
HIST_EDGES = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


def wrap_angle_deg(delta: np.ndarray) -> np.ndarray:
    """Wrap angle differences (degrees) into (-180, 180]."""
    out = (np.asarray(delta, dtype=float) + 180.0) % 360.0 - 180.0
    return np.where(out == -180.0, 180.0, out)


def _histogram(err: np.ndarray) -> List[int]:
    counts = [int(np.sum(err < HIST_EDGES[0]))]
    for lo, hi in zip(HIST_EDGES[:-1], HIST_EDGES[1:]):
        counts.append(int(np.sum((err >= lo) & (err < hi))))
    counts.append(int(np.sum(err >= HIST_EDGES[-1])))
    return counts


def histogram_labels() -> List[str]:
    labels = [f"[0,{HIST_EDGES[0]:.0e})"]
    for lo, hi in zip(HIST_EDGES[:-1], HIST_EDGES[1:]):
        labels.append(f"[{lo:.0e},{hi:.0e})")
    labels.append(f"[{HIST_EDGES[-1]:.0e},inf)")
    return labels


@dataclass
class ErrorStats:
    vmag_rms: float
    vmag_avg: float
    vmag_max: float
    angle_rms: float
    angle_avg: float
    angle_max: float
    vmag_hist: List[int]
    angle_hist: List[int]
    n_nodes: int

    def to_dict(self) -> dict:
        return {
            "voltage_magnitude_pu": {
                "rms": self.vmag_rms,
                "average": self.vmag_avg,
                "maximum": self.vmag_max,
            },
            "voltage_angle_deg": {
                "rms": self.angle_rms,
                "average": self.angle_avg,
                "maximum": self.angle_max,
            },
            "histogram": {
                "bins": histogram_labels(),
                "voltage_magnitude_pu": self.vmag_hist,
                "voltage_angle_deg": self.angle_hist,
            },
            "n_nodes": self.n_nodes,
        }


def compute_error_stats(V_est: np.ndarray, V_true: np.ndarray) -> ErrorStats:
    V_est = np.asarray(V_est, dtype=complex)
    V_true = np.asarray(V_true, dtype=complex)
    if V_est.shape != V_true.shape:
        raise ValidationError(
            f"node set mismatch: estimate has {V_est.shape}, truth {V_true.shape}"
        )
    mag_err = np.abs(np.abs(V_est) - np.abs(V_true))
    ang_err = np.abs(
        wrap_angle_deg(np.degrees(np.angle(V_est)) - np.degrees(np.angle(V_true)))
    )

    def rms(x):
        return float(np.sqrt(np.mean(x * x)))

    return ErrorStats(
        vmag_rms=rms(mag_err),
        vmag_avg=float(np.mean(mag_err)),
        vmag_max=float(np.max(mag_err)),
        angle_rms=rms(ang_err),
        angle_avg=float(np.mean(ang_err)),
        angle_max=float(np.max(ang_err)),
        vmag_hist=_histogram(mag_err),
        angle_hist=_histogram(ang_err),
        n_nodes=len(V_est),
    )


def save_histogram_csv(path: str, stats: ErrorStats) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "voltage_magnitude_pu", "voltage_angle_deg"])
        for label, vm, an in zip(
            histogram_labels(), stats.vmag_hist, stats.angle_hist
        ):
            writer.writerow([label, vm, an])
