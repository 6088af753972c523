"""State estimation for single- and multiphase power networks via a
semidefinite relaxation of the weighted least squares problem."""

from .errors import (
    BudgetExceededError,
    RankRecoveryError,
    SdpseError,
    SolverError,
    UnobservableError,
    ValidationError,
)
from .estimator import SdpStateEstimator
from .measurements import Measurement, NoiseSpec
from .network import NetworkModel, load_network, parse_network
from .partition import PartitionPlan, detect_topology, separate, separate_on_switches
from .pipeline import EstimationResult, estimate, estimate_with_plan
from .sdpmat import build_matrix_set, count_variables
from .solver import SolveReport, SolverConfig, solve
from .stats import ErrorStats, compute_error_stats

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "EstimationResult",
    "ErrorStats",
    "Measurement",
    "NetworkModel",
    "NoiseSpec",
    "PartitionPlan",
    "RankRecoveryError",
    "SdpStateEstimator",
    "SdpseError",
    "SolveReport",
    "SolverConfig",
    "SolverError",
    "UnobservableError",
    "ValidationError",
    "build_matrix_set",
    "compute_error_stats",
    "count_variables",
    "detect_topology",
    "estimate",
    "estimate_with_plan",
    "load_network",
    "parse_network",
    "separate",
    "separate_on_switches",
    "solve",
]
