"""Two-class delayed accumulating priority queue toolkit.

Exact expected waits (M/M/1 and M/D/1), class-2 waiting-time CDFs via
transform inversion, a zero-inflated exponential class-1 approximation,
KPI-optimal parameter search, and a discrete-event simulation oracle.
"""

from .core import (
    DEFAULT_TOL,
    DapqError,
    DerivedRates,
    Kpi,
    QueueConfig,
    ServiceKind,
    ToleranceConfig,
    WaitSummary,
    validate,
)
from .approx import ALWAYS_SATISFIED, ZExp, cdf_sup_diff, kpi_mean_threshold, zexp_from_mean
from .kpi import FeasibleRegion, PolicyPoint, PolicySweep, b_star_class1, b_star_class2, feasible_region, policy_sweep
from .markov import StationaryDist, md1_stationary, md1_tail_ratio
from .mean_wait import dapq_means, md1_dapq_class2_mean, mm1_dapq_class2_mean
from .simulate import EmpiricalCdf, SimConfig, run_replicated, run_single
from .transforms import CdfCurve, class2_cdf_dapq

__version__ = "0.1.0"

__all__ = [
    "ALWAYS_SATISFIED",
    "CdfCurve",
    "DEFAULT_TOL",
    "DapqError",
    "DerivedRates",
    "EmpiricalCdf",
    "FeasibleRegion",
    "Kpi",
    "PolicyPoint",
    "PolicySweep",
    "QueueConfig",
    "ServiceKind",
    "SimConfig",
    "StationaryDist",
    "ToleranceConfig",
    "WaitSummary",
    "ZExp",
    "b_star_class1",
    "b_star_class2",
    "cdf_sup_diff",
    "class2_cdf_dapq",
    "dapq_means",
    "feasible_region",
    "kpi_mean_threshold",
    "md1_dapq_class2_mean",
    "md1_stationary",
    "md1_tail_ratio",
    "mm1_dapq_class2_mean",
    "policy_sweep",
    "run_replicated",
    "run_single",
    "validate",
    "zexp_from_mean",
]
