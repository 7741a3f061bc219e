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
    class1_mean_from_class2,
    conservation_rhs,
    validate,
)
from .approx import ALWAYS_SATISFIED, ZExp, cdf_sup_diff, kpi_mean_threshold, zexp_cdf, zexp_from_mean
from .kpi import FeasibleRegion, PolicyPoint, b_star_class1, b_star_class2, feasible_region, policy_sweep
from .markov import StationaryDist, md1_stationary, md1_tail_ratio, mm1_stationary
from .mean_wait import XTable, dapq_means, fcfs_mean, md1_dapq_class2_mean, mm1_dapq_class2_mean, npq_class2_mean, x_table
from .simulate import EmpiricalCdf, SimConfig, run_replicated, run_single
from .transforms import CdfCurve, Lst, class2_cdf_dapq, class2_tail_lst, eta_mm1, invert_to_cdf

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
    "Lst",
    "PolicyPoint",
    "QueueConfig",
    "ServiceKind",
    "SimConfig",
    "StationaryDist",
    "ToleranceConfig",
    "WaitSummary",
    "XTable",
    "ZExp",
    "b_star_class1",
    "b_star_class2",
    "cdf_sup_diff",
    "class1_mean_from_class2",
    "class2_cdf_dapq",
    "class2_tail_lst",
    "conservation_rhs",
    "dapq_means",
    "eta_mm1",
    "fcfs_mean",
    "feasible_region",
    "invert_to_cdf",
    "kpi_mean_threshold",
    "md1_dapq_class2_mean",
    "md1_stationary",
    "md1_tail_ratio",
    "mm1_dapq_class2_mean",
    "mm1_stationary",
    "npq_class2_mean",
    "policy_sweep",
    "run_replicated",
    "run_single",
    "validate",
    "x_table",
    "zexp_cdf",
    "zexp_from_mean",
]
