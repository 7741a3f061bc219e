"""KPI feasibility analysis and optimal accumulation-rate search.

For a class-2 KPI the search finds the *smallest* accumulation rate whose
waiting-time CDF meets the compliance target at the given delay (smaller b
is always better for class-1); for a class-1 KPI it finds the *largest*
rate whose exact class-1 mean stays under the zero-inflated-exponential
threshold.  Both constraint functions are monotone in b; monotonicity is
checked empirically on a coarse grid before each bisection rather than
assumed.

A KPI needs parameter tuning only between two extremes: where the
favorable extreme discipline (strict priority for class-2 targets, FCFS
for class-1 targets) already complies, no tuning is needed; where even the
unfavorable extreme fails, no tuning can help.  ``feasible_region`` traces
both frontiers over arrival-rate pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import approx, mean_wait, transforms
from .core import (
    DEFAULT_TOL,
    Kpi,
    MonotonicityViolation,
    OutOfRange,
    QueueConfig,
    ServiceKind,
    ToleranceConfig,
    class1_mean_from_class2,
    validate,
)
from .markov import busy_state_distribution


@dataclass(frozen=True)
class PolicyPoint:
    """Result of one accumulation-rate search at a fixed delay."""

    d: float
    b_star: float
    mean_w1: float
    mean_w2: float
    feasible: bool


@dataclass(frozen=True)
class FeasibleRegion:
    """Arrival-rate frontier pair of a KPI tuning region.

    ``lower_boundary`` and ``upper_boundary`` are (lambda1, lambda2) arrays;
    between them the KPI is unmet by the favorable extreme discipline yet
    met by the unfavorable one, so (d, b) tuning is nontrivial.
    """

    kpi: Kpi
    lower_boundary: np.ndarray
    upper_boundary: np.ndarray


# --------------------------------------------------------------------------
# constraint evaluations
# --------------------------------------------------------------------------

def _class2_cdf_at_w(config: QueueConfig, w: float, tol: ToleranceConfig) -> float:
    curve = transforms.class2_cdf_dapq(config, np.array([w]), tol)
    return float(curve.values[0])


def _check_monotone(
    f: Callable[[float], float],
    f0: float,
    f1: float,
    increasing: bool,
    slack: float,
    what: str,
) -> None:
    """Check f on five rates in [0, 1]; f0 and f1 are the known values at 0 and 1."""
    bs = [0.0, 0.25, 0.5, 0.75, 1.0]
    vals = [f0] + [f(b) for b in bs[1:-1]] + [f1]
    diffs = np.diff(vals)
    ok = np.all(diffs >= -slack) if increasing else np.all(diffs <= slack)
    if not ok:
        raise MonotonicityViolation(
            f"{what} is not monotone in b on {bs}: {['%.8f' % v for v in vals]}"
        )


def _bisect_smallest(f, p, lo, hi, eps):
    """Smallest b in [lo,hi] with f(b) >= p, given f(lo) < p <= f(hi)."""
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if f(mid) >= p:
            hi = mid
        else:
            lo = mid
    return hi


def _bisect_largest(f, m, lo, hi, eps):
    """Largest b in [lo,hi] with f(b) <= m, given f(lo) <= m < f(hi)."""
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if f(mid) <= m:
            lo = mid
        else:
            hi = mid
    return lo


# --------------------------------------------------------------------------
# optimal accumulation rates
# --------------------------------------------------------------------------

def _policy_point(
    config: QueueConfig, b: float, feasible: bool, mean_w2: Callable[[float], float]
) -> PolicyPoint:
    """The search result at rate b, with both exact class means there.

    ``mean_w2`` is the class-2 mean as a function of b at the config's
    delay (``mean_wait.class2_mean_in_b``); the class-1 mean follows from
    conservation, as in ``mean_wait.dapq_means``.
    """
    w2 = mean_w2(b)
    return PolicyPoint(
        d=config.d,
        b_star=b,
        mean_w1=float(class1_mean_from_class2(config.replace(b=b), w2)),
        mean_w2=float(w2),
        feasible=feasible,
    )


def b_star_class2(
    config: QueueConfig, kpi: Kpi, tol: ToleranceConfig = DEFAULT_TOL
) -> PolicyPoint:
    """Smallest accumulation rate meeting a class-2 KPI at the config's delay.

    The config's own ``b`` is ignored.  Returns b = 0 when strict priority
    already complies and an infeasible point when even b = 1 fails.  Both
    busy-weight sets are b-free, so they are computed once and each step
    of the search costs one inversion at the target wait.
    """
    if kpi.class_index != 2:
        raise OutOfRange("b_star_class2 requires a class-2 KPI")
    base = config.replace(b=0.0)
    validate(base)
    if config.service is not ServiceKind.EXPONENTIAL:
        raise OutOfRange("class-2 CDF machinery requires exponential service")
    w, p = kpi.target_w, kpi.compliance_p
    target = np.array([w])
    npq_weights = busy_state_distribution(base.replace(d=0.0), tol)
    weights = busy_state_distribution(base, tol)
    mean_w2 = mean_wait.class2_mean_in_b(config, tol)

    def constraint(b: float) -> float:
        curve = transforms._class2_cdf_from_weights(
            config.replace(b=b), target, npq_weights, weights, tol
        )
        return float(curve.values[0])

    f0 = constraint(0.0)
    if f0 >= p:
        return _policy_point(config, 0.0, True, mean_w2)
    f1 = constraint(1.0)
    if f1 < p:
        return _policy_point(config, 1.0, False, mean_w2)
    _check_monotone(constraint, f0, f1, increasing=True, slack=100 * tol.eps_invert,
                    what="class-2 compliance")
    b = _bisect_smallest(constraint, p, 0.0, 1.0, tol.eps_root)
    return _policy_point(config, b, True, mean_w2)


def b_star_class1(
    config: QueueConfig, kpi: Kpi, tol: ToleranceConfig = DEFAULT_TOL
) -> PolicyPoint:
    """Largest accumulation rate meeting a class-1 KPI at the config's delay.

    The constraint is evaluated through the exact class-1 mean against the
    zero-inflated-exponential threshold, which makes the search exact given
    the approximation (and fast).  The mean's correction sum is b-free, so
    it is computed once and each step of the search costs a few float
    operations.
    """
    if kpi.class_index != 1:
        raise OutOfRange("b_star_class1 requires a class-1 KPI")
    rates = validate(config.replace(b=0.0))
    threshold = approx.kpi_mean_threshold(rates.rho, kpi)
    mean_w2 = mean_wait.class2_mean_in_b(config, tol)

    def mean1(b: float) -> float:
        return class1_mean_from_class2(config.replace(b=b), mean_w2(b))

    if threshold is approx.ALWAYS_SATISFIED or math.isinf(threshold):
        return _policy_point(config, 1.0, True, mean_w2)
    m0 = mean1(0.0)
    if m0 > threshold:
        return _policy_point(config, 0.0, False, mean_w2)
    m1 = mean1(1.0)
    if m1 <= threshold:
        return _policy_point(config, 1.0, True, mean_w2)
    _check_monotone(mean1, m0, m1, increasing=True, slack=1e-9 * max(1.0, threshold),
                    what="class-1 mean wait")
    b = _bisect_largest(mean1, threshold, 0.0, 1.0, tol.eps_root)
    return _policy_point(config, b, True, mean_w2)


# --------------------------------------------------------------------------
# feasible regions
# --------------------------------------------------------------------------

def _fcfs_cdf_at(rho: float, mu: float, w: float) -> float:
    return 1.0 - rho * math.exp(-mu * (1.0 - rho) * w)


def _npq1_cdf_at(rho: float, lam1: float, mu: float, w: float) -> float:
    # strict-priority class-1 wait is exactly ZExp(rho, mu - lam1)
    return 1.0 - rho * math.exp(-(mu - lam1) * w)


def _fcfs_boundary_rho(kpi: Kpi, mu: float, eps: float) -> float:
    """Occupancy where the FCFS wait exactly meets the KPI (CDF decreasing in rho)."""
    lo, hi = 1e-9, 1.0 - 1e-9
    if _fcfs_cdf_at(hi, mu, kpi.target_w) >= kpi.compliance_p:
        return hi
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if _fcfs_cdf_at(mid, mu, kpi.target_w) >= kpi.compliance_p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def meets_extreme(
    lam1: float,
    lam2: float,
    mu: float,
    kpi: Kpi,
    discipline: str,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> bool:
    """Whether FCFS or NPQ meets the KPI at the given rates (exact CDFs)."""
    rho = (lam1 + lam2) / mu
    if rho >= 1.0:
        return False
    w, p = kpi.target_w, kpi.compliance_p
    if discipline == "fcfs":
        return _fcfs_cdf_at(rho, mu, w) >= p
    if discipline != "npq":
        raise OutOfRange(f"unknown discipline {discipline!r}")
    if kpi.class_index == 1:
        return _npq1_cdf_at(rho, lam1, mu, w) >= p
    cfg = QueueConfig(lambda1=lam1, lambda2=lam2, mu=mu, b=0.0, d=0.0)
    return _class2_cdf_at_w(cfg, w, tol) >= p


def in_tuning_region(
    lam1: float, lam2: float, mu: float, kpi: Kpi, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """True when the KPI needs (d, b) tuning: favorable extreme fails to
    dominate, unfavorable extreme still has room."""
    if (lam1 + lam2) / mu >= 1.0:
        return False
    if kpi.class_index == 2:
        return meets_extreme(lam1, lam2, mu, kpi, "fcfs", tol) and not meets_extreme(
            lam1, lam2, mu, kpi, "npq", tol
        )
    return meets_extreme(lam1, lam2, mu, kpi, "npq", tol) and not meets_extreme(
        lam1, lam2, mu, kpi, "fcfs", tol
    )


def feasible_region(
    kpi: Kpi,
    mu: float = 1.0,
    resolution: float = 0.02,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> FeasibleRegion:
    """Trace the two lambda-space frontiers of the KPI tuning region.

    For each lambda1 on the grid the boundary lambda2 where the relevant
    extreme discipline exactly meets the KPI is found by bisection (class-2
    strict-priority boundary) or in closed form (pure-occupancy FCFS
    boundary and the class-1 strict-priority boundary).
    """
    if resolution <= 0:
        raise OutOfRange("resolution must be positive")
    w, p = kpi.target_w, kpi.compliance_p
    rho_fcfs = _fcfs_boundary_rho(kpi, mu, tol.eps_root)
    # boundary probes stay below this occupancy; frontiers beyond it are
    # clipped (the transform state space grows like log(eps)/log(rho))
    rho_probe_cap = 0.995
    lam1s = np.arange(resolution, mu, resolution)
    lower, upper = [], []

    for lam1 in lam1s:
        if kpi.class_index == 2:
            # lower: strict priority exactly meets; CDF decreasing in lambda2.
            # The crossing lies strictly below the FCFS frontier (NPQ treats
            # class-2 worse), which keeps the probed occupancies moderate.
            f = lambda lam2: meets_extreme(lam1, lam2, mu, kpi, "npq", tol)
            hi_l2 = min(rho_probe_cap * mu, rho_fcfs * mu + 0.05 * mu) - lam1 - 1e-9
            if hi_l2 <= 0:
                continue
            if not f(1e-9):
                lower.append((lam1, 0.0))  # fails even with a trace of class-2 load
            elif f(hi_l2):
                lower.append((lam1, hi_l2))
            else:
                lo, hi = 1e-9, hi_l2
                while hi - lo > 1e-4:
                    mid = 0.5 * (lo + hi)
                    if f(mid):
                        lo = mid
                    else:
                        hi = mid
                lower.append((lam1, 0.5 * (lo + hi)))
            lam2_up = rho_fcfs * mu - lam1
            if lam2_up > 0:
                upper.append((lam1, lam2_up))
        else:
            lam2_lo = rho_fcfs * mu - lam1
            if lam2_lo > 0:
                lower.append((lam1, lam2_lo))
            # upper: strict priority exactly fails; closed form in rho
            rho_up = (1.0 - p) * math.exp((mu - lam1) * w)
            lam2_up = min(rho_up * mu - lam1, mu - lam1 - 1e-9)
            if lam2_up > 0:
                upper.append((lam1, lam2_up))
    return FeasibleRegion(
        kpi=kpi,
        lower_boundary=np.array(lower) if lower else np.empty((0, 2)),
        upper_boundary=np.array(upper) if upper else np.empty((0, 2)),
    )


# --------------------------------------------------------------------------
# delay sweeps
# --------------------------------------------------------------------------

def policy_sweep(
    config: QueueConfig,
    kpi: Kpi,
    d_values: Sequence[float],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list:
    """Optimal-b search across delay levels, with trend verification.

    For class-2 KPIs the class-1 mean must be nondecreasing along
    (d, b*(d)); for class-1 KPIs the class-2 mean must be constant (to
    1e-4) wherever b* is interior.  Violations raise MonotonicityViolation
    since downstream conclusions rest on these trends.
    """
    points = []
    for d in d_values:
        cfg = config.replace(d=float(d))
        if kpi.class_index == 2:
            points.append(b_star_class2(cfg, kpi, tol))
        else:
            points.append(b_star_class1(cfg, kpi, tol))
    feas = [pt for pt in points if pt.feasible]
    if kpi.class_index == 2:
        w1s = [pt.mean_w1 for pt in feas]
        if any(b - a < -1e-6 for a, b in zip(w1s, w1s[1:])):
            raise MonotonicityViolation(
                f"class-1 mean not nondecreasing along the sweep: {w1s}"
            )
    else:
        interior = [pt for pt in feas if 0.0 < pt.b_star < 1.0]
        if interior:
            w2s = [pt.mean_w2 for pt in interior]
            if max(w2s) - min(w2s) > 1e-4:
                raise MonotonicityViolation(
                    f"class-2 mean not constant along the sweep: {w2s}"
                )
    return points
