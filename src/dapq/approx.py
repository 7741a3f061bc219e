"""Zero-inflated exponential approximation of class-1 waits and CDF metrics.

A class-1 wait in M/M/1 is exactly zero-inflated exponential at both the
FCFS and strict-priority extremes; in between, matching the atom (1 - rho)
and the exact mean gives a one-parameter approximation of the whole
distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import DegenerateMean, EmptyOverlap, Kpi, OutOfRange
from .transforms import CdfCurve, _abscissae

#: Sentinel for KPI constraints met by the zero-wait atom alone.
ALWAYS_SATISFIED = math.inf


@dataclass(frozen=True)
class ZExp:
    """Distribution with mass 1 - rho_mass at zero and an Exp(alpha) tail."""

    rho_mass: float
    alpha: float

    def mean(self) -> float:
        return self.rho_mass / self.alpha

    def cdf(self, t: float) -> float:
        if t < 0.0:
            raise OutOfRange("t must be nonnegative")
        return 1.0 - self.rho_mass * math.exp(-self.alpha * t)

    def curve(self, grid: np.ndarray) -> CdfCurve:
        ts = np.asarray(grid, dtype=float)
        return CdfCurve(
            ts=ts,
            values=1.0 - self.rho_mass * np.exp(-self.alpha * np.maximum(ts, 0.0)),
            provenance="approximate",
        )


def zexp_from_mean(rho: float, mean_w: float) -> ZExp:
    """Zero-inflated exponential with busy probability rho and the given mean."""
    if not 0.0 < rho < 1.0:
        raise OutOfRange(f"rho must lie in (0,1), got {rho}")
    if mean_w <= 0.0:
        raise DegenerateMean(f"mean_w must be positive when rho > 0, got {mean_w}")
    return ZExp(rho_mass=rho, alpha=rho / mean_w)


def cdf_sup_diff(a: CdfCurve, b: CdfCurve) -> Tuple[float, float]:
    """Maximum absolute difference between two curves and where it occurs.

    Curves are compared on the union of their abscissae over the common
    interval, with linear interpolation in between.  A curve with no points
    shares no interval, so it raises EmptyOverlap; an abscissa that is not
    finite or out of order raises OutOfRange, since the interpolation
    assumes increasing abscissae.
    """
    ta, tb = _abscissae(a.ts), _abscissae(b.ts)
    if not (len(ta) and len(tb)):
        raise EmptyOverlap("a CDF curve has no abscissae")
    lo = max(ta[0], tb[0])
    hi = min(ta[-1], tb[-1])
    if hi < lo:
        raise EmptyOverlap("CDF curves share no common abscissae")
    ts = np.union1d(ta, tb)
    ts = ts[(ts >= lo) & (ts <= hi)]
    va = np.interp(ts, ta, a.values)
    vb = np.interp(ts, tb, b.values)
    diffs = np.abs(va - vb)
    i = int(np.argmax(diffs))
    return float(diffs[i]), float(ts[i])


def kpi_mean_threshold(rho: float, kpi: Kpi) -> float:
    """Largest class-1 mean wait compatible with the KPI, under the ZExp law.

    Returns ALWAYS_SATISFIED (inf) when the zero-wait atom alone meets the
    compliance probability (1 - p >= rho), where the defining logarithm
    would be invalid.
    """
    if kpi.class_index != 1:
        raise OutOfRange("mean-threshold reduction applies to class-1 KPIs only")
    if not 0.0 < rho < 1.0:
        raise OutOfRange(f"rho must lie in (0,1), got {rho}")
    if 1.0 - kpi.compliance_p >= rho:
        return ALWAYS_SATISFIED
    return kpi.target_w * rho / math.log(rho / (1.0 - kpi.compliance_p))
