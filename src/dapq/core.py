"""Domain types, parameter validation, and the work-conserving conservation law.

All types are immutable values and all operations are pure, so everything in
this module is safe to share across threads.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass


# --------------------------------------------------------------------------
# errors
# --------------------------------------------------------------------------

class DapqError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRange(DapqError):
    """A rate or ratio parameter is outside its admissible range."""


class UnstableSystem(DapqError):
    """Offered load is at or above capacity (rho >= 1)."""


class InvalidDelay(DapqError):
    """Deterministic service requires the delay to be an integer number of services."""


class NoClass1(DapqError):
    """Class-1 occupancy is zero, so no class-1 mean can be derived."""


class TruncationOverflow(DapqError):
    """A truncated sum failed to meet its tail bound within the state cap."""


class AccuracyNotMet(DapqError):
    """A numerical inversion could not certify the requested accuracy."""


class EmptyOverlap(DapqError):
    """Two CDF curves share no common evaluation interval."""


class DegenerateMean(DapqError):
    """A zero mean is incompatible with a positive busy probability."""


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

class ServiceKind(enum.Enum):
    """Service-time distribution: Exponential(rate mu) or Deterministic(1/mu)."""

    EXPONENTIAL = "exp"
    DETERMINISTIC = "det"

    def second_moment(self, mu: float) -> float:
        """E[S^2]: 2/mu^2 for exponential service, 1/mu^2 for deterministic."""
        if self is ServiceKind.EXPONENTIAL:
            return 2.0 / mu**2
        return 1.0 / mu**2


@dataclass(frozen=True)
class QueueConfig:
    """A two-class priority-queue scenario.

    Class-1 customers accumulate priority credit at rate 1 from arrival;
    class-2 customers accumulate at rate ``b`` starting ``d`` time units
    after arrival.  ``b = 1, d = 0`` is FCFS; ``b = 0`` is the
    non-preemptive priority queue, and so is the limit as d → ∞.
    """

    lambda1: float
    lambda2: float
    mu: float
    b: float = 0.0
    d: float = 0.0
    service: ServiceKind = ServiceKind.EXPONENTIAL

    def replace(self, **kwargs) -> "QueueConfig":
        from dataclasses import replace

        return replace(self, **kwargs)


@dataclass(frozen=True)
class DerivedRates:
    """Occupancies and uniformization constants derived from a valid config.

    None of them depends on b.  ``p_up``/``q_down`` are the jump
    probabilities of the uniformized ahead-of-me chain (birth lambda1,
    death mu) and ``r_coef = p_up + q_down * rho**2`` its geometric-tail
    coefficient.
    """

    rho1: float
    rho2: float
    rho: float
    nu: float
    p_up: float
    q_down: float
    r_coef: float


@dataclass(frozen=True)
class Kpi:
    """A waiting-time target paired with a required compliance probability.

    ``compliance_p`` is the minimum acceptable fraction of class
    ``class_index`` customers whose wait is below ``target_w``.
    """

    target_w: float
    compliance_p: float
    class_index: int = 2

    def __post_init__(self):
        if not 0.0 < self.target_w < math.inf:
            raise OutOfRange(f"target_w must be positive and finite, got {self.target_w}")
        if not 0.0 < self.compliance_p < 1.0:
            raise OutOfRange(f"compliance_p must be in (0,1), got {self.compliance_p}")
        if self.class_index not in (1, 2):
            raise OutOfRange(f"class_index must be 1 or 2, got {self.class_index}")


@dataclass(frozen=True)
class WaitSummary:
    """Exact expected waits for both classes plus the conservation residual.

    ``conservation_residual`` is |rho1*E[W1] + rho2*E[W2] - rhs|, with rhs
    the discipline-free value of the conservation law (``_conservation_rhs``).
    ``dapq_means`` derives E[W1] from that law, so the residual is roundoff
    by construction: it checks the arithmetic, not the class-2 mean.
    """

    mean_w1: float
    mean_w2: float
    conservation_residual: float


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances shared by the analytic machinery.

    eps_series   absolute truncation tolerance for infinite sums
    eps_root     root-finder / bisection tolerance
    eps_invert   target absolute accuracy of transform inversion
    max_states   hard cap on truncated state spaces, an integer (anything
                 ``operator.index`` accepts, stored as ``int``)
    """

    eps_series: float = 1e-10
    eps_root: float = 1e-10
    eps_invert: float = 1e-8
    max_states: int = 6000

    def __post_init__(self):
        for name in ("eps_series", "eps_root", "eps_invert"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise OutOfRange(
                    f"{name} must be positive and finite, got {getattr(self, name)}")
        try:
            object.__setattr__(self, "max_states", operator.index(self.max_states))
        except TypeError:
            raise OutOfRange(f"max_states must be an integer, got {self.max_states!r}") from None
        if self.max_states < 1:
            raise OutOfRange(f"max_states must be >= 1, got {self.max_states}")


DEFAULT_TOL = ToleranceConfig()

# the most values a sweep, grid or region may hold
_MAX_VALUES = 10**6


def _check_count(count: float, what: str) -> None:
    """Raise OutOfRange before building ``count`` values (a float, maybe inf) above _MAX_VALUES."""
    if not count <= _MAX_VALUES:
        raise OutOfRange(f"{what} would hold {count:.6g} values, more than {_MAX_VALUES}")


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def validate(config: QueueConfig) -> DerivedRates:
    """Check every invariant of ``config`` and return its derived rates.

    Raises OutOfRange, UnstableSystem, or InvalidDelay.  Every range test
    is negated, so NaN fails it.
    """
    if not (0.0 <= config.lambda1 < math.inf and 0.0 <= config.lambda2 < math.inf):
        raise OutOfRange(
            f"arrival rates must be nonnegative and finite, got "
            f"{config.lambda1}, {config.lambda2}")
    if not 0.0 < config.mu < math.inf:
        raise OutOfRange(f"service rate mu must be positive and finite, got {config.mu}")
    if not 0.0 <= config.b <= 1.0:
        raise OutOfRange(f"accumulation ratio b must lie in [0,1], got {config.b}")
    if not 0.0 <= config.d < math.inf:
        raise OutOfRange(f"delay d must be nonnegative and finite, got {config.d}")

    rho1 = config.lambda1 / config.mu
    rho2 = config.lambda2 / config.mu
    rho = rho1 + rho2
    if rho >= 1.0:
        raise UnstableSystem(f"rho = {rho:.6g} >= 1; the queue is unstable")

    if config.service is ServiceKind.DETERMINISTIC and config.d > 0:
        ell = config.d * config.mu
        if abs(ell - round(ell)) > 1e-9 or round(ell) < 1:
            raise InvalidDelay(
                f"deterministic service requires d = l/mu for integer l >= 1; "
                f"got d*mu = {ell:.6g}"
            )

    nu = config.mu + config.lambda1
    p_up = config.lambda1 / nu
    q_down = config.mu / nu
    return DerivedRates(
        rho1=rho1,
        rho2=rho2,
        rho=rho,
        nu=nu,
        p_up=p_up,
        q_down=q_down,
        r_coef=p_up + q_down * rho**2,
    )


def _residual_work(config: QueueConfig) -> float:
    """W0 = lambda*E[S^2]/2, the mean residual service an arrival finds (Cobham)."""
    lam = config.lambda1 + config.lambda2
    return lam * config.service.second_moment(config.mu) / 2.0


def _conservation_rhs(config: QueueConfig, rates: DerivedRates) -> float:
    """Discipline-free value of rho1*E[W1] + rho2*E[W2], from the config's ``rates``.

    Equals rho/(1-rho) * W0 for any work-conserving, non-preemptive
    discipline; independent of ``b`` and ``d``.
    """
    return rates.rho / (1.0 - rates.rho) * _residual_work(config)


def _class1_mean_from_class2(config: QueueConfig, rates: DerivedRates, mean_w2):
    """Recover the class-1 mean wait from the class-2 mean via conservation.

    ``rates`` are those ``validate`` gave the config at any b.  Elementwise
    in ``mean_w2``.
    """
    if rates.rho1 == 0.0:
        raise NoClass1("lambda1 = 0: class-1 mean is undefined")
    return (_conservation_rhs(config, rates) - rates.rho2 * mean_w2) / rates.rho1
