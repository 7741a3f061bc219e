"""Stationary queue-length distributions and busy-horizon state weights.

Two kinds of object live here:

* the distribution of the number of customers an arrival finds in system,
  for M/M/1 (geometric) and M/D/1 (FFT inversion of the pole-subtracted
  Pollaczek--Khinchine pgf, with a geometric tail continuation), and

* the busy-horizon state weights: the probability of "``j`` customers
  ahead after ``d`` time units and the ahead-set never emptied" for a
  tagged arrival, computed by uniformizing the birth--death chain with
  birth rate ``lambda1`` and death rate ``mu`` (a Poisson-weighted sum of
  powers of the absorbing chain's positive part applied to the busy part
  of the geometric M/M/1 law).  Beyond the Poisson jump cut the weights
  are exactly geometric in ``j`` with ratio rho, so only a head whose size
  is set by ``d`` is computed and the tail is kept in closed form.

On the M/D/1 geometric tail: the decay of consecutive probabilities is the
*reciprocal* of the nontrivial root ``sigma > 1`` of ``exp(rho*sigma)/sigma
= exp(rho)``.  The orientation was fixed by comparing against exact
consecutive ratios (see ``md1_tail_ratio``); the root itself exceeds 1, so
it cannot be the ratio directly.  It is the pgf's dominant pole, which
``md1_stationary`` subtracts before its FFT.

Truncations stop on absolute tail mass and raise ``TruncationOverflow``
when the tolerance cannot be met: the M/D/1 head within ``max_states``
terms, the Poisson jump sum within its horizon (the tail is the Poisson
survival function of ``_poisson_table``, accurate to about 1e-15 relative
down to 1e-300), and the
busy-state head within ``max_states`` states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    OutOfRange,
    QueueConfig,
    RootBracketFailure,
    ServiceKind,
    ToleranceConfig,
    TruncationOverflow,
    validate,
)


@dataclass(frozen=True)
class StationaryDist:
    """Arriving-customer queue-length pmf with a geometric continuation.

    ``probs[i]`` holds pi_i for i <= truncation_K; beyond that index the
    pmf continues geometrically with ratio ``tail_ratio``.
    """

    probs: np.ndarray
    tail_ratio: float
    truncation_K: int

    def pmf(self, i: int) -> float:
        if i < 0:
            return 0.0
        if i <= self.truncation_K:
            return float(self.probs[i])
        return float(self.probs[self.truncation_K] * self.tail_ratio ** (i - self.truncation_K))

    def pmf_array(self, n: int) -> np.ndarray:
        """pi_0 .. pi_n as a dense array, continuing the tail as needed."""
        if n <= self.truncation_K:
            return self.probs[: n + 1].copy()
        ext = self.probs[self.truncation_K] * self.tail_ratio ** np.arange(
            1, n - self.truncation_K + 1
        )
        return np.concatenate([self.probs, ext])

    def total_mass(self) -> float:
        """Sum of the truncated pmf plus the closed-form geometric tail."""
        g = self.tail_ratio
        tail = self.probs[self.truncation_K] * g / (1.0 - g) if g > 0 else 0.0
        return float(self.probs.sum() + tail)


def mm1_stationary(rho: float, tol: ToleranceConfig = DEFAULT_TOL) -> StationaryDist:
    """Geometric M/M/1 queue-length pmf, truncated where the tail mass < eps_series."""
    if not 0.0 <= rho < 1.0:
        raise OutOfRange(f"rho must lie in [0,1), got {rho}")
    if rho == 0.0:
        return StationaryDist(probs=np.array([1.0]), tail_ratio=0.0, truncation_K=0)
    # tail mass beyond K is rho**(K+1)
    K = max(1, math.ceil(math.log(tol.eps_series) / math.log(rho)) - 1)
    K = min(K, tol.max_states)
    probs = (1.0 - rho) * rho ** np.arange(K + 1)
    return StationaryDist(probs=probs, tail_ratio=rho, truncation_K=K)


def md1_tail_ratio(rho: float, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Geometric decay ratio of the M/D/1 queue-length pmf, in (0,1).

    Solves exp(rho*sigma)/sigma = exp(rho) for the unique root sigma > 1/rho
    by safeguarded bisection (sigma = 1 always solves it and is rejected);
    the pmf ratio pi_{i+1}/pi_i tends to 1/sigma.
    """
    if not 0.0 < rho < 1.0:
        raise OutOfRange(f"rho must lie in (0,1), got {rho}")
    g = lambda s: rho * s - math.log(s) - rho  # log of the defining equation
    lo = 1.0 / rho  # location of the minimum; g(lo) < 0 for rho < 1
    if g(lo) >= 0.0:
        raise RootBracketFailure(f"no bracket above 1/rho for rho = {rho}")
    hi = lo
    for _ in range(200):
        hi *= 2.0
        if g(hi) > 0.0:
            break
    else:
        raise RootBracketFailure(f"upper bracket not found for rho = {rho}")
    while hi - lo > tol.eps_root * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    sigma = 0.5 * (lo + hi)
    return 1.0 / sigma


def _md1_pmf_fft(rho: float, g: float, c: float, n: int) -> np.ndarray:
    """pi_0 .. pi_{n-1} for M/D/1 by FFT of the pole-subtracted pgf.

    The Pollaczek--Khinchine pgf P(z) = (1-rho)(1-z)/(1 - z e^{rho(1-z)})
    has its dominant singularity at the simple pole z = sigma = 1/g, with
    principal part c/(1 - z/sigma), c = (1-rho)(sigma-1)/(rho*sigma-1).  The
    remainder is analytic on a disk larger than |z| <= sigma, so its
    coefficients decay faster than g^i and n roots of unity alias them
    negligibly; the pole's coefficients c*g^i are added back exactly (Abate
    & Whitt, "Numerical inversion of probability generating functions",
    Oper. Res. Letters 12, 1992).  Absolute error is about 1e-16; entries
    at roundoff level may come out negative and are clipped to 0.
    """
    theta = (2.0 * math.pi / n) * np.arange(n)
    z = np.exp(1j * theta)
    # P(z) = (1-rho) / (1 - rho z (e^w - 1)/w) with w = rho(1-z): no 0/0 at z = 1
    w = rho * (2.0 * np.sin(0.5 * theta) ** 2 - 1j * np.sin(theta))
    w[0] = 1.0  # placeholder; z = 1 is set to P(1) = 1 below
    pgf = (1.0 - rho) / (1.0 - rho * z * (np.expm1(w) / w))
    pgf[0] = 1.0
    # the pole's constant term c is left in: at light traffic c ~ 1/rho, and
    # subtracting it would cost eps*c absolute in every coefficient
    zg = z * g
    coef = np.fft.fft(pgf - c * zg / (1.0 - zg)).real / n
    probs = np.maximum(coef + c * g ** np.arange(n), 0.0)
    probs[0] = 1.0 - rho  # exact; coef[0] + c double-counts the constant
    return probs


def md1_stationary(rho: float, tol: ToleranceConfig = DEFAULT_TOL) -> StationaryDist:
    """M/D/1 queue-length pmf: FFT-inverted head, then a geometric continuation.

    The head runs until the geometric tail carries less than eps_series/2 of
    the mass, so the truncated-plus-tail total is accurate to eps_series
    even though the continuation uses the limiting ratio.  The stopping rule
    is on absolute mass because the FFT terms carry an absolute (not
    relative) error of about 1e-16.
    """
    if not 0.0 <= rho < 1.0:
        raise OutOfRange(f"rho must lie in [0,1), got {rho}")
    if rho == 0.0:
        return StationaryDist(probs=np.array([1.0]), tail_ratio=0.0, truncation_K=0)
    g = md1_tail_ratio(rho, tol)
    sigma = 1.0 / g
    c = (1.0 - rho) * (sigma - 1.0) / (rho * sigma - 1.0)
    # pi_i ~ c g^i, so the stopping index is about log(eps (1-g)/(2 c g)) / log(g);
    # measured, it is at most 1.13 max(8, K_pred) for rho in [0.01, 0.995] and
    # eps_series in [1e-16, 1e-4], so 2 K_pred terms hold it
    K_pred = math.log(0.5 * tol.eps_series * (1.0 - g) / (c * g)) / math.log(g)
    n = 64
    while n < 2 * min(K_pred, tol.max_states + 1):
        n *= 2
    probs = _md1_pmf_fft(rho, g, c, n)
    small = np.flatnonzero(probs[8:] * g / (1.0 - g) < 0.5 * tol.eps_series)
    if not small.size or 8 + small[0] > tol.max_states:
        raise TruncationOverflow(
            f"M/D/1 pmf needs more than max_states={tol.max_states} terms"
        )
    K = 8 + int(small[0])
    return StationaryDist(probs=probs[: K + 1].copy(), tail_ratio=g, truncation_K=K)


# --------------------------------------------------------------------------
# uniformized busy-horizon state weights (exponential service)
# --------------------------------------------------------------------------

def _poisson_mode_pmf(m: float, k0: int) -> float:
    """P[N = k0] for N ~ Poisson(m) at k0 = floor(m) >= 16, to a few ulps.

    Loader's saddle-point form exp(-stirlerr(k0) - bd0(k0, m)) / sqrt(2 pi k0)
    ("Fast and accurate computation of binomial probabilities", 2000): with
    |k0 - m| < 1 both exponent terms are small and computed without
    cancellation, where the log-space exp(k log m - m - log k!) would lose
    about k log m ulps.
    """
    nn = float(k0) * k0
    stirlerr = (
        1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn
    ) / k0
    # bd0 = k0 log(k0/m) + m - k0 by its series in v = (k0 - m)/(k0 + m), |v| < 1/32
    v = (k0 - m) / (k0 + m)
    bd0 = (k0 - m) * v
    term = 2.0 * k0 * v
    j = 1
    while True:
        term *= v * v
        nxt = bd0 + term / (2 * j + 1)
        if nxt == bd0:
            break
        bd0, j = nxt, j + 1
    return math.exp(-stirlerr - bd0) / math.sqrt(2.0 * math.pi * k0)


def _poisson_table(m: float, hi: int) -> tuple:
    """(pmf, sf) over k = 0..hi for N ~ Poisson(m): P[N = k] and P[N > k].

    The pmf is one product chain out of the mode, by the ratios m/k upward
    and k/m downward, started from exp(-m) at k = 0 when m < 16 and from
    ``_poisson_mode_pmf`` otherwise.  Each step adds about one ulp of
    rounding, so relative errors grow like the square root of the distance
    from the mode: a tail probability of 1e-300 keeps about 15 digits,
    where exp(k log m - m - log k!) keeps 11 to 13.  The survival function
    sums the pmf from past the top of the table down, smallest terms first,
    and the table runs 12 sqrt(m) + 40 terms past max(hi, m), so the mass
    it omits is below 1e-30 of every returned tail.
    """
    k0 = int(m)
    top = max(hi, k0) + int(12.0 * math.sqrt(m)) + 40
    pmf = np.arange(top + 1, dtype=float)
    if k0 < 16:
        np.divide(m, pmf[1:], out=pmf[1:])
        pmf[0] = math.exp(-m)
        np.cumprod(pmf, out=pmf)
    else:
        # pmf[k] = pmf[k+1] (k+1)/m below the mode and pmf[k-1] m/k above it
        down = pmf[1 : k0 + 1] / m
        np.divide(m, pmf[k0 + 1 :], out=pmf[k0 + 1 :])
        pmf[k0] = _poisson_mode_pmf(m, k0)
        np.cumprod(pmf[k0:], out=pmf[k0:])
        pmf[:k0] = pmf[k0] * np.cumprod(down[::-1])[::-1]
    tail = np.cumsum(pmf[:0:-1])[::-1]  # tail[k] = P[N > k]
    return pmf[: hi + 1], tail[: hi + 1]


def _poisson_horizon(nu_d: float, eps: float) -> np.ndarray:
    """Poisson(nu*d) pmf out to where the remaining tail mass is below eps."""
    if nu_d == 0.0:
        return np.array([1.0])
    hi = int(nu_d + 12.0 * math.sqrt(nu_d + 1.0) + 40.0)
    pmf, sf = _poisson_table(nu_d, hi)
    meets = sf < eps  # sf[k] = P[N > k]
    if not meets[-1]:
        raise TruncationOverflow(
            f"Poisson({nu_d:g}) tail stays above eps={eps:g} through {hi} jumps"
        )
    cut = int(np.argmax(meets))  # first index meeting the bound
    return pmf[: cut + 1]


def _chain_step(v: np.ndarray, p_up: float, q_down: float) -> np.ndarray:
    """One step of the positive part of the absorbing ahead-set chain.

    State j receives q from j+1 and p from j-1; state 1 receives only from 2
    (mass flowing to the absorbing empty state is dropped).
    """
    out = np.zeros_like(v)
    out[:-1] += q_down * v[1:]
    out[1:] += p_up * v[:-1]
    return out


@dataclass(frozen=True)
class BusyWeights:
    """w_l = P[l ahead after d, ahead-set never empty] for a tagged arrival.

    ``head[l-1]`` holds w_l for l <= n, where n = ``len(self)`` is the
    Poisson jump cut; beyond it the weights are exactly geometric,
    w_l = ``tail_next`` * rho**(l - n - 1), i.e. C rho**l with
    C rho**(n+1) = ``tail_next``.
    """

    head: np.ndarray
    rho: float
    tail_next: float

    def __len__(self) -> int:
        return len(self.head)

    def total_mass(self) -> float:
        """P[ahead-set never empties within d], head plus closed-form tail."""
        return float(self.head.sum() + self.tail_next / (1.0 - self.rho))


def busy_state_distribution(
    config: QueueConfig, tol: ToleranceConfig = DEFAULT_TOL
) -> BusyWeights:
    """Busy-horizon state weights: an exact head plus a closed geometric tail.

    The initial state is the stationary arriving-customer count (PASTA),
    restricted to busy finds: pi_+ with (pi_+)_l = (1-rho) rho^l.  After k
    steps of the uniformized chain every state l > k still holds exactly
    (1-rho) rho^(l-k) r^k with r = p_up + q_down rho^2 (one step maps that
    geometric profile onto itself times r), so with the Poisson jump sum
    cut at n every state l > n carries C rho^l, C = (1-rho) sum_k
    pmf_k (r/rho)^k.  Only the first 2n states are iterated: the missing
    flow from above corrupts one more top state per step, so after n steps
    states 1..n are still exact.  The state count depends on the delay
    horizon, not on rho.
    """
    rates = validate(config)
    if config.service is not ServiceKind.EXPONENTIAL:
        raise OutOfRange("busy_state_distribution requires exponential service")
    nu_d = rates.nu * config.d
    # the cut n has P[N > n] < eps/2 < 1/2, so n is at least the Poisson
    # median, which is at least nu d - ln 2: reject before building the table
    if nu_d - 1.0 > tol.max_states:
        raise TruncationOverflow(
            f"busy-state head needs more than nu*d - 1 = {nu_d - 1.0:.6g} states "
            f"but max_states={tol.max_states}"
        )
    pmf = _poisson_horizon(nu_d, 0.5 * tol.eps_series)
    n = len(pmf) - 1
    if n > tol.max_states:
        raise TruncationOverflow(
            f"busy-state head needs {n} states but max_states={tol.max_states}"
        )
    rho = rates.rho
    # w_{n+1} = (1-rho) sum_k pmf_k r^k rho^(n+1-k): no (r/rho)^k overflow
    ks = np.arange(n + 1)
    tail_next = float((1.0 - rho) * (pmf * rates.r_coef**ks * rho ** (n + 1 - ks)).sum())
    v = (1.0 - rho) * rho ** np.arange(1, 2 * n + 1)
    acc = pmf[0] * v
    for k in range(1, n + 1):
        v = _chain_step(v, rates.p_up, rates.q_down)
        acc += pmf[k] * v
    return BusyWeights(head=acc[:n], rho=rho, tail_next=tail_next)
