"""Exact expected waiting times under FCFS, NPQ, APQ, and delayed APQ.

The class-2 delayed-APQ mean is the NPQ mean minus a correction that prices
the slower accreditation: for exponential service the correction is a
Poisson-weighted sum over the uniformized ahead-set chain (``x_table``),
plus a closed-form geometric-region term; for deterministic service it is a
sum over post-delay queue states of residual-service integrals against the
M/D/1 stationary distribution.  Class-1 means always follow from the
work-conserving conservation law.

The accumulation rate b enters the mean only as the prefactor
rho1 b / (mu (1 - rho1 (1-b)) (1 - rho1)) of that correction; the
correction sum itself depends on (lambda1, lambda2, mu, d) alone.
``class2_mean_in_b`` computes the sum once and then prices any number of b
values, which is what a search over b (``dapq.kpi``) needs.

Numerical notes
---------------
* The x-table recursion needs values one index beyond the stored row; those
  come from the exact geometric region (pi_+ P_+^k)_l = (1-rho) rho^(l-k) r^k
  for l > k.  The first-column base case is x_1^(2) = q*rho*r, which is what
  the recursion and the explicit matrix products both give.
* Every entry of the normalized chain vectors is bounded by rho, so the
  truncated Poisson k-sum carries an explicit remainder bound
  (rho/2) * [m^2 P(N >= K-1) + 2 m P(N >= K)] for N ~ Poisson(m = nu*d).
* The deterministic-service integrals have exactly polynomial integrands on
  (0, 1/mu) once the exponential factors are cancelled, so Gauss--Legendre
  quadrature of matching degree evaluates them to machine precision with no
  alternating-sum cancellation; all integrand pieces are nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np
from scipy.special import gammaln

from .core import (
    DEFAULT_TOL,
    DerivedRates,
    OutOfRange,
    QueueConfig,
    ServiceKind,
    ToleranceConfig,
    TruncationOverflow,
    WaitSummary,
    class1_mean_from_class2,
    conservation_rhs,
    validate,
)
from .markov import _poisson_pmf, _poisson_sf, md1_stationary


# --------------------------------------------------------------------------
# closed-form boundary disciplines
# --------------------------------------------------------------------------

def fcfs_mean(config: QueueConfig) -> float:
    """Mean FCFS wait: rho/(mu(1-rho)), halved for deterministic service."""
    rates = validate(config)
    base = rates.rho / (config.mu * (1.0 - rates.rho))
    return base if config.service is ServiceKind.EXPONENTIAL else 0.5 * base


def npq_class2_mean(config: QueueConfig) -> float:
    """Mean class-2 wait under strict (non-preemptive) priority."""
    rates = validate(config)
    base = rates.rho / (config.mu * (1.0 - rates.rho1) * (1.0 - rates.rho))
    return base if config.service is ServiceKind.EXPONENTIAL else 0.5 * base


# --------------------------------------------------------------------------
# x-table: the non-geometric head of pi_+ P_+^k
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class XTable:
    """Rows x_1^(k) .. x_k^(k) of the uniformized-chain products.

    Row k equals (pi_+ P_+^k)_l / (1-rho) for l = 1..k; beyond l = k the
    product continues as rho^(l-k) r^k exactly.
    """

    rows: tuple
    p_up: float
    q_down: float
    r_coef: float

    def row(self, k: int) -> np.ndarray:
        return self.rows[k - 1]


def _next_x_row(prev: np.ndarray, k: int, rho: float, rates: DerivedRates) -> np.ndarray:
    """Row k from row k-1, extending the previous row into its geometric region."""
    p, q, r = rates.p_up, rates.q_down, rates.r_coef
    geo = r ** (k - 1)
    ext = np.concatenate([prev, [rho * geo, rho * rho * geo]])  # l = k, k+1
    row = np.empty(k)
    row[0] = q * ext[1]
    row[1:] = p * ext[0 : k - 1] + q * ext[2 : k + 1]
    return row


def _x_rows(rates: DerivedRates, K_max: int) -> Iterator[np.ndarray]:
    """Rows 1..K_max of the recursion, in order."""
    rho = rates.rho
    row = np.array([rates.q_down * rho * rho])
    yield row
    for k in range(2, K_max + 1):
        row = _next_x_row(row, k, rho, rates)
        yield row


def x_table(rates: DerivedRates, K_max: int) -> XTable:
    """Build rows 1..K_max of the recursion."""
    if K_max < 1:
        raise OutOfRange("K_max must be >= 1")
    rows = tuple(_x_rows(rates, K_max))
    return XTable(rows=rows, p_up=rates.p_up, q_down=rates.q_down, r_coef=rates.r_coef)


# --------------------------------------------------------------------------
# M/M/1 delayed APQ
# --------------------------------------------------------------------------

def _poisson_ksum_cutoff(nu_d: float, rho: float, eps: float, max_states: int) -> int:
    """Smallest K whose k-sum remainder bound is below eps.

    Remainder over k > K of pmf(k) * k(k+1)/2 * rho, using
    E[N(N-1); N > K] = m^2 P(N >= K-1) and E[N; N > K] = m P(N >= K).
    The candidates K run from int(nu_d) in steps of max(1, int(nu_d/20));
    the bound is evaluated over a window of them at once, and the window
    doubles until a candidate meets eps or the candidates reach max_states.
    """
    if nu_d == 0.0:
        return 0
    first, step = int(nu_d), max(1, int(0.05 * nu_d))
    window = 32
    while True:
        ks = np.arange(first, min(first + window * step, max_states), step)
        bound = 0.5 * rho * (
            nu_d**2 * _poisson_sf(ks - 2, nu_d) + 2.0 * nu_d * _poisson_sf(ks - 1, nu_d)
        )
        meets = np.flatnonzero(bound < eps)
        if meets.size:
            return int(ks[meets[0]])
        if first + window * step >= max_states:
            raise TruncationOverflow(
                f"Poisson k-sum did not meet its tail bound within max_states={max_states}"
            )
        window *= 2


def _mm1_correction_sum(config: QueueConfig, rates: DerivedRates, tol: ToleranceConfig) -> float:
    """sum_k pois(nu d; k) pi_+ P_+^k J_+: the b-free part of the M/M/1 correction.

    The x-table rows carry the non-geometric head of each product and a
    closed form sums the geometric region over all k.
    """
    rho = rates.rho
    r = rates.r_coef
    nu_d = rates.nu * config.d
    K = _poisson_ksum_cutoff(nu_d, rho, 0.5 * tol.eps_series, tol.max_states)
    tot = 0.0
    if K >= 1:
        pmf = _poisson_pmf(np.arange(K + 1), nu_d)
        for k, row in enumerate(_x_rows(rates, K), start=1):
            tot += pmf[k] * float(np.arange(1, k + 1) @ row)
    closed = rho * math.exp(-nu_d + r * nu_d) * (1.0 / (1.0 - rho) + r * nu_d)
    return (1.0 - rho) * tot + closed


def mm1_dapq_class2_mean(config: QueueConfig, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Exact mean class-2 wait in the M/M/1 delayed APQ."""
    validate(config)
    if config.service is not ServiceKind.EXPONENTIAL:
        raise OutOfRange("mm1_dapq_class2_mean requires exponential service")
    return class2_mean_in_b(config, tol)(config.b)


# --------------------------------------------------------------------------
# M/D/1 delayed APQ
# --------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    # map from (-1,1) to (0,1)
    return 0.5 * (x + 1.0), 0.5 * w


def _poisson_weights(x: np.ndarray, n: int) -> np.ndarray:
    """Rows x_q^i / i! for i = 0..n-1, by stable cumulative products."""
    steps = np.empty((len(x), n))
    steps[:, 0] = 1.0
    steps[:, 1:] = x[:, None] / np.arange(1, n)
    return np.cumprod(steps, axis=1)


def _md1_correction_term(j: int, ell: int, lam1: float, pi: np.ndarray, Tmat) -> float:
    """One j-term of the deterministic-service correction (mu = 1 units).

    Integrates (wait-weighted and plain) the joint density of the residual
    service, the post-delay ahead count j, and survival of the ahead-set,
    over the residual's support (0, 1).  The integrand (after pulling out
    exp(-lam1*d)) is a polynomial of degree < j + ell, so the quadrature
    below is exact.  All quadrature nodes are evaluated at once.
    """
    kmax = j + ell
    d = float(ell)
    nodes, weights = _leggauss(kmax // 2 + 2)
    pois_r = _poisson_weights(lam1 * nodes, kmax)
    pois_y = _poisson_weights(lam1 * (d - nodes), kmax)
    # numres[:, k-2] = sum_n pi_{k-n} (lam1 r)^n/n!  for k = 2..kmax, as a
    # product with the Toeplitz matrix toep[n, k-2] = pi_{k-n} (pi_0 excluded)
    padded = np.concatenate([np.zeros(kmax - 1), pi[1 : kmax + 1]])
    toep = np.lib.stride_tricks.sliding_window_view(padded, kmax - 1)[:0:-1]
    numres = pois_r @ toep
    val = np.einsum("qk,qk->q", numres, pois_y[:, kmax - 2 :: -1])
    if ell >= 2:
        m_arr = np.arange(2, ell + 1)
        pw = j + ell - m_arr
        z = lam1 * (d - m_arr + 1.0 - nodes[:, None])  # positive on the open node set
        Zmat = np.exp(pw * np.log(z) - gammaln(pw + 1.0))
        val -= np.einsum("qk,qk->q", numres[:, : ell - 1], Zmat @ Tmat.T)
    I0 = float(weights @ val)
    I1 = float((weights * nodes) @ val)
    return math.exp(-lam1 * d) * (I1 + (j - 1) * I0)


def _md1_probempty_matrix(ell: int, lam1: float) -> np.ndarray:
    """Upper-triangular coefficients tying first-emptying epoch m to state k.

    T[k-2, m-2] = (lam1 (m-1))^(m-k)/(m-k)! * (k-1)/(m-1) for 2 <= k <= m <= ell
    (ballot-style probability that the ahead-set first empties at the m-th
    departure, before the trailing arrival count is applied).
    """
    T = np.zeros((ell - 1, ell - 1))
    for k in range(2, ell + 1):
        for m in range(k, ell + 1):
            T[k - 2, m - 2] = (
                (lam1 * (m - 1)) ** (m - k) / math.factorial(m - k) * ((k - 1) / (m - 1))
            )
    return T


def _md1_correction_sum(config: QueueConfig, rates: DerivedRates, tol: ToleranceConfig) -> float:
    """The b-free j-series of the M/D/1 correction, in mu = 1 units (d = l/mu, l >= 1)."""
    ell = int(round(config.d * config.mu))
    lam1 = rates.rho1
    dist = md1_stationary(rates.rho, tol)
    g = dist.tail_ratio

    jmax = tol.max_states
    pi = dist.pmf_array(ell + 64)
    Tmat = _md1_probempty_matrix(ell, lam1) if ell >= 2 else None
    total = 0.0
    prev_term = math.inf
    j = 0
    while True:
        j += 1
        if j > jmax:
            raise TruncationOverflow(
                f"deterministic-service j-series exceeded max_states={tol.max_states}"
            )
        if j + ell + 1 > len(pi):
            pi = dist.pmf_array(2 * (j + ell) + 8)
        term = _md1_correction_term(j, ell, lam1, pi, Tmat)
        total += term
        if j >= ell + 4 and term < prev_term:
            ratio = max(term / prev_term if prev_term > 0 else 0.0, g)
            ratio = min(ratio, 0.999)
            if term * ratio / (1.0 - ratio) < 0.5 * tol.eps_series:
                return total
        prev_term = term


def md1_dapq_class2_mean(config: QueueConfig, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Exact mean class-2 wait in the M/D/1 delayed APQ (d = l/mu, integer l)."""
    validate(config)
    if config.service is not ServiceKind.DETERMINISTIC:
        raise OutOfRange("md1_dapq_class2_mean requires deterministic service")
    return class2_mean_in_b(config, tol)(config.b)


# --------------------------------------------------------------------------
# the class-2 mean as a function of b
# --------------------------------------------------------------------------

def class2_mean_in_b(
    config: QueueConfig, tol: ToleranceConfig = DEFAULT_TOL
) -> Callable[[float], float]:
    """Exact mean class-2 wait as a function of b at the config's rates and delay.

    The accumulation rate enters only as the prefactor of a b-free
    correction sum (the Poisson k-sum for exponential service, the j-series
    for deterministic service).  The returned function computes that sum at
    the first b that needs it and keeps it, so later calls cost a few float
    operations; each value equals the one-shot mean of
    ``config.replace(b=b)`` bit for bit.  The config's own ``b`` is ignored.
    """
    exponential = config.service is ServiceKind.EXPONENTIAL
    correction_sum = None

    def mean_w2(b: float) -> float:
        nonlocal correction_sum
        cfg = config.replace(b=b)
        rates = validate(cfg)
        npq = npq_class2_mean(cfg)
        if b == 0.0 or rates.rho1 == 0.0:
            return npq
        if exponential:
            if correction_sum is None:
                correction_sum = _mm1_correction_sum(cfg, rates, tol)
            factor = rates.rho1 * b / (cfg.mu * (1.0 - rates.rho1_acc) * (1.0 - rates.rho1))
            return float(npq - factor * correction_sum)
        factor_dimless = rates.rho1 * b / ((1.0 - rates.rho1_acc) * (1.0 - rates.rho1))
        if round(cfg.d * cfg.mu) == 0:
            return npq - factor_dimless * rates.rho / (2.0 * cfg.mu * (1.0 - rates.rho))
        if correction_sum is None:
            correction_sum = _md1_correction_sum(cfg, rates, tol)
        # the series works in mu = 1 units; the correction scales by 1/mu
        return float(npq - factor_dimless * correction_sum / cfg.mu)

    return mean_w2


# --------------------------------------------------------------------------
# dispatch and interpolation
# --------------------------------------------------------------------------

def dapq_means(config: QueueConfig, tol: ToleranceConfig = DEFAULT_TOL) -> WaitSummary:
    """Exact mean waits for both classes, with the conservation residual."""
    rates = validate(config)
    if config.service is ServiceKind.EXPONENTIAL:
        mean_w2 = mm1_dapq_class2_mean(config, tol)
    else:
        mean_w2 = md1_dapq_class2_mean(config, tol)
    mean_w1 = class1_mean_from_class2(config, mean_w2)
    resid = abs(rates.rho1 * mean_w1 + rates.rho2 * mean_w2 - conservation_rhs(config))
    return WaitSummary(
        mean_w1=float(mean_w1), mean_w2=float(mean_w2), conservation_residual=float(resid)
    )


def interpolated_mean(
    config: QueueConfig, scv: float, tol: ToleranceConfig = DEFAULT_TOL
) -> WaitSummary:
    """Convex blend of the exponential and deterministic means.

    ``scv`` is the squared coefficient of variation of the intended service
    distribution; 1 recovers exponential, 0 deterministic.  An approximation
    for intermediate service variability, not an exact result.
    """
    if not 0.0 <= scv <= 1.0:
        raise OutOfRange(f"scv must lie in [0,1], got {scv}")
    exp_s = dapq_means(config.replace(service=ServiceKind.EXPONENTIAL), tol)
    det_s = dapq_means(config.replace(service=ServiceKind.DETERMINISTIC), tol)
    rates = validate(config)
    w1 = scv * exp_s.mean_w1 + (1.0 - scv) * det_s.mean_w1
    w2 = scv * exp_s.mean_w2 + (1.0 - scv) * det_s.mean_w2
    # rhs for a service law with E[S^2] = (1+scv)/mu^2
    lam = config.lambda1 + config.lambda2
    rhs = rates.rho / (1.0 - rates.rho) * lam * (1.0 + scv) / (2.0 * config.mu**2)
    resid = abs(rates.rho1 * w1 + rates.rho2 * w2 - rhs)
    return WaitSummary(mean_w1=w1, mean_w2=w2, conservation_residual=resid)
