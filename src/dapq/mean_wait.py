"""Exact expected waiting times under FCFS, NPQ, APQ, and delayed APQ.

The class-2 delayed-APQ mean is the NPQ mean minus a correction that prices
the slower accreditation: for exponential service the correction is a
Poisson-weighted sum over the uniformized ahead-set chain (``x_table``),
plus a closed-form geometric-region term; for deterministic service the sum
over post-delay queue states of residual-service integrals against the M/D/1
stationary distribution has a closed form.  Class-1 means always follow from
the work-conserving conservation law.

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
* The deterministic-service correction is summed over every post-delay
  state at once: by the binomial theorem on the residual- and delay-side
  Poisson weights, the sum over states is a partial expectation of
  S = N + Poisson(lambda1 d) (N the M/D/1 queue length, with mean
  rho + rho^2/(2(1-rho))) over S <= l, less one integral over the residual
  service r in (0, 1/mu) of first-emptying terms.  That integrand is smooth,
  and a fixed 64-node Gauss--Legendre rule evaluates it to roundoff (32
  nodes agree to 1e-13 at occupancy 0.99).  Inside it, the tails
  P[Poisson(z) >= a] have z < a, so they are summed upward from their
  first term with every summand positive.  Only pi_1..pi_l and l x l
  first-emptying coefficients enter, so the cost depends on the delay
  l = d*mu, not on the occupancy, and a delay above ``max_states`` raises
  ``TruncationOverflow``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

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
from .markov import _poisson_table, md1_stationary


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
        if ks.size:
            _, sf = _poisson_table(nu_d, int(ks[-1]))
            sf = np.concatenate(([1.0, 1.0], sf))  # sf[k + 2] = P[N > k] for k >= -2
            bound = 0.5 * rho * (nu_d**2 * sf[ks] + 2.0 * nu_d * sf[ks + 1])
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
        pmf, _ = _poisson_table(nu_d, K)
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

# Gauss--Legendre nodes of the residual-service integral; 32 nodes already
# agree with 64 to 1e-13 at occupancy 0.99
_MD1_NODES = 64
# first-emptying columns handled at once: memory grows as l times this
_MD1_BLOCK = 128
# r-side Poisson weights kept; beyond them (lam1 r)^n/n! < 1/30! = 4e-33
_MD1_BAND = 30


@lru_cache(maxsize=2)
def _unit_gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss--Legendre rule on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _poisson_weights(x: np.ndarray, n: int) -> np.ndarray:
    """Rows x_q^i / i! for i = 0..n-1, by stable cumulative products."""
    steps = np.empty((len(x), n))
    steps[:, 0] = 1.0
    steps[:, 1:] = x[:, None] / np.arange(1, n)
    return np.cumprod(steps, axis=1)


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n."""
    return np.concatenate([[0.0], np.cumsum(np.log(np.arange(1.0, n + 1)))])


def _md1_probempty_matrix(lam1: float, ms: np.ndarray, log_fact: np.ndarray) -> np.ndarray:
    """First-emptying coefficients of the columns m in ``ms``, rows k = 1..max(ms).

    T[k-1, c] = Pois(lam1 (m-1); m-k) (k-1)/(m-1) for 2 <= k <= m = ms[c],
    and T[0, c] = 1 for m = 1: the ballot-style probability that an
    ahead-set of k first empties at the m-th departure, times the
    probability of the m-k arrivals over the m-1 services.  Each entry is a
    Poisson probability times a factor of at most 1, so no delay overflows
    it.
    """
    ks = np.arange(1, ms[-1] + 1)[:, None]
    gap = ms - ks
    busy = (gap >= 0) & (ks >= 2)
    served = np.maximum(ms - 1, 1)  # m = 1 has no busy entry
    mean = lam1 * served
    gap = np.where(busy, gap, 0)
    T = np.exp(gap * np.log(mean) - mean - log_fact[gap]) * ((ks - 1) / served)
    T[~busy] = 0.0
    T[0, ms == 1] = 1.0
    return T


def _upper_poisson_moment(
    a: np.ndarray, z: np.ndarray, r: np.ndarray, log_fact: np.ndarray
) -> np.ndarray:
    """sum_{p >= a} (r + p - a) Pois(z; p) elementwise, for integers a >= 1 and 0 < z < a.

    Summed upward from p = a, 16 terms at a time.  Every ratio z/(p+1) of
    consecutive terms is below 1 and falls with p, so once the last term
    times (r+i+1) q/(1-q)^2 is below 1e-17 of the sum, the rest is too.
    """
    t = np.exp(a * np.log(z) - z - log_fact[a])
    out = r * t
    steps = np.arange(1.0, 17.0)
    done = 0
    while True:
        ratios = z[..., None] / (a[:, None] + (done + steps))
        terms = t[..., None] * np.cumprod(ratios, axis=-1)
        out = out + ((r[..., None] + (done + steps)) * terms).sum(axis=-1)
        done += 16
        t, q = terms[..., -1], ratios[..., -1]
        if np.all(t * (r + done + 1) * q <= 1e-17 * (1.0 - q) ** 2 * out):
            return out


def _md1_emptying_integral(ell: int, lam1: float, pi: np.ndarray, nodes: int) -> float:
    """The residual-service integral of the M/D/1 correction (mu = 1 units).

    int_0^1 e^{-lam1 r} sum_{m=1}^{l} c_m(r) U(a_m, z_m, r) dr, where
    a_m = l-m+1, z_m = lam1 (a_m - r), U is ``_upper_poisson_moment`` and
    c_m(r) = sum_k numres_k(r) T[k, m] with
    numres_k(r) = sum_{n<k} pi_{k-n} (lam1 r)^n/n!.  The integrand is
    smooth on [0, 1], so a fixed Gauss--Legendre rule takes it to roundoff.
    """
    r, w = _unit_gauss_legendre(nodes)
    log_fact = _log_factorials(ell)
    band = min(ell, _MD1_BAND)
    # numres[q, k-1] = sum_{n < min(k, band)} pi_{k-n} (lam1 r_q)^n/n!, by a
    # product with the banded Toeplitz matrix toep[n, k-1] = pi_{k-n}
    padded = np.concatenate([np.zeros(band - 1), pi[1 : ell + 1]])
    toep = np.lib.stride_tricks.sliding_window_view(padded, ell)[::-1]
    numres = _poisson_weights(lam1 * r, band) @ toep
    rc = r[:, None]
    total = np.zeros_like(r)
    for lo in range(0, ell, _MD1_BLOCK):
        ms = np.arange(lo + 1, min(lo + _MD1_BLOCK, ell) + 1)
        c = numres[:, : ms[-1]] @ _md1_probempty_matrix(lam1, ms, log_fact)
        a = ell + 1 - ms
        total += (c * _upper_poisson_moment(a, lam1 * (a - rc), rc, log_fact)).sum(axis=1)
    return float(w @ (np.exp(-lam1 * r) * total))


def _md1_correction_sum(
    config: QueueConfig, rates: DerivedRates, tol: ToleranceConfig, nodes: int = _MD1_NODES
) -> float:
    """The b-free M/D/1 correction in closed form, in mu = 1 units (d = l/mu, l >= 1).

    Summed over the post-delay ahead count j >= 1, the j-series collapses
    (binomial theorem on the residual- and delay-side Poisson weights) to

        L + rho x - (l + 1/2) rho - sum_{s=1}^{l} (s - l - 1/2) P'(S = s)
        - (the residual-service integral, ``_md1_emptying_integral``)

    with x = lam1 l, L = rho + rho^2/(2(1-rho)) the M/D/1 mean queue
    length, and P'(S = s) = sum_{m=1}^{s} pi_m Pois(x; s-m) the law of
    S = N + Poisson(x) on N >= 1.  Only pi_1..pi_l enter, and nothing is
    truncated but the upward Poisson sums inside the integral.
    """
    ell = int(round(config.d * config.mu))
    if ell > tol.max_states:
        raise TruncationOverflow(
            f"deterministic-service correction needs {ell} states but max_states={tol.max_states}"
        )
    lam1, rho = rates.rho1, rates.rho
    pi = md1_stationary(rho, tol).pmf_array(ell)
    x = lam1 * ell
    head = np.convolve(pi[1:], _poisson_table(x, ell - 1)[0])[:ell]  # P'(S = 1..l)
    queue_mean = rho + rho * rho / (2.0 * (1.0 - rho))
    plain = queue_mean + rho * x - (ell + 0.5) * rho - float(np.arange(0.5 - ell, 0.0) @ head)
    return plain - _md1_emptying_integral(ell, lam1, pi, nodes)


def md1_dapq_class2_mean(config: QueueConfig, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Exact mean class-2 wait in the M/D/1 delayed APQ (d = l/mu, integer l)."""
    validate(config)
    if config.service is not ServiceKind.DETERMINISTIC:
        raise OutOfRange("md1_dapq_class2_mean requires deterministic service")
    return class2_mean_in_b(config, tol)(config.b)


# --------------------------------------------------------------------------
# the class-2 mean as a function of b
# --------------------------------------------------------------------------

def _correction_quotient(config: QueueConfig, rates: DerivedRates, tol: ToleranceConfig) -> tuple:
    """The b-free part of the class-2 correction as a quotient (num, den).

    The mean at rate b is npq - g(b) num / den with g = ``_correction_prefactor``:
    num is the correction sum (the Poisson k-sum for exponential service, a
    closed form for deterministic service) and den 1 or mu, which keeps the
    operation order of each service kind's formula; a deterministic delay
    below one service has the closed form rho / (2 mu (1 - rho)).
    """
    if config.service is ServiceKind.EXPONENTIAL:
        return _mm1_correction_sum(config, rates, tol), 1.0
    if round(config.d * config.mu) == 0:
        return rates.rho, 2.0 * config.mu * (1.0 - rates.rho)
    # the closed form works in mu = 1 units; the correction scales by 1/mu
    return _md1_correction_sum(config, rates, tol), config.mu


def _correction_prefactor(config: QueueConfig, b):
    """g(b) = rho1 b / ((1 - rho1_acc)(1 - rho1)), over mu for exponential service.

    Elementwise in b, so a search prices many rates at once; the config's
    own b is not used.
    """
    rho1 = config.lambda1 / config.mu
    rho1_acc = config.lambda1 * (1.0 - b) / config.mu
    if config.service is ServiceKind.EXPONENTIAL:
        return rho1 * b / (config.mu * (1.0 - rho1_acc) * (1.0 - rho1))
    return rho1 * b / ((1.0 - rho1_acc) * (1.0 - rho1))


class _MeanInB:
    """b -> exact E[W2] at fixed rates and delay (see ``class2_mean_in_b``)."""

    def __init__(self, config: QueueConfig, tol: ToleranceConfig):
        self._config = config
        self._tol = tol
        self._quotient = None

    def correction(self) -> tuple:
        """The b-free (num, den) of ``_correction_quotient``, computed on first use."""
        if self._quotient is None:
            cfg = self._config.replace(b=0.0)
            self._quotient = _correction_quotient(cfg, validate(cfg), self._tol)
        return self._quotient

    def __call__(self, b: float) -> float:
        cfg = self._config.replace(b=b)
        rates = validate(cfg)
        npq = npq_class2_mean(cfg)
        if b == 0.0 or rates.rho1 == 0.0:
            return npq
        if self._quotient is None:  # the rates are b-free where the quotient uses them
            self._quotient = _correction_quotient(cfg, rates, self._tol)
        num, den = self._quotient
        return float(npq - _correction_prefactor(cfg, b) * num / den)


def class2_mean_in_b(
    config: QueueConfig, tol: ToleranceConfig = DEFAULT_TOL
) -> Callable[[float], float]:
    """Exact mean class-2 wait as a function of b at the config's rates and delay.

    The accumulation rate enters only as the prefactor of a b-free
    correction sum (the Poisson k-sum for exponential service, a closed form
    for deterministic service).  The returned function computes that sum at
    the first b that needs it and keeps it, so later calls cost a few float
    operations; each value equals the one-shot mean of
    ``config.replace(b=b)`` bit for bit.  The config's own ``b`` is ignored.
    Its ``correction()`` gives the kept sum, from which ``dapq.kpi`` prices
    the rates of several delays at once with ``_correction_prefactor``.
    """
    return _MeanInB(config, tol)


# --------------------------------------------------------------------------
# dispatch
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
