"""Exact expected waiting times in the delayed APQ, with FCFS, NPQ and APQ as its cases.

The class-2 delayed-APQ mean is the NPQ mean minus a correction that prices
the slower accreditation: for exponential service the correction is the
first moment of the busy-horizon state weights (``dapq.markov``), a
Poisson-weighted sum over the uniformized ahead-set chain; for
deterministic service the sum over post-delay queue states of
residual-service integrals against the M/D/1 stationary distribution has a
closed form.  Class-1 means always follow from the work-conserving
conservation law.

The accumulation rate b enters the mean only as the prefactor
rho1 b / (mu (1 - rho1 (1-b)) (1 - rho1)) of that correction; the
correction sum itself depends on (lambda1, lambda2, mu, d) alone.
``_MeanInB`` computes the sum once and then prices any number of b
values, which is what a search over b (``dapq.kpi``) and a b sweep of
``dapq mean`` need.  The prefactor is linear-fractional in b, so the rate
that gives a class-2 mean, and through conservation a class-1 mean, is
one closed form (``_MeanInB.rate_for``), and so is the mean's slope in b
(``_MeanInB.slope``).

Numerical notes
---------------
* The exponential-service correction iterates the same chain as the
  class-2 CDFs' busy weights, through the same call
  (``markov._delay_weights``, one delay here; ``_b_free_rows`` passes all
  the delays of a sweep at once), but cuts the Poisson jump sum where an
  explicit bound on the first moment's remainder, not on the mass, falls
  below eps_series/2 (the moment cut of ``markov._jump_cuts``).  Beyond
  the cut the weights are exactly geometric, so their moment has a closed
  form.
* A mean validates its config once and works from the ``DerivedRates``
  that validation returned: the strict-priority mean, the conservation law
  (``core._conservation_rhs``, ``core._class1_mean_from_class2``) and the
  class-2 mean in b (``_MeanInB``) each have one implementation, and each
  takes those rates.
* The deterministic-service correction is summed over every post-delay
  state at once: by the binomial theorem on the residual- and delay-side
  Poisson weights, the sum over states is a partial expectation of
  S = N + Poisson(lambda1 d) (N the M/D/1 queue length, with mean
  rho + rho^2/(2(1-rho))) over S <= l, less one integral over the residual
  service r in (0, 1/mu) of first-emptying terms.  That integrand is smooth,
  and a fixed 32-node Gauss--Legendre rule evaluates it to roundoff: over
  162 configs (occupancy 0.1-0.99, class-1 share 0.05-0.95, l = 1-500) it
  agrees with 64 nodes to 4.4e-16 times max(1, |value|) or better.  Inside
  it, the tails P[Poisson(z) >= a] have z < a, so they are summed upward
  from their first term with every summand positive.  Only pi_1..pi_l and l x l
  first-emptying coefficients enter, so the cost depends on the delay
  l = d*mu, not on the occupancy, and a delay above ``max_states`` raises
  ``TruncationOverflow``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import (
    DEFAULT_TOL,
    DapqError,
    DerivedRates,
    OutOfRange,
    QueueConfig,
    ServiceKind,
    ToleranceConfig,
    WaitSummary,
    _class1_mean_from_class2,
    _conservation_rhs,
    validate,
)
from .markov import _delay_weights, _poisson_table, md1_stationary


# --------------------------------------------------------------------------
# strict priority
# --------------------------------------------------------------------------

def _npq_class2_mean(config: QueueConfig, rates: DerivedRates) -> float:
    """Mean class-2 wait under strict (non-preemptive) priority, from the config's ``rates``.

    rho/(mu(1-rho1)(1-rho)), halved for deterministic service.
    """
    base = rates.rho / (config.mu * (1.0 - rates.rho1) * (1.0 - rates.rho))
    return base if config.service is ServiceKind.EXPONENTIAL else 0.5 * base


# --------------------------------------------------------------------------
# M/M/1 delayed APQ
# --------------------------------------------------------------------------

def _mm1_correction_sum(config: QueueConfig, rates: DerivedRates, tol: ToleranceConfig) -> float:
    """sum_k pois(nu d; k) pi_+ P_+^k J_+: the b-free part of the M/M/1 correction.

    This is the first moment sum_l l w_l of the busy weights, with the
    jump sum cut at the moment cut of ``markov._jump_cuts``: a cut by mass
    alone, as the CDFs use, does not weight the missed steps by l.  It is
    the one-delay case of ``markov._delay_weights``.
    """
    [(_, moment)], _ = _delay_weights(rates, [config.d], tol, heads=False)
    if isinstance(moment, DapqError):
        raise moment
    return moment


def mm1_dapq_class2_mean(config: QueueConfig, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Exact mean class-2 wait in the M/M/1 delayed APQ."""
    rates = validate(config)
    if config.service is not ServiceKind.EXPONENTIAL:
        raise OutOfRange("mm1_dapq_class2_mean requires exponential service")
    return _MeanInB(config, rates, tol)(config.b)


# --------------------------------------------------------------------------
# M/D/1 delayed APQ
# --------------------------------------------------------------------------

# Gauss--Legendre nodes of the residual-service integral: exact to degree 63,
# past the degree-29 band polynomial of its integrand
_MD1_NODES = 32
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

    Summed upward from p = a, 16 terms at a time, into buffers allocated
    once.  Every ratio z/(p+1) of consecutive terms is below 1 and falls
    with p, so once the last term times (r+i+1) q/(1-q)^2 is below 1e-17
    of the sum, the rest is too.
    """
    with np.errstate(divide="ignore"):  # z = 0 (lambda1 underflows): log z = -inf, t = 0
        t = np.exp(a * np.log(z) - z - log_fact[a])
    out = r * t
    steps = np.arange(1.0, 17.0)
    ratios, terms, weighted = (np.empty(z.shape + (16,)) for _ in range(3))
    done = 0
    while True:
        np.divide(z[..., None], a[:, None] + (done + steps), out=ratios)
        np.cumprod(ratios, axis=-1, out=terms)
        np.multiply(t[..., None], terms, out=terms)
        np.add(r[..., None], done + steps, out=weighted)
        np.multiply(weighted, terms, out=weighted)
        out += weighted.sum(axis=-1)
        done += 16
        t, q = terms[..., -1].copy(), ratios[..., -1]
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
    # product with the banded Toeplitz matrix toep[n, k-1] = pi_{k-n}, 0 for k <= n
    padded = np.concatenate([np.zeros(band - 1), pi[1 : ell + 1]])
    toep = padded[np.arange(band - 1, -1, -1)[:, None] + np.arange(ell)]
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
    lam1, rho = rates.rho1, rates.rho
    pi = md1_stationary(rho, ell, tol).probs
    x = lam1 * ell
    head = np.convolve(pi[1:], _poisson_table(x, ell - 1)[0])[:ell]  # P'(S = 1..l)
    queue_mean = rho + rho * rho / (2.0 * (1.0 - rho))
    plain = queue_mean + rho * x - (ell + 0.5) * rho - float(np.arange(0.5 - ell, 0.0) @ head)
    return plain - _md1_emptying_integral(ell, lam1, pi, nodes)


def md1_dapq_class2_mean(config: QueueConfig, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Exact mean class-2 wait in the M/D/1 delayed APQ (d = l/mu, integer l)."""
    rates = validate(config)
    if config.service is not ServiceKind.DETERMINISTIC:
        raise OutOfRange("md1_dapq_class2_mean requires deterministic service")
    return _MeanInB(config, rates, tol)(config.b)


# --------------------------------------------------------------------------
# the class-2 mean as a function of b
# --------------------------------------------------------------------------

class _MeanInB:
    """b -> exact E[W2] at fixed rates and delay, and back.

    The mean at rate b is npq - g(b) num / den: npq is the strict-priority
    mean, g(b) = rho1 b / ((1 - rho1 (1 - b))(1 - rho1)), over mu for
    exponential service, and the b-free quotient (num, den) is computed at
    the first b that needs it and kept, so later calls cost a few float
    operations; each value equals the one-shot mean of
    ``config.replace(b=b)`` bit for bit.  The config's own ``b`` is
    ignored; ``rates`` are those ``validate`` gave the config at any b.
    ``moment`` is the exponential-service correction sum when the caller
    has it (``_b_free_rows`` computes those of all delays of a sweep at
    once), or the ``DapqError`` computing it raised, which a call that
    needs the correction raises; None computes it on first use.
    """

    def __init__(self, config: QueueConfig, rates: DerivedRates, tol: ToleranceConfig,
                 moment=None):
        self._config = config
        self._rates = rates
        self._tol = tol
        # a caller's exponential-service sum is the quotient (sum, 1); its error is kept
        self._quotient = (moment, 1.0) if isinstance(moment, float) else moment
        self._npq = _npq_class2_mean(config, rates)

    def _correction(self) -> tuple:
        """The b-free (num, den): correction sum and 1 or mu, in each kind's operation order."""
        if self._quotient is None:
            config, rates, tol = self._config, self._rates, self._tol
            if config.service is ServiceKind.EXPONENTIAL:
                self._quotient = _mm1_correction_sum(config, rates, tol), 1.0
            elif round(config.d * config.mu) == 0:  # below one service: rho / (2 mu (1 - rho))
                self._quotient = rates.rho, 2.0 * config.mu * (1.0 - rates.rho)
            else:  # the closed form works in mu = 1 units; the correction scales by 1/mu
                self._quotient = _md1_correction_sum(config, rates, tol), config.mu
        if isinstance(self._quotient, DapqError):
            raise self._quotient
        return self._quotient

    def __call__(self, b: float) -> float:
        if not 0.0 <= b <= 1.0:
            raise OutOfRange(f"accumulation ratio b must lie in [0,1], got {b}")
        if b == 0.0 or self._rates.rho1 == 0.0:
            return self._npq
        num, den = self._correction()
        config, rho1 = self._config, self._rates.rho1
        rho1_acc = config.lambda1 * (1.0 - b) / config.mu
        if config.service is ServiceKind.EXPONENTIAL:
            g = rho1 * b / (config.mu * (1.0 - rho1_acc) * (1.0 - rho1))
        else:
            g = rho1 * b / ((1.0 - rho1_acc) * (1.0 - rho1))
        return float(self._npq - g * num / den)

    def _g_at_one(self) -> float:
        """c = g(1) = rho1 / (1 - rho1), over mu for exponential service."""
        rho1 = self._rates.rho1
        c = rho1 / (1.0 - rho1)
        if self._config.service is ServiceKind.EXPONENTIAL:
            c /= self._config.mu
        return c

    def rate_for(self, mean_w2: float) -> float:
        """The rate in [0, 1] whose class-2 mean is ``mean_w2``, to roundoff.

        The mean must vary with b.  g(b) = c b / (1 - rho1 (1 - b)) with
        c = g(1), so g(b) = G at b = G (1 - rho1) / (c - G rho1), where
        G = (npq - mean_w2) den / num.
        """
        num, den = self._correction()
        rho1 = self._rates.rho1
        big_g = (self._npq - mean_w2) * den / num
        return min(1.0, max(0.0, big_g * (1.0 - rho1) / (self._g_at_one() - big_g * rho1)))

    def slope(self, b: float) -> float:
        """dE[W2]/db at rate b: -g'(b) num / den, g'(b) = c (1 - rho1) / (1 - rho1 (1 - b))^2."""
        num, den = self._correction()
        rho1 = self._rates.rho1
        return -self._g_at_one() * (1.0 - rho1) / (1.0 - rho1 * (1.0 - b)) ** 2 * num / den


def _b_free_rows(configs, tol: ToleranceConfig, heads: bool) -> tuple:
    """Each row's rates, class-2 mean function of b and, with ``heads``, busy weights.

    The rows are configs that differ only in d.  Their busy weights and
    exponential-service correction sums come from one run of the ahead-set
    chain (``markov._delay_weights``), each equal to its one-row value bit
    for bit.  A row whose config is invalid, or with ``heads`` whose
    service is not exponential or whose head cannot be cut within
    max_states, fails, its DapqError in place of its mean.  A correction
    sum that cannot be cut is kept in the row's mean function, which
    raises it only when a b > 0 needs it, as the one-row mean would.
    Returns (rates, means, weights, steps), None where a failed row has no
    rates or weights, steps the chain run's step count (None if none ran).
    """
    n = len(configs)
    rates, moments, weights, means = [None] * n, [None] * n, [None] * n, [None] * n
    batch = []
    for r, cfg in enumerate(configs):
        try:
            rates[r] = validate(cfg.replace(b=0.0))
            if heads and cfg.service is not ServiceKind.EXPONENTIAL:
                raise OutOfRange("class-2 CDF machinery requires exponential service")
            batch.append(r)
        except DapqError as exc:
            means[r] = exc
    steps = None
    if batch and configs[batch[0]].service is ServiceKind.EXPONENTIAL:
        rows, steps = _delay_weights(rates[batch[0]], [configs[r].d for r in batch], tol, heads)
        for r, (w, moment) in zip(batch, rows):
            if isinstance(w, DapqError):
                means[r] = w
            else:
                weights[r], moments[r] = w, moment
    means = [m or _MeanInB(cfg, rates[r], tol, moments[r])
             for r, (cfg, m) in enumerate(zip(configs, means))]
    return rates, means, weights, steps


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------

def dapq_means(config: QueueConfig, tol: ToleranceConfig = DEFAULT_TOL) -> WaitSummary:
    """Exact mean waits for both classes, with the conservation residual.

    The config is validated once; the class-2 mean of either service kind
    and the conservation law then work from its rates.
    """
    rates = validate(config)
    return _wait_summary(config, rates, _MeanInB(config, rates, tol)(config.b))


def _wait_summary(config: QueueConfig, rates: DerivedRates, mean_w2: float) -> WaitSummary:
    """Both means and the conservation residual, from the class-2 mean of ``config``."""
    mean_w1 = _class1_mean_from_class2(config, rates, mean_w2)
    resid = abs(rates.rho1 * mean_w1 + rates.rho2 * mean_w2 - _conservation_rhs(config, rates))
    return WaitSummary(
        mean_w1=float(mean_w1), mean_w2=float(mean_w2), conservation_residual=float(resid)
    )
