"""Exact expected waiting times in the delayed APQ, with FCFS, NPQ and APQ as its cases.

For either service kind the class-2 delayed-APQ mean is

    E[W2](b) = npq - g(b) C,    g(b) = rho1 b / ((1 - rho1 (1 - b))(1 - rho1)):

npq = W0 / ((1 - rho1)(1 - rho)) is the strict-priority mean (Cobham), W0 =
lambda E[S^2]/2 the residual work an arrival finds (``core._residual_work``,
which the conservation law reads too), and C, in time units, prices the
slower accreditation.  For exponential service C is the first moment of
the busy-horizon state weights (``dapq.markov``) over mu; for
deterministic service, a closed form of residual-service integrals against
the M/D/1 stationary distribution over mu, or below one service (d = 0)
the FCFS mean W0 / (1 - rho).  Class-1 means follow from the
work-conserving conservation law.

b enters the mean only through g(b); C depends on (lambda1, lambda2, mu,
d) alone.  ``_MeanInB`` computes C once and then prices any number of b
values, which is what a search over b (``dapq.kpi``) and a b sweep of
``dapq mean`` need.  g is linear-fractional in b, so the rate that gives
a class-2 mean, and through conservation a class-1 mean, is one closed
form (``_MeanInB.rate_for``), and so is the mean's slope in b
(``_MeanInB.slope``).

Numerical notes
---------------
* The exponential-service correction iterates the same chain as the
  class-2 CDFs' busy weights, through the same call
  (``markov._delay_weights``, one delay here; ``_b_free_rows`` passes all
  the delays of a sweep at once, with a head asked for only where a class-2
  search reads one), but needs no head: the ahead-set walk
  drifts down at q_down - p_up per step while it is alive, so the first
  moment after k steps is M_k = rho/(1-rho) - (q_down - p_up) sum_{j<k} S_j,
  S_j the alive mass, which the state-1 mass of each step updates.  M_k
  falls from rho/(1-rho), so the jump sum is cut where rho/(1-rho) times
  the Poisson tail falls below eps_series/2, the heads' mass rule scaled
  (the moment cut of ``markov._jump_cuts``).
* A mean validates its config once and works from the ``DerivedRates``
  that validation returned: the conservation law
  (``core._conservation_rhs``, ``core._class1_mean_from_class2``) and the
  class-2 mean in b (``_MeanInB``) each have one implementation, and each
  takes those rates.
* Both corrections are cut to eps_series in mu = 1 units, so a mean that
  needs C raises ``AccuracyNotMet`` when eps_series is below the float
  spacing of npq mu, the largest value the mean takes in those units;
  b = 0 (npq) needs no C.
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
  from their first term with every summand positive.  Every Poisson
  probability here comes from ``markov._poisson_pmf``: the residual-service
  weights and each tail's first term directly, and the first-emptying
  coefficients as product chains out of each column's mode, within 1e-13
  relative of 40-digit mpmath at l = 500.  Only pi_1..pi_l and l x l
  first-emptying coefficients enter, so the cost depends on the delay
  l = d*mu, not on the occupancy, and a delay above ``max_states`` raises
  ``TruncationOverflow``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import (
    DEFAULT_TOL,
    AccuracyNotMet,
    DapqError,
    DerivedRates,
    OutOfRange,
    QueueConfig,
    ServiceKind,
    ToleranceConfig,
    WaitSummary,
    _class1_mean_from_class2,
    _conservation_rhs,
    _residual_work,
    validate,
)
from .markov import _delay_weights, _poisson_pmf, _poisson_table, md1_stationary


# --------------------------------------------------------------------------
# M/M/1 delayed APQ
# --------------------------------------------------------------------------

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
# r-side Poisson weights kept; beyond them Pois(lam1 r; n) < 1/30! = 4e-33
_MD1_BAND = 30


@lru_cache(maxsize=2)
def _unit_gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss--Legendre rule on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _md1_probempty_matrix(lam1: float, ms: np.ndarray) -> np.ndarray:
    """First-emptying coefficients of the columns m in ``ms``, rows k = 1..max(ms).

    T[k-1, c] = Pois(lam1 (m-1); m-k) (k-1)/(m-1) for 2 <= k <= m = ms[c],
    and T[0, c] = 1 for m = 1: the ballot-style probability that an
    ahead-set of k first empties at the m-th departure, times the
    probability of the m-k arrivals over the m-1 services.  Each column's
    Poisson probabilities are a product chain in the gap m-k out of its
    mode, started from ``markov._poisson_pmf`` there, as
    ``markov._poisson_table`` does for one mean: every factor is at most 1,
    so no delay overflows it, and a chain costs one multiply an entry where
    the pmf itself costs an exp and a log.
    """
    ks = np.arange(1.0, ms[-1] + 1)[:, None]
    gap = ms - ks
    served = np.maximum(ms - 1, 1)  # m = 1 has no busy entry
    mean = lam1 * served
    mode = mean.astype(int)
    at = ms - mode - 1  # the row of each column's mode
    # above its mode, toward k = 1, an entry is the one below it times mean/gap;
    # below it an entry is the one above it times (gap + 1)/mean, which is 0 at
    # gap = -1, so that every row past m is 0
    T = np.ones(gap.shape)
    up, g = T[: at.max()], gap[: at.max()]
    np.divide(mean, g, out=up, where=g > mode)
    np.cumprod(up[::-1], axis=0, out=up[::-1])
    g = gap[at.min() + 1 :]
    down = np.ones(g.shape)
    np.divide(g + 1, mean, out=down, where=(g < mode) & (g >= -1))
    T[at.min() + 1 :] *= np.cumprod(down, axis=0, out=down)
    T *= ks - 1
    T *= _poisson_pmf(mode, mean) / served
    T[0, ms == 1] = 1.0
    return T


def _upper_poisson_moment(a: np.ndarray, z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_{p >= a} (r + p - a) Pois(z; p) elementwise, for integers a >= 1 and 0 < z < a.

    Summed upward from p = a, 16 terms at a time, into buffers allocated
    once.  Every ratio z/(p+1) of consecutive terms is below 1 and falls
    with p, so once the last term times (r+i+1) q/(1-q)^2 is below 1e-17
    of the sum, the rest is too.
    """
    t = _poisson_pmf(a, z)
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


def _md1_emptying_integral(ell: int, lam1: float, pi: np.ndarray) -> float:
    """The residual-service integral of the M/D/1 correction (mu = 1 units).

    int_0^1 sum_{m=1}^{l} c_m(r) U(a_m, z_m, r) dr, where
    a_m = l-m+1, z_m = lam1 (a_m - r), U is ``_upper_poisson_moment`` and
    c_m(r) = sum_k numres_k(r) T[k, m] with
    numres_k(r) = sum_{n<k} pi_{k-n} Pois(lam1 r; n).  The integrand is
    smooth on [0, 1], so a fixed Gauss--Legendre rule of ``_MD1_NODES``
    nodes takes it to roundoff.
    """
    r, w = _unit_gauss_legendre(_MD1_NODES)
    band = min(ell, _MD1_BAND)
    # numres[q, k-1] = sum_{n < min(k, band)} pi_{k-n} Pois(lam1 r_q; n), by a
    # product with the banded Toeplitz matrix toep[n, k-1] = pi_{k-n}, 0 for k <= n
    padded = np.concatenate([np.zeros(band - 1), pi[1 : ell + 1]])
    toep = padded[np.arange(band - 1, -1, -1)[:, None] + np.arange(ell)]
    numres = _poisson_pmf(np.arange(band), lam1 * r[:, None]) @ toep
    rc = r[:, None]
    total = np.zeros_like(r)
    for lo in range(0, ell, _MD1_BLOCK):
        ms = np.arange(lo + 1, min(lo + _MD1_BLOCK, ell) + 1)
        c = numres[:, : ms[-1]] @ _md1_probempty_matrix(lam1, ms)
        a = ell + 1 - ms
        total += (c * _upper_poisson_moment(a, lam1 * (a - rc), rc)).sum(axis=1)
    return float(w @ total)


def _md1_correction_sum(config: QueueConfig, rates: DerivedRates, tol: ToleranceConfig) -> float:
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
    return plain - _md1_emptying_integral(ell, lam1, pi)


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

    The mean at rate b is npq - g(b) C for either service kind: npq =
    W0 / ((1 - rho1)(1 - rho)) is the strict-priority mean, g(b) =
    rho1 b / ((1 - rho1 (1 - b))(1 - rho1)), and the b-free correction C,
    in time units, is computed at the first b that needs it and kept, so
    later calls cost a few float operations; each value equals the
    one-shot mean of ``config.replace(b=b)`` bit for bit.  The config's
    own ``b`` is ignored; ``rates`` are those ``validate`` gave the config
    at any b.  ``moment`` is the exponential-service drift moment when the
    caller has it (``_b_free_rows`` computes those of all delays of a
    sweep at once), or the ``TruncationOverflow`` of its moment cut
    (``markov._delay_weights``), which only a call that needs the
    correction raises, so b = 0 never fails; None computes it on first use.
    """

    def __init__(self, config: QueueConfig, rates: DerivedRates, tol: ToleranceConfig,
                 moment=None):
        self._config = config
        self._rates = rates
        self._tol = tol
        self._moment = moment
        self._c = None
        self._npq = _residual_work(config) / ((1.0 - rates.rho1) * (1.0 - rates.rho))

    def _correction(self) -> float:
        """C, kept once computed: the drift moment or M/D/1 closed form over mu, or the FCFS mean.

        An eps_series below the spacing of npq mu raises ``AccuracyNotMet``.
        """
        if self._c is None:
            config, rates, tol = self._config, self._rates, self._tol
            floor = np.spacing(self._npq * config.mu)
            if tol.eps_series < floor:
                raise AccuracyNotMet(
                    f"eps_series = {tol.eps_series:.3g} is below {floor:.3g}, the float "
                    f"spacing of the strict-priority mean in mu = 1 units")
            if config.service is ServiceKind.EXPONENTIAL:
                if self._moment is None:  # the busy weights' first moment, with no head
                    [(_, self._moment)], _ = _delay_weights(rates, [config.d], tol, [False], True)
                if isinstance(self._moment, DapqError):
                    raise self._moment
                self._c = self._moment / config.mu
            elif round(config.d * config.mu) == 0:  # below one service
                self._c = _residual_work(config) / (1.0 - rates.rho)
            else:
                self._c = _md1_correction_sum(config, rates, tol) / config.mu
        return self._c

    def __call__(self, b: float) -> float:
        if not 0.0 <= b <= 1.0:
            raise OutOfRange(f"accumulation ratio b must lie in [0,1], got {b}")
        if b == 0.0 or self._rates.rho1 == 0.0:
            return self._npq
        rho1 = self._rates.rho1
        rho1_acc = self._config.lambda1 * (1.0 - b) / self._config.mu
        g = rho1 * b / ((1.0 - rho1_acc) * (1.0 - rho1))
        return float(self._npq - g * self._correction())

    def rate_for(self, mean_w2: float) -> float:
        """The rate in [0, 1] whose class-2 mean is ``mean_w2``, to roundoff.

        The mean must vary with b.  g(b) = c b / (1 - rho1 (1 - b)) with
        c = g(1) = rho1 / (1 - rho1), so g(b) = G at
        b = G (1 - rho1) / (c - G rho1), where G = (npq - mean_w2) / C.
        """
        rho1 = self._rates.rho1
        big_g = (self._npq - mean_w2) / self._correction()
        return min(1.0, max(0.0, big_g * (1.0 - rho1) / (rho1 / (1.0 - rho1) - big_g * rho1)))

    def slope(self, b: float) -> float:
        """dE[W2]/db at rate b: -g'(b) C, g'(b) = c (1 - rho1) / (1 - rho1 (1 - b))^2."""
        rho1 = self._rates.rho1
        c = rho1 / (1.0 - rho1)
        return -c * (1.0 - rho1) / (1.0 - rho1 * (1.0 - b)) ** 2 * self._correction()


def _b_free_rows(configs, tol: ToleranceConfig, heads) -> tuple:
    """Each row's rates, class-2 mean function of b and, where ``heads[i]`` asks, busy weights.

    The rows are configs that differ only in d.  Their busy weights and
    exponential-service correction sums come from one run of the ahead-set
    chain (``markov._delay_weights``), each equal to its one-row value bit
    for bit.  Raises the first invalid config, then, from the chain, the
    first head asked for that cannot be cut within max_states.  A correction
    sum that cannot be cut is kept in the row's mean function, which raises
    it only when a b > 0 needs it, as the one-row mean would.  Returns
    (rates, means, weights, steps): weights None where no head was asked for
    or the service is deterministic, steps the chain run's step count (None
    if none ran).
    """
    rates = [validate(cfg.replace(b=0.0)) for cfg in configs]
    rows, steps = [(None, None)] * len(configs), None
    if configs and configs[0].service is ServiceKind.EXPONENTIAL:
        rows, steps = _delay_weights(rates[0], [cfg.d for cfg in configs], tol, heads, True)
    weights = [w for w, _ in rows]
    means = [_MeanInB(cfg, rt, tol, moment) for cfg, rt, (_, moment) in zip(configs, rates, rows)]
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
