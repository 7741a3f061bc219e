"""Independent brute-force oracles shared by the test modules.

Everything here deliberately avoids the package's own recursions: chain
products are explicit truncated matrix-vector iterations, the M/D/1 pmf
comes from the departure-epoch chain recursion or the pgf expansion in
extended precision, and the M/D/1 correction is the j-series the closed
form replaced, each term integrated one quadrature node at a time.  The
busy-horizon weights are a full reachability-sized vector and the class-2
CDF is inverted one scalar contour evaluation at a time; these share only
the Poisson jump cut and the Euler parameters with the package.  Poisson
tails and pmfs come from ``scipy.stats`` or from a 50-digit recurrence,
and the KPI searches evaluate each b from scratch; so does the bisection
that places a class-1 crossing to float resolution
(``class1_crossing_by_bisection``).  The class-2 search on from-scratch
probes (``b_star_class2_per_b``) runs the package's own Newton search, so
that the package must match it bit for bit.  The row-by-row KPI
searches the lockstep ones replaced (one delay or one lambda1 at a time,
one single-point inversion per probe) are kept as oracles too, each on a
scalar ITP search written from the published pseudo-code or, on request,
on the bisection the ITP search replaced; so is the lockstep ITP search
(``itp_rows``) that the package's safeguarded Newton search replaced.
So is the one-curve class-2
path the batched row inverter replaced (``class2_cdf_by_grid``).  The
class-2 CDF also has a reference that inverts no transform: the
uniformized first-passage walk by the hitting-time theorem
(``class2_cdf_by_first_passage``).  Kept as well is the
inversion kernel before its one-root eta and t-free Euler weights
(``eta_by_two_roots``, ``euler_invert_by_division``).  The
simulator moves customers event by event through two deques, makes one
generator call per exponential draw, and its waits are split by class
with a comprehension.  The command line's CSV is
built one row at a time, each value formatted on its own.  The one-row
chain loop that the batched ``markov._busy_weights_rows`` replaced is kept
as ``busy_weights_by_loop``, the M/M/1 correction it once read off a
head as long as the moment cut (before the ahead-set walk's drift gave
it) as ``busy_weights_first_moment``, and the M/D/1 tail ratio's former
bracket search as ``md1_tail_ratio_by_bracket``.  Public names only the tests
used live here too: the geometric M/M/1 pmf, the pmf and mass of a
``StationaryDist`` head (``stationary_pmf``, ``stationary_mass``), the
class-2 tail transform, the class-2 mean as a function of b
(``class2_mean_in_b``), and ``Lst`` with ``invert_to_cdf``, which invert a
stand-alone transform through the package's own inversion and gate.  So
do ``eta_mm1``, ``conservation_rhs`` and ``class1_mean_from_class2``,
each validating its config and calling the package's one implementation,
while the boundary means ``fcfs_mean`` (Pollaczek--Khinchine) and
``npq_class2_mean`` (Cobham) are closed forms written from the textbook,
not from the package.
"""

import cmath
import io
import math
from collections import deque
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.special import gammaln
from scipy.stats import poisson

from dapq import approx, cli, kpi as kpi_mod, mean_wait, simulate, transforms
from dapq.core import (
    DEFAULT_TOL,
    AccuracyNotMet,
    DapqError,
    Kpi,
    OutOfRange,
    QueueConfig,
    ServiceKind,
    TruncationOverflow,
    _class1_mean_from_class2,
    _conservation_rhs,
    validate,
)
from dapq.kpi import FeasibleRegion, PolicyPoint, _fcfs_boundary_rho
from dapq.markov import (
    BusyWeights,
    StationaryDist,
    _jump_cuts,
    busy_state_distribution as dapq_busy_weights,
    md1_stationary,
    md1_tail_ratio,
)
from dapq.mean_wait import dapq_means
from dapq.simulate import _rng_for
from dapq.transforms import (
    CdfCurve,
    _N_AVG,
    _N_BURN,
    _certified_curve,
    _eta,
    _euler_invert,
    _euler_params,
    class2_cdf_dapq,
    default_grid,
)


class NonConvergence(DapqError):
    """An iterative scheme failed to converge within its iteration cap."""


# --------------------------------------------------------------------------
# the boundary means and the conservation law
# --------------------------------------------------------------------------


def fcfs_mean(config):
    """Mean FCFS wait by Pollaczek--Khinchine: lambda E[S^2] / (2 (1 - rho))."""
    validate(config)
    lam = config.lambda1 + config.lambda2
    rho = lam / config.mu
    return lam * config.service.second_moment(config.mu) / (2.0 * (1.0 - rho))


def npq_class2_mean(config):
    """Mean class-2 wait under strict priority by Cobham: W0 / ((1 - rho1)(1 - rho)).

    W0 = lambda E[S^2] / 2 is the mean residual work found by an arrival.
    """
    validate(config)
    lam = config.lambda1 + config.lambda2
    w0 = lam * config.service.second_moment(config.mu) / 2.0
    rho1 = config.lambda1 / config.mu
    return w0 / ((1.0 - rho1) * (1.0 - lam / config.mu))


def conservation_rhs(config):
    """rho1 E[W1] + rho2 E[W2] for any work-conserving discipline, through the package."""
    return _conservation_rhs(config, validate(config))


def class1_mean_from_class2(config, mean_w2):
    """The class-1 mean from the class-2 mean by conservation, through the package."""
    return _class1_mean_from_class2(config, validate(config), mean_w2)


def eta_mm1(s, arrival_rate, mu):
    """The package's eta (``transforms._eta``) of a scalar or an ndarray s.

    An ndarray s gives a complex ndarray, a complex scalar a complex, and a
    real scalar s >= 0 a float in (0, 1].  With an ndarray s the arrival
    rate may be an ndarray too, broadcasting against s.
    """
    val = _eta(np.asarray(s, dtype=complex), arrival_rate, mu)[0]
    if isinstance(s, np.ndarray):
        return val
    if isinstance(s, complex):
        return complex(val)
    return float(val.real)


def x_rows_by_matrix(lam1, mu, rho, k_max, size=800):
    """(pi_+ P_+^k)_l / (1-rho) for l = 1..k via explicit truncated products."""
    nu = mu + lam1
    p, q = lam1 / nu, mu / nu
    v = rho ** np.arange(1, size + 1)
    rows = []
    for k in range(1, k_max + 1):
        w = np.zeros_like(v)
        w[:-1] += q * v[1:]
        w[1:] += p * v[:-1]
        v = w
        rows.append(v[:k].copy())
    return rows


def correction_by_matrix(lam1, mu, rho, d, size=2500):
    """sum_k pois(nu d; k) pi_+ P_+^k J_+ by direct truncated products."""
    nu = mu + lam1
    p, q = lam1 / nu, mu / nu
    nd = nu * d
    K = int(nd + 12 * math.sqrt(nd + 1) + 60)
    v = (1 - rho) * rho ** np.arange(1, size + 1)
    J = np.arange(1, size + 1, dtype=float)
    pmf = poisson.pmf(np.arange(K + 1), nd)
    tot = pmf[0] * (v @ J)
    for k in range(1, K + 1):
        w = np.zeros_like(v)
        w[:-1] += q * v[1:]
        w[1:] += p * v[:-1]
        v = w
        tot += pmf[k] * (v @ J)
    return tot


def md1_tail_ratio_by_lambert_w(rho, dps=50):
    """1/sigma for the root sigma > 1/rho of exp(rho sigma)/sigma = exp(rho), at ``dps`` digits.

    With x = -rho sigma the equation is x e^x = -rho e^(-rho), whose root
    below -1 is the lower branch of Lambert's W, so 1/sigma = -rho / W_{-1}(-rho e^(-rho)).
    """
    with mp.workdps(dps):
        r = mp.mpf(rho)
        return float(-r / mp.re(mp.lambertw(-r * mp.exp(-r), -1)))


def md1_tail_ratio_by_bracket(rho):
    """``dapq.markov.md1_tail_ratio`` with the bracket it replaced: up to 200
    doublings from sigma = 1/rho, each tested after it, then the same Newton steps."""
    g = lambda u: rho * u - math.log1p(u)
    sigma = 1.0 / rho
    for _ in range(200):
        sigma *= 2.0
        if g(sigma - 1.0) > 0.0:
            break
    else:
        raise OutOfRange(f"upper bracket not found for rho = {rho}")
    u = sigma - 1.0
    while True:
        fallen = u - g(u) / (rho - 1.0 / (1.0 + u))
        if not fallen < u:
            return 1.0 / (1.0 + u)
        u = fallen


def md1_pi_exact(rho, n):
    """pi_n for M/D/1 from the pgf expansion, in extended precision.

    pi_n = (1-rho) * [ sum_{m=0}^{n}   e^{m rho} (-m rho)^{n-m}/(n-m)!
                     - sum_{m=0}^{n-1} e^{m rho} (-m rho)^{n-1-m}/(n-1-m)! ]

    The terms alternate and grow like e^{n rho}, so the precision is
    budgeted for the cancellation.  This term-by-term evaluation is what
    ``dapq.markov.md1_stationary`` computed before its FFT inversion.
    """
    with mp.workdps(40 + int(0.8 * n)):
        r = mp.mpf(rho)
        s1 = mp.fsum(
            mp.e ** (m * r) * (-m * r) ** (n - m) / mp.factorial(n - m)
            for m in range(n + 1)
        )
        s2 = mp.fsum(
            mp.e ** (m * r) * (-m * r) ** (n - 1 - m) / mp.factorial(n - 1 - m)
            for m in range(n)
        )
        return float((1 - r) * (s1 - s2))


def mm1_stationary(rho, tol=DEFAULT_TOL):
    """Head of the geometric M/M/1 queue-length pmf, cut where the tail mass < eps_series."""
    if not 0.0 <= rho < 1.0:
        raise OutOfRange(f"rho must lie in [0,1), got {rho}")
    if rho == 0.0:
        return StationaryDist(probs=np.array([1.0]), truncation_K=0)
    # tail mass beyond K is rho**(K+1)
    K = max(1, math.ceil(math.log(tol.eps_series) / math.log(rho)) - 1)
    K = min(K, tol.max_states)
    probs = (1.0 - rho) * rho ** np.arange(K + 1)
    return StationaryDist(probs=probs, truncation_K=K)


def stationary_pmf(dist, i):
    """pi_i of a ``StationaryDist``'s head, 0 outside it."""
    return float(dist.probs[i]) if 0 <= i <= dist.truncation_K else 0.0


def stationary_mass(dist):
    """Mass of a ``StationaryDist``'s head."""
    return float(dist.probs.sum())


def md1_pi_embedded(rho, n_max):
    """Forward recursion on the departure-epoch chain, 80 digits."""
    with mp.workdps(80):
        r = mp.mpf(rho)
        a = [mp.e ** (-r) * r**k / mp.factorial(k) for k in range(n_max + 3)]
        ps = [1 - r]
        for j in range(n_max + 1):
            s = ps[j] - ps[0] * a[j] - mp.fsum(ps[k] * a[j - k + 1] for k in range(1, j + 1))
            ps.append(s / a[0])
        return [float(x) for x in ps]


def md1_probempty_by_factorials(ell, lam1):
    """T[k-2, m-2] = (lam1 (m-1))^(m-k)/(m-k)! (k-1)/(m-1) for 2 <= k <= m <= ell.

    The first-emptying coefficients without their exp(-lam1 (m-1)) factor,
    as the j-series used them; they overflow once ell reaches about 150.
    """
    T = np.zeros((ell - 1, ell - 1))
    for k in range(2, ell + 1):
        for m in range(k, ell + 1):
            T[k - 2, m - 2] = (
                (lam1 * (m - 1)) ** (m - k) / math.factorial(m - k) * ((k - 1) / (m - 1))
            )
    return T


def md1_correction_term_by_nodes(j, ell, lam1, pi, Tmat):
    """One j-term of the M/D/1 correction, one quadrature node at a time.

    Integrates the wait-weighted joint density of the residual service,
    the post-delay ahead count j and survival of the ahead-set over the
    residual's support (0, 1), in mu = 1 units: a convolution with pi and
    a first-emptying matrix-vector product per Gauss--Legendre node.  The
    integrand, without exp(-lam1 d), is a polynomial of degree < j + ell,
    so the rule is exact.  ``Tmat`` is ``md1_probempty_by_factorials``.
    """
    kmax = j + ell
    d = float(ell)
    x, w = np.polynomial.legendre.leggauss(kmax // 2 + 2)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w

    def pois(y):
        return np.cumprod(np.concatenate([[1.0], y / np.arange(1, kmax)]))

    I0 = I1 = 0.0
    u = pi[1 : kmax + 1]
    m_arr = np.arange(2, ell + 1)
    pw = j + ell - m_arr
    for rr, wq in zip(nodes, weights):
        numres = np.convolve(u, pois(lam1 * rr))[1:kmax]
        val = float(numres @ pois(lam1 * (d - rr))[kmax - 2 :: -1])
        if ell >= 2:
            z = lam1 * (d - m_arr + 1.0 - rr)
            Zvec = np.exp(pw * np.log(z) - gammaln(pw + 1.0))
            val -= float(numres[: ell - 1] @ (Tmat @ Zvec))
        I0 += wq * val
        I1 += wq * rr * val
    return math.exp(-lam1 * d) * (I1 + (j - 1) * I0)


def md1_correction_sum_by_series(ell, lam1, rho, tol=DEFAULT_TOL):
    """The M/D/1 correction as the j-series over the post-delay ahead count.

    Sums ``md1_correction_term_by_nodes`` over j >= 1 and stops on the
    ratio test the library used before its closed form: once
    term * q/(1-q) < eps_series/2, with q the observed ratio of
    consecutive terms floored at the pmf's tail ratio and capped at 0.999.
    There is no proven bound; at a tight eps_series it is a reference.
    """
    g = md1_tail_ratio(rho)
    pi = md1_stationary(rho, ell + 64, tol).probs
    T = md1_probempty_by_factorials(ell, lam1) if ell >= 2 else None
    total = 0.0
    prev_term = math.inf
    for j in range(1, tol.max_states + 1):
        if j + ell + 1 > len(pi):
            pi = md1_stationary(rho, 2 * (j + ell) + 8, tol).probs
        term = md1_correction_term_by_nodes(j, ell, lam1, pi, T)
        total += term
        if j >= ell + 4 and term < prev_term:
            ratio = max(term / prev_term if prev_term > 0 else 0.0, g)
            ratio = min(ratio, 0.999)
            if term * ratio / (1.0 - ratio) < 0.5 * tol.eps_series:
                return total
        prev_term = term
    raise TruncationOverflow(f"j-series exceeded max_states={tol.max_states}")


def md1_correction_by_drift(ell, lam1, rho):
    """The M/D/1 correction from the work-ahead drift identity, with no quadrature (mu = 1).

    Optional stopping of the work ahead gives C = E[V0] - (1 - lam1)
    E[min(l, tau); busy], E[V0] = rho/(2(1-rho)), and, tau falling at the
    m-th departure r + m - 1 with the first-emptying coefficients T of
    ``mean_wait._md1_probempty_matrix``,

        E[min(l, tau); busy] = l rho - J,
        J = sum_{1<=k<=m<=l} T[k, m] (A_k (l + 1 - m) - B_k).

    A_k and B_k integrate numres_k(r) = sum_{n<k} pi_{k-n} Pois(lam1 r; n)
    and r numres_k(r) over r in (0, 1) in closed form: with N ~
    Poisson(lam1), the integral of Pois(lam1 r; n) is P[N > n]/lam1 and
    that of r Pois(lam1 r; n) is (n + 1) P[N > n + 1]/lam1^2.  T and the
    tails come from ``scipy.stats.poisson``; needs l >= 1 and lam1 > 0.
    """
    pi = md1_stationary(rho, ell).probs
    n = np.arange(ell)
    sf = poisson.sf(np.arange(ell + 1), lam1)
    # toep[k-1, n] = pi_{k-n} for n < k, else 0
    k = np.arange(1, ell + 1)[:, None]
    toep = np.where(n < k, pi[np.clip(k - n, 0, ell)], 0.0)
    A = toep @ (sf[:-1] / lam1)
    B = toep @ ((n + 1) * sf[1:] / lam1**2)
    m = np.arange(1, ell + 1)
    T = np.where((k >= 2) & (k <= m),
                 poisson.pmf(m - k, lam1 * (m - 1)) * (k - 1) / np.maximum(m - 1, 1), 0.0)
    T[0, 0] = 1.0
    J = A @ (T @ (ell + 1.0 - m)) - B @ T.sum(axis=1)
    return rho / (2.0 * (1.0 - rho)) - (1.0 - lam1) * (ell * rho - J)


# --------------------------------------------------------------------------
# busy-horizon weights and class-2 CDFs: the full-vector scalar path
# --------------------------------------------------------------------------
#
# ``dapq.markov.busy_state_distribution`` returns an exact head plus a
# closed geometric tail and ``dapq.transforms`` inverts whole grids at once.
# The code below is the path they replaced: a state vector long enough for
# rho^S to fall below eps_series, and one scalar complex evaluation per
# contour node and grid point.


def _state_cap(rho, n_poisson, tol):
    # reachability: no path climbs more than one state per jump
    base = 64 if rho == 0.0 else math.ceil(math.log(tol.eps_series) / math.log(rho))
    need = max(64, base) + n_poisson
    if need > tol.max_states:
        raise TruncationOverflow(
            f"uniformization needs {need} states but max_states={tol.max_states}"
        )
    return need


def _mass_cut_pmf(rates, d, tol):
    """The package's Poisson jump pmf of a busy-weight head, cut by mass."""
    pmf, cut, _ = _jump_cuts(rates.nu * d, rates.rho, tol)
    if isinstance(cut, DapqError):
        raise cut
    return pmf[: cut + 1]


def _chain_step(v, p_up, q_down):
    out = np.zeros_like(v)
    out[:-1] += q_down * v[1:]
    out[1:] += p_up * v[:-1]
    return out


@dataclass(frozen=True)
class SurvivalTransition:
    """probs[i-1, j-1] = P[j ahead after d with the ahead-set never empty | i at 0].

    Row sums are at most 1 (the deficit is absorption at the empty state) and
    are nonincreasing in the horizon d.  ``d = 0`` gives the identity block.
    """

    probs: np.ndarray
    max_initial: int
    max_final: int
    poisson_terms: int

    def prob(self, i, j):
        if not (1 <= i <= self.max_initial and 1 <= j <= self.max_final):
            return 0.0
        return float(self.probs[i - 1, j - 1])

    def row_sum(self, i):
        return float(self.probs[i - 1].sum())


def survival_transition(config, tol=DEFAULT_TOL, max_initial=64):
    """Busy-horizon transition law of the uniformized ahead-set chain, row by row."""
    rates = validate(config)
    if config.service is not ServiceKind.EXPONENTIAL:
        raise OutOfRange("survival_transition requires exponential service")
    pmf = _mass_cut_pmf(rates, config.d, tol)
    S = _state_cap(rates.rho, len(pmf), tol)
    max_initial = min(max_initial, S)
    rows = np.zeros((max_initial, S))
    for i in range(1, max_initial + 1):
        v = np.zeros(S)
        v[i - 1] = 1.0
        acc = pmf[0] * v
        for k in range(1, len(pmf)):
            v = _chain_step(v, rates.p_up, rates.q_down)
            acc = acc + pmf[k] * v
        rows[i - 1] = acc
    return SurvivalTransition(
        probs=rows, max_initial=max_initial, max_final=S, poisson_terms=len(pmf)
    )


def busy_state_distribution(config, tol=DEFAULT_TOL):
    """w[j-1] = P[j ahead after d, ahead-set never empty], as one long vector."""
    rates = validate(config)
    if config.service is not ServiceKind.EXPONENTIAL:
        raise OutOfRange("busy_state_distribution requires exponential service")
    pmf = _mass_cut_pmf(rates, config.d, tol)
    S = _state_cap(rates.rho, len(pmf), tol)
    rho = rates.rho
    v = (1.0 - rho) * rho ** np.arange(1, S + 1)
    acc = pmf[0] * v
    for k in range(1, len(pmf)):
        v = _chain_step(v, rates.p_up, rates.q_down)
        acc = acc + pmf[k] * v
    return acc


def _chain_step_into(v, p_up, q_down, out):
    out[0] = 0.0
    np.multiply(v[:-1], p_up, out=out[1:])
    out[:-1] += q_down * v[1:]
    return out


def busy_weights_by_loop(rates, pmf):
    """The busy weights of one jump sum cut after ``pmf[-1]``, by the one-row loop.

    This is the loop ``dapq.markov._busy_weights_rows`` replaced: the chain
    of one row on 2n states, n = len(pmf) - 1, accumulated step by step.
    """
    n = len(pmf) - 1
    rho = rates.rho
    ks = np.arange(n + 1)
    tail_next = float((1.0 - rho) * (pmf * rates.r_coef**ks * rho ** (n + 1 - ks)).sum())
    v = (1.0 - rho) * rho ** np.arange(1, 2 * n + 1)
    acc = pmf[0] * v
    spare = np.empty_like(v)
    for k in range(1, n + 1):
        v, spare = _chain_step_into(v, rates.p_up, rates.q_down, spare), v
        acc += pmf[k] * v
    return BusyWeights(head=acc[:n], rho=rho, tail_next=tail_next)


def busy_weights_total_mass(weights):
    """P[ahead-set never empties within d] of busy weights, head plus closed-form tail."""
    return float(weights.head.sum() + weights.tail_next / (1.0 - weights.rho))


def busy_weights_first_moment(weights):
    """sum_l l w_l of busy weights: the head's dot product with 1..n plus the closed-form tail.

    This is how the package took the M/M/1 correction before it followed
    the ahead-set walk's drift: from a head as long as the moment cut.  The
    tail is sum_{l>n} l ``tail_next`` rho**(l-n-1)
    = ``tail_next`` ((n+1)/(1-rho) + rho/(1-rho)**2).
    """
    n, rho = len(weights.head), weights.rho
    tail = weights.tail_next * ((n + 1) / (1.0 - rho) + rho / (1.0 - rho) ** 2)
    return float(np.arange(1, n + 1) @ weights.head + tail)


def class2_tail_lst(config, s, tol=DEFAULT_TOL):
    """E[exp(-s W2) ; W2 > d] for the delayed APQ.

    This is exp(-s d) sum_j w_j eta(s)^j over the package's busy weights,
    the polynomial summed term by term with the closed geometric tail.  At
    s = 0 it is the probability the tagged class-2 customer is still
    waiting when the delay expires.
    """
    w = dapq_busy_weights(config, tol)
    e = complex(eta_mm1(complex(s), config.lambda1 * (1.0 - config.b), config.mu))
    n = len(w)
    poly = sum(h * e ** (l + 1) for l, h in enumerate(w.head))
    poly += w.tail_next * e ** (n + 1) / (1.0 - w.rho * e)
    val = cmath.exp(-complex(s) * config.d) * poly
    if isinstance(s, complex):
        return val
    return val.real


def _shifted_tail_by_horner(lam_acc, mu, w, eta=eta_mm1):
    """The over-delay transform sum_j w_j eta(s)^j as a closure: its own Horner loop."""
    steps = w.head[::-1]

    def fn(s):
        e = eta(np.asarray(s, dtype=complex), lam_acc, mu)
        acc = w.tail_next / (1.0 - w.rho * e)
        for h in steps:
            acc = h + e * acc
        return e * acc

    return fn


def invert_fn(fn, ts, tol=DEFAULT_TOL):
    """The package's block inversion (``transforms._euler_invert``) of a transform ``fn(s)``."""
    return _euler_invert(lambda s: fn(s)[None], ts, tol)


def class2_cdf_by_grid(config, grid=None, tol=DEFAULT_TOL, eta=eta_mm1, invert=invert_fn):
    """The class-2 CDF by the one-curve path the batched row inverter replaced.

    The strict-priority part inverts the busy weights of the config at
    d = 0 (and b = 0), the over-delay part the config's own, each through a
    per-config closure with its own Horner loop and ``invert`` on the 1-D
    grid; F(d) rides along as the last strict-priority point, and the
    result is gated and clamped by hand, as ``_certified_curve`` does.  With ``eta=eta_by_two_roots``
    and ``invert=euler_invert_by_division`` it is the curve of the kernel
    the package used before its one-root eta and t-free Euler weights.
    """
    rates = validate(config)
    if config.service is not ServiceKind.EXPONENTIAL:
        raise OutOfRange("class2_cdf_dapq requires exponential service")
    ts = default_grid(config) if grid is None else np.asarray(grid, dtype=float)
    npq_config = config.replace(b=0.0, d=0.0)
    npq_weights = dapq_busy_weights(npq_config, tol)
    weights = dapq_busy_weights(config, tol)
    atom = 1.0 - rates.rho
    d = config.d
    inside = (ts > 0.0) & (ts <= d)
    beyond = ts > d
    values = np.zeros_like(ts)
    values[ts == 0.0] = atom
    f_at_d, worst_inside = atom, 0.0
    if d > 0:
        npq_fn = _shifted_tail_by_horner(config.lambda1, config.mu, npq_weights, eta)
        npq_vals, npq_est = invert(npq_fn, np.append(ts[inside], d), tol)
        values[inside] = atom + npq_vals[:-1]
        f_at_d = atom + npq_vals[-1]
        worst_inside = np.max(npq_est)
    tail_fn = _shifted_tail_by_horner(config.lambda1 * (1.0 - config.b), config.mu, weights, eta)
    tail_vals, tail_est = invert(tail_fn, ts[beyond] - d, tol)
    values[beyond] = f_at_d + tail_vals
    # the certificate by hand: an inversion errs by its estimate plus exp(-A); past d the
    # errors of F(d) (none at d = 0, where it is the atom) and of H add, with the
    # eps_series/2 of mass that the busy weights drop at their jump cut
    floor = math.exp(-_euler_params(tol.eps_invert))
    worst = float(worst_inside)
    if tail_est.size:
        worst = (worst + floor if d > 0 else 0.0) + (float(np.max(tail_est)) + tol.eps_series / 2)
    error = worst + floor
    if not error <= tol.eps_invert:
        raise AccuracyNotMet(f"inversion error estimate {error:.3e} exceeds eps_invert")
    iso = np.maximum.accumulate(np.clip(values, 0.0, 1.0))
    return CdfCurve(ts, iso, "inverted", float(np.max(np.abs(iso - values), initial=0.0)),
                    error, len(weights))


def eta_by_two_roots(s, arrival_rate, mu):
    """eta_mm1 as the package computed it before: 2 mu / (z + sqrt(z - c) sqrt(z + c)).

    z = s + mu + a and c = 2 sqrt(mu a), two principal roots per s; z - c
    loses digits when a is close to mu.  Takes and returns an ndarray.
    """
    z = np.asarray(s, dtype=complex) + mu + arrival_rate
    c = 2.0 * np.sqrt(mu * arrival_rate)
    return 2.0 * mu / (z + np.sqrt(z - c) * np.sqrt(z + c))


def euler_invert_by_division(fn, ts, tol=DEFAULT_TOL):
    """The block Euler inversion as the package ran it before its t-free weights.

    Like ``transforms._euler_invert``, but each block of 128 points forms
    the terms exp(A/2)/t sign_k Re(fn(s_k)/s_k), dividing by s_k, then
    their partial sums and the last two binomial averages of those, with
    fresh arrays for every block; returns (values, estimates) shaped like
    ts.  Only A and the two term counts come from the package.
    """
    a, n_burn, n_avg = _euler_params(tol.eps_invert), _N_BURN, _N_AVG
    nodes = np.arange(n_burn + n_avg + 1)
    sign = np.where(nodes % 2 == 1, -1.0, 1.0)
    sign[0] = 0.5
    binom = np.array([math.comb(n_avg, m) for m in range(n_avg + 1)], dtype=float) / 2.0**n_avg
    block = 128
    values = np.empty(ts.shape)
    estimates = np.zeros(ts.shape)
    for lo in range(0, ts.shape[-1], block):
        cut = (..., slice(lo, lo + block))
        t = ts[cut][..., None]
        s = a / (2.0 * t) + 1j * (nodes * math.pi / t)
        terms = (math.exp(a / 2.0) / t) * sign * (fn(s) / s).real
        partial = np.cumsum(terms, axis=-1)
        val = partial[..., n_burn:] @ binom
        val_prev = partial[..., n_burn - 1 : -1] @ binom
        values[cut] = val
        estimates[cut] = np.abs(val - val_prev)
    return values, estimates


@dataclass(frozen=True)
class Lst:
    """An evaluatable Laplace-Stieltjes transform with its mass metadata.

    ``fn`` maps an ndarray of complex s with Re(s) >= 0 to the transform
    values elementwise: the inversion passes a whole block of grid points
    times contour nodes in one call.  ``mass`` is the value at s = 0 (1 for
    proper laws, the tail probability for tail transforms); ``atom_at_zero``
    is P[X = 0] when known, used for CDF values at t = 0.
    """

    fn: object
    mass: float
    atom_at_zero: object = None
    label: str = ""

    def __call__(self, s):
        return self.fn(s)


def invert_to_cdf(transform, grid, tol=DEFAULT_TOL):
    """Pointwise CDF recovery from an LST, monotonized by isotonic clamping.

    The package's block inversion (``transforms._euler_invert``) and its
    accuracy gate (``transforms._certified_curve``) applied to a
    stand-alone transform: raises AccuracyNotMet when the inversion error
    estimate plus the contour discretization bound exceeds eps_invert at
    any grid point.
    """
    grid = np.asarray(grid, dtype=float)
    raw = np.zeros_like(grid)
    positive = grid > 0.0
    raw[positive], estimates = invert_fn(transform.fn, grid[positive], tol)
    # np.max propagates NaN, so a non-finite evaluation fails the gate
    worst = float(np.max(estimates, initial=0.0))
    at_zero = grid == 0.0
    if at_zero.any():
        atom = transform.atom_at_zero
        raw[at_zero] = transform.fn(np.array([1e12 + 0j]))[0].real if atom is None else atom
    return _certified_curve(grid, raw, worst, tol)


def _eta_scalar(s, arrival_rate, mu):
    # the smaller root of a eta^2 - z eta + mu = 0, written without the
    # cancellation of (z - sqrt(z^2 - 4 mu a)) / (2a) at large |z| / a
    z = s + mu + arrival_rate
    return 2.0 * mu / (z + cmath.sqrt(z * z - 4.0 * mu * arrival_rate))


def _invert_point(fn, t, a, n_burn, n_avg):
    """One Bromwich-contour evaluation of fn(s)/s; returns (value, error_estimate)."""
    fhat = lambda s: fn(s) / s
    base = math.exp(a / 2.0) / t
    terms = np.empty(n_burn + n_avg + 1)
    terms[0] = 0.5 * base * complex(fhat(a / (2.0 * t))).real
    for k in range(1, n_burn + n_avg + 1):
        s = complex(a / (2.0 * t), k * math.pi / t)
        terms[k] = base * ((-1) ** k) * complex(fhat(s)).real
    partial = np.cumsum(terms)
    binom = np.array([math.comb(n_avg, m) for m in range(n_avg + 1)], dtype=float)
    binom /= 2.0**n_avg
    val = float(binom @ partial[n_burn : n_burn + n_avg + 1])
    val_prev = float(binom @ partial[n_burn - 1 : n_burn + n_avg])
    return val, abs(val - val_prev)


def class2_cdf_scalar(config, ts, tol=DEFAULT_TOL):
    """Clamped class-2 CDF, point by point from the full weight vector, and the worst estimate."""
    rates = validate(config)
    a, n_burn, n_avg = _euler_params(tol.eps_invert), _N_BURN, _N_AVG

    def shifted(cfg):
        w = busy_state_distribution(cfg, tol)
        lam_acc = cfg.lambda1 * (1.0 - cfg.b)
        js = np.arange(1, len(w) + 1)
        return lambda s: complex(np.sum(w * _eta_scalar(complex(s), lam_acc, cfg.mu) ** js))

    atom = 1.0 - rates.rho
    d = config.d
    npq = shifted(config.replace(b=0.0, d=0.0))
    tail = shifted(config)
    worst = 0.0

    def invert(fn, t):
        nonlocal worst
        v, est = _invert_point(fn, t, a, n_burn, n_avg)
        worst = max(worst, est)
        return v

    f_at_d = atom + invert(npq, d) if d > 0 else atom
    values = np.empty(len(ts))
    for i, t in enumerate(ts):
        if t < 0.0:
            values[i] = 0.0
        elif t <= d:
            values[i] = atom if t <= 0.0 else atom + invert(npq, t)
        else:
            values[i] = f_at_d + invert(tail, t - d)
    return np.maximum.accumulate(np.clip(values, 0.0, 1.0)), worst


# --------------------------------------------------------------------------
# class-2 CDFs without a transform: the uniformized first-passage walk
# --------------------------------------------------------------------------


def _first_passage_cdf(weights, a, mu, u):
    """H(u) = P[T <= u, T > 0] for the first passage T to 0 of a birth-death
    walk (birth rate a, death rate mu) that starts at j >= 1 with mass
    ``weights(M)[j - 1]``.

    Uniformized at nu = a + mu, with p = a/nu and q = mu/nu, a walk from j
    first reaches 0 at step m with probability (j/m) C(m, k) p^k q^(m-k),
    k = (m - j)/2 (the hitting-time theorem; van der Hofstad and Keane,
    Amer. Math. Monthly 115, 2008), so H(u) = sum_m f_m P[N(nu u) >= m],
    f_m summing that over the start.  Steps past M, with
    P[N(nu u) > M] < 1e-16, are cut; a start above M needs more steps.
    f is one log-space array over (j, k), m = j + 2k.
    """
    nu = a + mu
    top = int(poisson.isf(1e-16, nu * u)) + 1
    j = np.arange(1, top + 1)[:, None]
    k = np.arange(0, top // 2 + 1)[None, :]
    m = j + 2 * k
    with np.errstate(divide="ignore"):
        log_w = np.log(weights(top))[:, None]
    log_f = (log_w + np.log(j / m) + gammaln(m + 1) - gammaln(k + 1) - gammaln(j + k + 1)
             + k * math.log(a / nu) + (j + k) * math.log(mu / nu))
    keep = m <= top
    f = np.bincount(m[keep], weights=np.exp(log_f[keep]), minlength=top + 1)
    return float(np.dot(f[1:], poisson.sf(np.arange(top), nu * u)))


def class2_cdf_by_first_passage(config, t, tol=DEFAULT_TOL):
    """The class-2 CDF at one t > d (exponential service), no inversion.

    Up to d the wait is strict priority's: the first passage of the walk
    at rate lambda1 from the geometric weights (1 - rho) rho^j.  Beyond d
    it is the first passage at lambda1 (1 - b) from the package's busy
    weights (``markov.busy_state_distribution``), head then geometric tail.
    """
    rates = validate(config)
    rho, lam1, mu, d = rates.rho, config.lambda1, config.mu, config.d
    busy = dapq_busy_weights(config, tol)

    def geometric(top):
        return (1.0 - rho) * rho ** np.arange(1.0, top + 1)

    def busy_weights(top):
        tail = busy.tail_next * rho ** np.arange(0.0, max(top - len(busy), 0))
        return np.concatenate([busy.head, tail])[:top]

    f_at_d = (1.0 - rho) + (_first_passage_cdf(geometric, lam1, mu, d) if d > 0 else 0.0)
    return f_at_d + _first_passage_cdf(busy_weights, lam1 * (1.0 - config.b), mu, t - d)


# --------------------------------------------------------------------------
# Poisson truncation: one scalar scipy.stats call per candidate
# --------------------------------------------------------------------------


def poisson_by_mpmath(m, k_max, dps=50):
    """(pmf, sf) of Poisson(m) for k = 0..k_max, rounded from ``dps`` digits.

    The pmf runs the recurrence pmf(k) = pmf(k-1) m/k from exp(-m), and the
    survival function P[N > k] sums it downward from 40 sqrt(m) + 200 terms
    past k_max, where the omitted mass is far below 1e-300 of every tail.
    """
    with mp.workdps(dps):
        mm = mp.mpf(m)
        top = k_max + int(40 * math.sqrt(m)) + 200
        pmf = [mp.exp(-mm)]
        for k in range(1, top + 1):
            pmf.append(pmf[-1] * mm / k)
        tail = [mp.mpf(0)] * (top + 2)
        for k in range(top, -1, -1):
            tail[k] = tail[k + 1] + pmf[k]
        return (np.array([float(v) for v in pmf[: k_max + 1]]),
                np.array([float(tail[k + 1]) for k in range(k_max + 1)]))


def poisson_horizon_scalar(nu_d, eps):
    """Smallest n with P[N > n] < eps for N ~ Poisson(nu_d), one n at a time.

    n stays within nu_d + 12 sqrt(nu_d + 1) + 40, the end of the package's
    Poisson table.
    """
    if nu_d == 0.0:
        return 0
    top = int(nu_d + 12.0 * math.sqrt(nu_d + 1.0) + 40.0)
    for n in range(top + 1):
        if poisson.sf(n, nu_d) < eps:
            return n
    raise TruncationOverflow(
        f"Poisson({nu_d:g}) tail stays above eps={eps:g} through {top} jumps"
    )


def moment_cut_scalar(nu_d, rho, eps, max_states):
    """The moment cut of a jump sum: the mass cut at eps (1-rho)/rho, one n at a time.

    The steps past n carry first moments of at most rho/(1-rho) each, so
    they miss at most rho/(1-rho) P[N > n].  A cut past max_states, or a
    delay whose nu d - 1 exceeds it, raises the package's
    ``TruncationOverflow`` text.
    """
    if nu_d - 1.0 > max_states:
        raise TruncationOverflow(f"Poisson({nu_d:g}) jump sum is not cut: nu*d - 1 = "
                                 f"{nu_d - 1.0:.6g} exceeds max_states={max_states}")
    try:
        cut = poisson_horizon_scalar(nu_d, eps * (1.0 - rho) / rho)
    except TruncationOverflow as exc:
        raise TruncationOverflow(str(exc).replace(" tail ", " k-sum bound "))
    if cut > max_states:
        raise TruncationOverflow(f"Poisson({nu_d:g}) k-sum bound needs {cut} states "
                                 f"but max_states={max_states}")
    return cut


# --------------------------------------------------------------------------
# accreditation-interval transform by fixed-point iteration
# --------------------------------------------------------------------------


def _service_lst(service, mu):
    if service is ServiceKind.EXPONENTIAL:
        return lambda u: mu / (mu + u)
    return lambda u: math.exp(-u / mu)


def eta_fixed_point(s, service, arrival_rate, mu=1.0, tol=DEFAULT_TOL, max_iter=200_000):
    """Accreditation-interval transform for either service kind.

    Solves eta = F_S(s + a*(1 - eta)) by fixed-point iteration from 1,
    where F_S is the service LST.
    """
    if s < 0:
        raise OutOfRange("s must be nonnegative")
    fs = _service_lst(service, mu)
    eta = 1.0
    for _ in range(max_iter):
        nxt = fs(s + arrival_rate * (1.0 - eta))
        if abs(nxt - eta) < tol.eps_root:
            return nxt
        eta = nxt
    raise NonConvergence(
        f"accreditation fixed point did not converge at s={s}, rate={arrival_rate}"
    )


# --------------------------------------------------------------------------
# KPI searches that recompute every b from scratch
# --------------------------------------------------------------------------


def class1_mean_per_b(config, tol=DEFAULT_TOL):
    """b -> exact class-1 mean, a full ``dapq_means`` per call."""
    return lambda b: dapq_means(config.replace(b=b), tol).mean_w1


def class2_cdf_per_b(config, w, tol=DEFAULT_TOL):
    """b -> class-2 CDF at w, a full ``class2_cdf_dapq`` (both weight sets) per call."""
    return lambda b: float(class2_cdf_dapq(config.replace(b=b), np.array([w]), tol).values[0])


def _check_monotone_per_b(f, slack, what):
    bs = [0.0, 0.25, 0.5, 0.75, 1.0]
    vals = [f(b) for b in bs]
    if not np.all(np.diff(vals) >= -slack):
        raise AssertionError(
            f"{what} is not monotone in b on {bs}: {['%.8f' % v for v in vals]}"
        )


def _policy_point_per_b(config, b, feasible, tol):
    summary = dapq_means(config.replace(b=b), tol)
    return PolicyPoint(
        d=config.d, b_star=b, mean_w1=summary.mean_w1, mean_w2=summary.mean_w2,
        feasible=feasible,
    )


def b_star_class2_per_b(config, kpi, tol=DEFAULT_TOL):
    """``dapq.kpi.b_star_class2`` with every probe computed from scratch:
    F(w) from ``class2_cdf_dapq`` and dF/db from a one-row derivative
    inversion at the config's own busy weights.  It runs the package's
    safeguarded Newton search (``dapq.kpi._newton_rows``), whose points
    depend on the probes alone, so a search that hoists the b-free parts
    must find this point bit for bit."""
    validate(config.replace(b=0.0))
    w, p = kpi.target_w, kpi.compliance_p
    constraint = class2_cdf_per_b(config, w, tol)

    def probe(b, rows):
        if w <= config.d:  # F(w) is the b-free strict-priority value
            return np.array([constraint(float(b[0])) - p]), np.zeros(1)
        weights = dapq_busy_weights(config.replace(b=float(b[0])), tol)
        *_, dfda = transforms._invert_over_delay_rows(
            np.array([[w - config.d]]), config.lambda1 * (1.0 - b), config.mu, [weights], tol,
            True)
        return np.array([constraint(float(b[0])) - p]), -config.lambda1 * dfda[:, 0]

    _, hi, _, at_lo, at_hi = kpi_mod._newton_rows(probe, np.arange(1), np.zeros(1), np.ones(1),
                                                  tol.eps_root, ties_lo=False)
    if at_lo.size:
        return _policy_point_per_b(config, 0.0, True, tol)
    if at_hi.size:
        return _policy_point_per_b(config, 1.0, False, tol)
    return _policy_point_per_b(config, float(hi[0]), True, tol)


def b_star_class1_per_b(config, kpi, tol=DEFAULT_TOL):
    """``dapq.kpi.b_star_class1`` with every class-1 mean computed from scratch."""
    rates = validate(config.replace(b=0.0))
    threshold = approx.kpi_mean_threshold(rates.rho, kpi)
    mean1 = class1_mean_per_b(config, tol)
    if threshold is approx.ALWAYS_SATISFIED or math.isinf(threshold):
        return _policy_point_per_b(config, 1.0, True, tol)
    m0 = mean1(0.0)
    if m0 > threshold:
        return _policy_point_per_b(config, 0.0, False, tol)
    m1 = mean1(1.0)
    if m1 <= threshold:
        return _policy_point_per_b(config, 1.0, True, tol)
    _check_monotone_per_b(mean1, 1e-9 * max(1.0, threshold), "class-1 mean wait")
    b = _largest(mean1, threshold, m0, m1, tol.eps_root)
    return _policy_point_per_b(config, b, True, tol)


def class1_crossing_by_bisection(config, kpi, tol=DEFAULT_TOL):
    """The last b whose class-1 mean meets the KPI's threshold in a bisection
    of [0, 1] down to adjacent floats, a full ``dapq_means`` per probe.

    Wants a mean at most the threshold at b = 0 and above it at b = 1.
    """
    threshold = approx.kpi_mean_threshold(validate(config.replace(b=0.0)).rho, kpi)
    mean1 = class1_mean_per_b(config, tol)
    lo, hi = 0.0, 1.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if mean1(mid) <= threshold:
            lo = mid
        else:
            hi = mid
    return lo


# --------------------------------------------------------------------------
# KPI searches one row at a time: a single-point inversion per probe
# --------------------------------------------------------------------------


def _bisect_smallest(f, p, lo, hi, eps):
    """The final bracket (lo, hi) of a bisection for the smallest b in
    [lo, hi] with f(b) >= p, given f(lo) < p <= f(hi)."""
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if f(mid) >= p:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _bisect_largest(f, m, lo, hi, eps):
    """Largest b in [lo,hi] with f(b) <= m, given f(lo) <= m < f(hi)."""
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if f(mid) <= m:
            lo = mid
        else:
            hi = mid
    return lo


def itp_bracket(g, lo, hi, g_lo, g_hi, eps, ties_lo):
    """Scalar ITP search (Oliveira & Takahashi, ACM TOMS 2020, Algorithm 1).

    Narrows [lo, hi], with g(lo) = g_lo <= 0 <= g_hi = g(hi), until
    hi - lo <= eps, with kappa1 = 0.2 / (hi - lo), kappa2 = 2 and n0 = 1.
    A zero residual moves lo when ``ties_lo``, else hi.  The projection
    onto |x - x_half| <= r is written as the clip to [hi - bound,
    lo + bound], bound = r + (hi - lo) / 2 = eps * 2**(n_max - j - 1),
    with eps lowered by twice a slack of four ulps of 4 max(|lo|, |hi|)
    and the slack added back, so that rounding cannot widen a bracket past
    the bound.  Returns (lo, hi, probes).
    """
    kappa1 = 0.2 / (hi - lo)
    slack = 4.0 * math.ulp(4.0 * max(abs(lo), abs(hi)))
    n_half = 0
    while math.ldexp(eps, n_half) < hi - lo:
        n_half += 1
    n_max = n_half + 1
    j = probes = 0
    while hi - lo > eps:
        # interpolation
        x_half = 0.5 * (lo + hi)
        x_f = (g_hi * lo - g_lo * hi) / (g_hi - g_lo)
        # truncation
        sigma = 0.0 if x_half == x_f else math.copysign(1.0, x_half - x_f)
        delta = kappa1 * ((hi - lo) * (hi - lo))
        x_t = x_f + sigma * delta if delta <= abs(x_half - x_f) else x_half
        # projection
        bound = math.ldexp(eps - 2.0 * slack, n_max - j - 1) + slack
        x = min(max(x_t, lo, hi - bound), hi, lo + bound)
        # update
        y = g(x)
        probes += 1
        if y < 0.0 or (ties_lo and y == 0.0):
            lo, g_lo = x, y
        else:
            hi, g_hi = x, y
        j += 1
    return lo, hi, probes


# ITP constants (Oliveira & Takahashi, ACM TOMS 2020): the truncation step
# is _ITP_KAPPA1 / (initial width) * width**_ITP_KAPPA2, and the projection
# allows _ITP_N0 probes beyond bisection's worst case.
_ITP_KAPPA1 = 0.2
_ITP_KAPPA2 = 2
_ITP_N0 = 1


def itp_rows(probe, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray,
             f_lo: np.ndarray, f_hi: np.ndarray, eps: float, ties_lo: bool):
    """ITP search of [lo[r], hi[r]] for every row r in ``rows``, in lockstep; returns (lo, hi).

    The lockstep search the class-2 KPI searches used before the
    safeguarded Newton search (``dapq.kpi._newton_rows``), kept beside its
    scalar form ``itp_bracket``.

    ``f_lo`` and ``f_hi`` are the signed residuals at the bracket ends, at
    most 0 at lo and at least 0 at hi, not both 0.  ``probe(x, rows)``
    evaluates the active rows at one point each and returns (residuals,
    ok), ``ok`` False for rows whose probe failed, which retire.  A
    negative residual moves lo up, a positive one moves hi down, and a zero
    one moves lo when ``ties_lo`` and hi otherwise.  A row retires once its
    own width hi - lo is at most eps.

    Each step takes the regula-falsi point of the row's bracket, moves it
    towards the midpoint by kappa1 * width**kappa2 (kappa1 = 0.2 / initial
    width), and projects it into [hi - bound, lo + bound], which keeps the
    width after step j at most bound = eps * 2**(n_max - j - 1), where n_max
    is bisection's count of halvings plus ``_ITP_N0``.  The bound keeps a
    slack of a few ulps of the bracket's magnitude in hand, so rounding
    cannot carry a row past it.  With eps within a few slacks of it, that
    interval can come out empty, and the step then bisects, which halves
    the width as fast as the bound shrinks: no row takes more than n_max
    probes, whatever its residuals.  On a smooth
    residual the steps converge superlinearly.  A row's points depend on
    its own values and on the step count alone, so it sees the points of a
    search of that row alone.
    """
    lo, hi, f_lo, f_hi = lo.copy(), hi.copy(), f_lo.copy(), f_hi.copy()
    rows = rows[hi[rows] - lo[rows] > eps]
    width0 = hi[rows] - lo[rows]
    kappa1, slack = np.zeros(len(lo)), np.zeros(len(lo))
    n_max = np.zeros(len(lo), dtype=int)
    kappa1[rows] = _ITP_KAPPA1 / width0
    slack[rows] = 4.0 * np.spacing(4.0 * np.maximum(np.abs(lo[rows]), np.abs(hi[rows])))
    # bisection's halvings: the least n with eps * 2**n >= width0, exactly
    (m_w, e_w), (m_e, e_e) = np.frexp(width0), math.frexp(eps)
    n_max[rows] = e_w - e_e + (m_w > m_e) + _ITP_N0
    reach = eps - 2.0 * slack
    step = 0
    while rows.size:
        a, b, fa, fb = lo[rows], hi[rows], f_lo[rows], f_hi[rows]
        width = b - a
        half = 0.5 * (a + b)
        # equal end residuals (both 0 after a tie) have no secant: take the midpoint
        flat = fb == fa
        falsi = np.where(flat, half, (fb * a - fa * b) / np.where(flat, 1.0, fb - fa))
        delta = kappa1[rows] * width**_ITP_KAPPA2
        gap = half - falsi
        x = np.where(delta <= np.abs(gap), falsi + np.sign(gap) * delta, half)
        bound = np.ldexp(reach[rows], n_max[rows] - (step + 1)) + slack[rows]
        lower, upper = np.maximum(a, b - bound), np.minimum(b, a + bound)
        # the slack can leave no room (eps near it): bisect, which keeps the count
        x = np.where(lower <= upper, np.clip(x, lower, upper), half)
        values, ok = probe(x, rows)
        rows, x, values = rows[ok], x[ok], values[ok]
        up = values <= 0.0 if ties_lo else values < 0.0
        lo[rows[up]], f_lo[rows[up]] = x[up], values[up]
        hi[rows[~up]], f_hi[rows[~up]] = x[~up], values[~up]
        rows = rows[hi[rows] - lo[rows] > eps]
        step += 1
    return lo, hi


def _smallest_bracket(f, p, f0, f1, eps, bisect=False):
    """The final bracket (lo, hi) of a search for the smallest b in [0, 1]
    with f(b) >= p, given f(0) = f0 < p <= f(1) = f1."""
    if bisect:
        return _bisect_smallest(f, p, 0.0, 1.0, eps)
    return itp_bracket(lambda b: f(b) - p, 0.0, 1.0, f0 - p, f1 - p, eps, False)[:2]


def _smallest(f, p, f0, f1, eps, bisect=False):
    """Smallest b in [0, 1] with f(b) >= p, given f(0) = f0 < p <= f(1) = f1."""
    return _smallest_bracket(f, p, f0, f1, eps, bisect)[1]


def _largest(f, m, m0, m1, eps, bisect=False):
    """Largest b in [0, 1] with f(b) <= m, given f(0) = m0 <= m < f(1) = m1."""
    if bisect:
        return _bisect_largest(f, m, 0.0, 1.0, eps)
    return itp_bracket(lambda b: f(b) - m, 0.0, 1.0, m0 - m, m1 - m, eps, True)[0]


def _check_monotone_known_ends(f, f0, f1, slack, what):
    bs = [0.0, 0.25, 0.5, 0.75, 1.0]
    vals = [f0] + [f(b) for b in bs[1:-1]] + [f1]
    if not np.all(np.diff(vals) >= -slack):
        raise AssertionError(
            f"{what} is not monotone in b on {bs}: {['%.8f' % v for v in vals]}"
        )


def _class2_cdf_at_w(config, w, tol):
    return float(class2_cdf_dapq(config, np.array([w]), tol).values[0])


def npq_cdf_by_probe(lam1, lam2, mu, kpi, tol=DEFAULT_TOL):
    """Strict-priority class-2 CDF at the KPI's target wait, by one ``class2_cdf_dapq`` call."""
    cfg = QueueConfig(lambda1=lam1, lambda2=lam2, mu=mu, b=0.0, d=0.0)
    return _class2_cdf_at_w(cfg, kpi.target_w, tol)


def npq_meets_by_probe(lam1, lam2, mu, kpi, tol=DEFAULT_TOL):
    """Whether strict priority meets a class-2 KPI, by one ``class2_cdf_dapq`` call."""
    if (lam1 + lam2) / mu >= 1.0:
        return False
    return npq_cdf_by_probe(lam1, lam2, mu, kpi, tol) >= kpi.compliance_p


def feasible_region_by_probes(kpi, mu=1.0, resolution=0.02, tol=DEFAULT_TOL, bisect=False):
    """``dapq.kpi.feasible_region`` one lambda1 at a time, one inversion per probe.

    The class-2 frontier is the midpoint of a scalar ITP bracket, or of a
    bisection bracket with ``bisect``."""
    w, p = kpi.target_w, kpi.compliance_p
    rho_fcfs = _fcfs_boundary_rho(kpi, mu, tol.eps_root)
    rho_probe_cap = 0.995
    lower, upper = [], []
    for lam1 in np.arange(resolution, mu, resolution):
        if kpi.class_index == 2:
            g = lambda lam2: p - npq_cdf_by_probe(lam1, lam2, mu, kpi, tol)
            hi_l2 = min(rho_probe_cap * mu, rho_fcfs * mu + 0.05 * mu) - lam1 - 1e-9
            if hi_l2 <= 0:
                continue
            g_lo = g(1e-9)
            g_hi = g(hi_l2) if g_lo <= 0.0 else None
            if g_lo > 0.0:
                lower.append((lam1, 0.0))
            elif g_hi <= 0.0:
                lower.append((lam1, hi_l2))
            elif bisect:
                lo, hi = 1e-9, hi_l2
                while hi - lo > 1e-4:
                    mid = 0.5 * (lo + hi)
                    if g(mid) <= 0.0:
                        lo = mid
                    else:
                        hi = mid
                lower.append((lam1, 0.5 * (lo + hi)))
            else:
                lo, hi, _ = itp_bracket(g, 1e-9, hi_l2, g_lo, g_hi, 1e-4, True)
                lower.append((lam1, 0.5 * (lo + hi)))
            lam2_up = rho_fcfs * mu - lam1
            if lam2_up > 0:
                upper.append((lam1, lam2_up))
        else:
            lam2_lo = rho_fcfs * mu - lam1
            if lam2_lo > 0:
                lower.append((lam1, lam2_lo))
            rho_up = (1.0 - p) * math.exp((mu - lam1) * w)
            lam2_up = min(rho_up * mu - lam1, mu - lam1 - 1e-9)
            if lam2_up > 0:
                upper.append((lam1, lam2_up))
    return FeasibleRegion(
        kpi=kpi,
        lower_boundary=np.array(lower) if lower else np.empty((0, 2)),
        upper_boundary=np.array(upper) if upper else np.empty((0, 2)),
    )


def class2_mean_in_b(config, tol=DEFAULT_TOL):
    """Exact mean class-2 wait as a function of b at the config's rates and delay.

    The config is validated once, at b = 0, through the name ``mean_wait``
    binds, as the package's means are; the returned function computes the
    b-free correction sum at the first b that needs it and keeps it.
    """
    return mean_wait._MeanInB(config, mean_wait.validate(config.replace(b=0.0)), tol)


def _policy_point_from_mean(config, b, feasible, mean_w2, error_estimate, probes):
    w2 = mean_w2(b)
    return PolicyPoint(
        d=config.d, b_star=b,
        mean_w1=float(class1_mean_from_class2(config.replace(b=b), w2)),
        mean_w2=float(w2), feasible=feasible, error_estimate=error_estimate, probes=probes,
    )


def b_star_class2_by_probes(config, kpi, tol=DEFAULT_TOL, bisect=False):
    """One delay's class-2 search, one ``class2_cdf_dapq`` call (busy weights and
    F(d) recomputed) per probe; the point carries the worst certified error and its
    probe count.  A scalar ITP search, or bisection with ``bisect``."""
    base = config.replace(b=0.0)
    validate(base)
    if config.service is not ServiceKind.EXPONENTIAL:
        raise OutOfRange("class-2 CDF machinery requires exponential service")
    w, p = kpi.target_w, kpi.compliance_p
    dapq_busy_weights(base, tol)  # the busy weights fail before the mean, as in the search
    mean_w2 = class2_mean_in_b(config, tol)
    worst, probes = 0.0, 0

    def constraint(b):
        nonlocal worst, probes
        probes += 1
        curve = class2_cdf_dapq(config.replace(b=b), np.array([w]), tol)
        worst = max(worst, curve.error_estimate)
        return float(curve.values[0])

    def point(b, feasible):
        return _policy_point_from_mean(config, b, feasible, mean_w2, worst, probes)

    f0 = constraint(0.0)
    if f0 >= p:
        return point(0.0, True)
    f1 = constraint(1.0)
    if f1 < p:
        return point(1.0, False)
    _check_monotone_known_ends(constraint, f0, f1, 100 * tol.eps_invert, "class-2 compliance")
    return point(_smallest(constraint, p, f0, f1, tol.eps_root, bisect), True)


def b_star_class2_bracket_by_probes(config, kpi, tol=DEFAULT_TOL, bisect=False):
    """The final bracket (lo, hi) of ``b_star_class2_by_probes``' search,
    hi being its b*, for a config whose b* is interior."""
    constraint = class2_cdf_per_b(config, kpi.target_w, tol)
    return _smallest_bracket(constraint, kpi.compliance_p, constraint(0.0), constraint(1.0),
                             tol.eps_root, bisect)


def b_star_class1_by_steps(config, kpi, tol=DEFAULT_TOL, bisect=False):
    """One delay's class-1 search, a scalar class-1 mean (replace and validate) per step;
    the point carries its probe count.  A scalar ITP search, or bisection with ``bisect``."""
    rates = validate(config.replace(b=0.0))
    threshold = approx.kpi_mean_threshold(rates.rho, kpi)
    mean_w2 = class2_mean_in_b(config, tol)
    probes = 0

    def mean1(b):
        nonlocal probes
        probes += 1
        return class1_mean_from_class2(config.replace(b=b), mean_w2(b))

    def point(b, feasible):
        return _policy_point_from_mean(config, b, feasible, mean_w2, 0.0, probes)

    if threshold is approx.ALWAYS_SATISFIED or math.isinf(threshold):
        return point(1.0, True)
    m0 = mean1(0.0)
    if m0 > threshold:
        return point(0.0, False)
    m1 = mean1(1.0)
    if m1 <= threshold:
        return point(1.0, True)
    _check_monotone_known_ends(mean1, m0, m1, 1e-9 * max(1.0, threshold), "class-1 mean wait")
    return point(_largest(mean1, threshold, m0, m1, tol.eps_root, bisect), True)


def policy_sweep_by_delay(config, kpi, d_values, tol=DEFAULT_TOL, bisect=False, search=None):
    """``dapq.kpi.policy_sweep`` one delay after another.

    Each delay's point comes from ``search(config, kpi, tol)`` when given,
    else from the probe-by-probe search of the KPI's class.
    """
    if search is None:
        by_probes = b_star_class2_by_probes if kpi.class_index == 2 else b_star_class1_by_steps
        search = lambda cfg, target, t: by_probes(cfg, target, t, bisect)
    return [search(config.replace(d=float(d)), kpi, tol) for d in d_values]


# --------------------------------------------------------------------------
# simulation with one generator call per draw
# --------------------------------------------------------------------------


def run_single_by_events(sim, rep_index):
    """``dapq.simulate.run_single`` event by event, one ``exponential(scale)``
    call per draw; returns (class, arrival, wait) tuples in service order.

    The next event is the ``min`` of the three event times, each class
    waits in a deque, service times come from a closure, and credits are
    compared through ``max``.  Same substream and same event order as the
    one-step-per-service loop, so ``columns(records)`` must equal its
    columns exactly.
    """
    cfg = sim.queue
    validate(cfg)
    rng = _rng_for(sim.seed, rep_index)
    lam1, lam2, mu = cfg.lambda1, cfg.lambda2, cfg.mu
    b, d = cfg.b, cfg.d
    det = cfg.service is ServiceKind.DETERMINISTIC

    def svc():
        return 1.0 / mu if det else rng.exponential(1.0 / mu)

    next1 = rng.exponential(1.0 / lam1) if lam1 > 0 else math.inf
    next2 = rng.exponential(1.0 / lam2) if lam2 > 0 else math.inf
    q1 = deque()
    q2 = deque()
    completion = math.inf
    idle = True
    need = sim.burn_in + sim.n_customers
    served = 0
    records = []

    while served < need:
        t = min(next1, next2, completion)
        if completion <= next1 and completion <= next2:
            completion = math.inf
            chosen = 0
            if q1 and q2:
                c1 = t - q1[0]
                c2 = b * max(0.0, t - q2[0] - d)
                if c1 > c2:
                    chosen = 1
                elif c2 > c1:
                    chosen = 2
                else:
                    # ties: earlier arrival first, then class-1
                    chosen = 1 if q1[0] <= q2[0] else 2
            elif q1:
                chosen = 1
            elif q2:
                chosen = 2
            if chosen == 0:
                idle = True
            else:
                arr = q1.popleft() if chosen == 1 else q2.popleft()
                served += 1
                if served > sim.burn_in:
                    records.append((chosen, arr, t - arr))
                completion = t + svc()
        elif next1 <= next2:
            if idle:
                served += 1
                if served > sim.burn_in:
                    records.append((1, t, 0.0))
                completion = t + svc()
                idle = False
            else:
                q1.append(t)
            next1 = t + rng.exponential(1.0 / lam1)
        else:
            if idle:
                served += 1
                if served > sim.burn_in:
                    records.append((2, t, 0.0))
                completion = t + svc()
                idle = False
            else:
                q2.append(t)
            next2 = t + rng.exponential(1.0 / lam2)
    return records


def columns(records):
    """(class, arrival, wait) records as the columns ``dapq.simulate.run_single``
    returns: class as uint8, arrival and wait as float64."""
    classes = [c for c, _, _ in records]
    arrival = [a for _, a, _ in records]
    wait = [w for _, _, w in records]
    return np.array(classes, np.uint8), np.array(arrival, float), np.array(wait, float)


def run_replicated_by_comprehension(sim, grid):
    """(averaged CDFs, means) by class, as ``dapq.simulate.run_replicated``
    built them with one comprehension per class over each replication's
    records, here those of ``run_single_by_events``."""
    cdfs, means = {1: [], 2: []}, {1: [], 2: []}
    for r in range(sim.replications):
        records = run_single_by_events(sim, r)
        for cls in (1, 2):
            waits = np.array([w for c, _, w in records if c == cls])
            if len(waits):
                waits.sort()
                cdfs[cls].append(np.searchsorted(waits, grid, side="right") / len(waits))
                means[cls].append(waits.mean())
    return ({cls: np.vstack(v).mean(axis=0) for cls, v in cdfs.items() if v},
            {cls: float(np.array(v).mean()) for cls, v in means.items() if v})


# --------------------------------------------------------------------------
# command-line CSV built row by row
# --------------------------------------------------------------------------


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def csv_payload_by_rows(header, rows):
    """CSV text as ``dapq.cli`` wrote it before its column writer: one row
    at a time, each value through ``_fmt``."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def _cdf_values(args, cfg, grid, tol):
    rates = validate(cfg)
    kind = args.kind
    if kind == "fcfs":
        return 1.0 - rates.rho * np.exp(-(cfg.mu - (cfg.lambda1 + cfg.lambda2)) * grid)
    if kind == "npq1":
        return 1.0 - rates.rho * np.exp(-(cfg.mu - cfg.lambda1) * grid)
    if kind in ("npq2", "dapq2"):
        curve_cfg = cfg.replace(b=0.0, d=0.0) if kind == "npq2" else cfg
        return transforms.class2_cdf_dapq(curve_cfg, grid, tol).values
    if kind == "zexp1":
        summary = mean_wait.dapq_means(cfg, tol)
        return approx.zexp_from_mean(rates.rho, summary.mean_w1).curve(grid).values
    sim = simulate.SimConfig(queue=cfg, n_customers=args.n, burn_in=args.burn_in,
                             replications=args.reps, seed=args.seed)
    return simulate.run_replicated(sim, grid).curves[1 if kind == "sim1" else 2].values


def cli_csv_by_rows(argv):
    """(CSV text, ``--summary-out`` text or None) of ``dapq <argv>`` with the
    rows each subcommand built before the column writer (not ``rerun``)."""
    args = cli._build_parser().parse_args(argv)
    tol = cli._tol_from_env()
    summary = None
    if args.subcommand == "mean":
        service = ServiceKind(args.service)
        rows = []
        for d in cli._parse_sweep(args.d):
            for b in cli._parse_sweep(args.b):
                cfg = QueueConfig(args.lam1, args.lam2, args.mu, b=b, d=d, service=service)
                s = dapq_means(cfg, tol)
                rows.append([args.lam1, args.lam2, args.mu, service.value, b, d,
                             s.mean_w1, s.mean_w2, s.conservation_residual])
        header = ["lambda1", "lambda2", "mu", "service", "b", "d",
                  "mean_w1", "mean_w2", "conservation_residual"]
    elif args.subcommand == "cdf":
        cfg = QueueConfig(args.lam1, args.lam2, args.mu, b=args.b, d=args.d,
                          service=ServiceKind(args.service))
        grid = cli._cdf_grid(args, cfg)
        rows = [[t, v] for t, v in zip(grid, _cdf_values(args, cfg, grid, tol))]
        header = ["t", "F"]
    elif args.subcommand == "simulate":
        cfg = QueueConfig(args.lam1, args.lam2, args.mu, b=args.b, d=args.d,
                          service=ServiceKind(args.service))
        sim = simulate.SimConfig(queue=cfg, n_customers=args.n, burn_in=args.burn_in,
                                 replications=args.reps, seed=args.seed)
        grid = cli._cdf_grid(args, cfg)
        result = simulate.run_replicated(sim, grid)
        rows = []
        for i, t in enumerate(grid):
            row = [t]
            for cls in (1, 2):
                if cls in result.curves:
                    row += [result.curves[cls].values[i], result.curve_se[cls][i]]
                else:
                    row += [math.nan, math.nan]
            rows.append(row)
        header = ["t", "cdf1", "se1", "cdf2", "se2"]
        summary = csv_payload_by_rows(
            ["class", "mean", "se", "replications"],
            [[cls, result.means.get(cls, math.nan), result.mean_se.get(cls, math.nan),
              result.replications] for cls in (1, 2)])
    elif args.region:
        target = Kpi(target_w=args.w, compliance_p=args.p, class_index=args.cls)
        region = kpi_mod.feasible_region(target, mu=args.mu, resolution=args.resolution, tol=tol)
        rows = [["lower", l1, l2] for l1, l2 in region.lower_boundary]
        rows += [["upper", l1, l2] for l1, l2 in region.upper_boundary]
        header = ["boundary", "lambda1", "lambda2"]
    else:
        target = Kpi(target_w=args.w, compliance_p=args.p, class_index=args.cls)
        d_values = cli._parse_sweep(args.sweep_d) if args.sweep_d else [args.d]
        points = kpi_mod.policy_sweep(QueueConfig(args.lam1, args.lam2, args.mu), target,
                                      d_values, tol)
        rows = [[pt.d, pt.b_star, pt.mean_w1, pt.mean_w2, int(pt.feasible)] for pt in points]
        header = ["d", "b_star", "mean_w1", "mean_w2", "feasible"]
    return csv_payload_by_rows(header, rows), summary
