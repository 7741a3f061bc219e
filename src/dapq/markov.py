"""Stationary queue-length distributions and busy-horizon state weights.

Two kinds of object live here:

* the distribution of the number of customers an arrival finds in system,
  for M/D/1 (FFT inversion of the pole-subtracted Pollaczek--Khinchine
  pgf, with a geometric tail continuation), and

* the busy-horizon state weights: the probability of "``j`` customers
  ahead after ``d`` time units and the ahead-set never emptied" for a
  tagged arrival, computed by uniformizing the birth--death chain with
  birth rate ``lambda1`` and death rate ``mu`` (a Poisson-weighted sum of
  powers of the absorbing chain's positive part applied to the busy part
  of the geometric M/M/1 law).  Beyond the Poisson jump cut the weights
  are exactly geometric in ``j`` with ratio rho, so only a head whose size
  is set by ``d`` is computed and the tail is kept in closed form.  The
  rule for cutting a delay's jump sum lives in ``_jump_cuts`` alone: by
  mass for the class-2 CDFs' heads, by a bound weighted by the ahead
  count for the M/M/1 mean's first moment, both read off one Poisson
  table.  One loop (``_busy_weights_rows``) runs the chain of one config
  for any number of jump sums, snapshotting each at each of its cuts, and
  ``_delay_weights`` feeds it the cuts of a list of delays: a KPI sweep
  gets every delay's head and first moment from one run, and a single
  curve or mean is the one-delay case.

On the M/D/1 geometric tail: the decay of consecutive probabilities is the
*reciprocal* of the nontrivial root ``sigma > 1`` of ``exp(rho*sigma)/sigma
= exp(rho)``.  The orientation was fixed by comparing against exact
consecutive ratios (see ``md1_tail_ratio``); the root itself exceeds 1, so
it cannot be the ratio directly.  It is the pgf's dominant pole, which
``md1_stationary`` subtracts before its FFT.

Truncations stop on absolute tail mass and raise ``TruncationOverflow``
when the tolerance cannot be met: the M/D/1 head within ``max_states``
terms, the Poisson jump sum within its table (the tail is the Poisson
survival function of ``_poisson_table``, accurate to about 1e-15 relative
down to 1e-300), and the busy-state head within ``max_states`` states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    DapqError,
    DerivedRates,
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

    def pmf_array(self, n: int) -> np.ndarray:
        """pi_0 .. pi_n as a dense array, continuing the tail as needed."""
        if n <= self.truncation_K:
            return self.probs[: n + 1].copy()
        ext = self.probs[self.truncation_K] * self.tail_ratio ** np.arange(
            1, n - self.truncation_K + 1
        )
        return np.concatenate([self.probs, ext])


def md1_tail_ratio(rho: float) -> float:
    """Geometric decay ratio of the M/D/1 queue-length pmf, in (0,1).

    Solves exp(rho*sigma)/sigma = exp(rho) for the unique root sigma > 1/rho
    (sigma = 1 always solves it and is rejected); the pmf ratio
    pi_{i+1}/pi_i tends to 1/sigma.  In u = sigma - 1 the log of the
    equation is g(u) = rho u - log1p(u) = 0, which keeps its digits in
    heavy traffic, where the root nears 1 and g's slope there nears 0.  g
    is convex and increasing past u = 1/rho - 1, so Newton's method from a
    point where g > 0 falls monotonically to the root; it stops where an
    iterate no longer falls, at the floating-point root, so the ratio
    needs no tolerance.
    """
    if not 0.0 < rho < 1.0:
        raise OutOfRange(f"rho must lie in (0,1), got {rho}")
    g = lambda u: rho * u - math.log1p(u)
    lo = 1.0 / rho - 1.0  # location of the minimum; g(lo) < 0 for rho < 1
    if g(lo) >= 0.0:
        raise RootBracketFailure(f"no bracket above 1/rho for rho = {rho}")
    sigma = 1.0 / rho
    for _ in range(200):
        sigma *= 2.0
        if g(sigma - 1.0) > 0.0:
            break
    else:
        raise RootBracketFailure(f"upper bracket not found for rho = {rho}")
    u = sigma - 1.0
    while True:
        fallen = u - g(u) / (rho - 1.0 / (1.0 + u))
        if not fallen < u:
            return 1.0 / (1.0 + u)
        u = fallen


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
    g = md1_tail_ratio(rho)
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


def _jump_cuts(nu_d: float, rho: float, tol: ToleranceConfig, mass: bool = True,
               moment: bool = True) -> tuple:
    """The Poisson(nu d) jump pmf of one delay and where its jump sum is cut.

    Returns (pmf, mass cut, moment cut).  Each cut is an int, None when not
    asked for, or the ``TruncationOverflow`` that says why it cannot be met;
    the pmf runs to the larger cut that was met.  Both cuts read one table,
    ``_poisson_table`` out to 12 sqrt(nu d + 1) + 40 past the mean, which is
    not built when neither cut can lie within max_states.

    The mass cut, which sets the head of the class-2 CDFs' busy weights, is
    the least n with P[N > n] < eps_series/2 for N ~ Poisson(m = nu d), and
    at most max_states.  The moment cut, for the weights' first moment, is the
    least K whose remainder bound is below eps_series/2: the steps k > K
    hold at most rho in each head state l <= k and (1-rho) rho^(l-k) r^k,
    r <= 1, in each geometric state l > k, which sum against l to at most
    rho (k + 1/(1-rho)), so they miss at most

        rho [ E[N(N+1)/2; N > K] + E[N; N > K] + P(N > K)/(1-rho) ]
        = rho [ m^2 P(N >= K-1)/2 + 2 m P(N >= K) + P(N > K)/(1-rho) ]

    using E[N(N-1); N > K] = m^2 P(N >= K-1) and E[N; N > K] = m P(N >= K).
    Its candidates run from int(m) in steps of max(1, int(m/20)), below
    max_states and out to the end of the table, all evaluated at once.
    """
    if nu_d == 0.0:
        return np.array([1.0]), 0 if mass else None, 0 if moment else None
    eps = 0.5 * tol.eps_series
    top = int(nu_d + 12.0 * math.sqrt(nu_d + 1.0) + 40.0)
    hi = min(top, tol.max_states - 1)
    ks = np.arange(int(nu_d), hi + 1, max(1, int(0.05 * nu_d))) if moment else ()
    # the mass cut has P[N > n] < eps < 1/2, so n is at least the Poisson
    # median, which is at least nu d - ln 2: reject before building the table
    head_fits = mass and nu_d - 1.0 <= tol.max_states
    pmf, sf = _poisson_table(nu_d, top) if head_fits or len(ks) else (np.zeros(0), None)
    cut_mass = cut_moment = None
    if mass and not head_fits:
        cut_mass = TruncationOverflow(
            f"busy-state head needs more than nu*d - 1 = {nu_d - 1.0:.6g} states "
            f"but max_states={tol.max_states}"
        )
    elif mass:
        meets = sf < eps  # sf[k] = P[N > k]
        cut_mass = int(np.argmax(meets))  # first index meeting the bound
        if not meets[-1]:
            cut_mass = TruncationOverflow(
                f"Poisson({nu_d:g}) tail stays above eps={eps:g} through {top} jumps"
            )
        elif cut_mass > tol.max_states:
            cut_mass = TruncationOverflow(
                f"busy-state head needs {cut_mass} states but max_states={tol.max_states}"
            )
    if moment:
        below = ()
        if len(ks):
            sf = np.concatenate(([1.0, 1.0], sf))  # sf[k + 2] = P[N > k] for k >= -2
            head = 0.5 * nu_d**2 * sf[ks] + 2.0 * nu_d * sf[ks + 1]
            below = np.flatnonzero(rho * (head + sf[ks + 2] / (1.0 - rho)) < eps)
        cut_moment = int(ks[below[0]]) if len(below) else TruncationOverflow(
            f"Poisson({nu_d:g}) k-sum bound stays above eps={eps:g} "
            f"through {hi} jumps (max_states={tol.max_states})"
        )
    met = [c for c in (cut_mass, cut_moment) if isinstance(c, int)]
    return pmf[: max(met, default=-1) + 1], cut_mass, cut_moment


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

    def first_moment(self) -> float:
        """sum_l l w_l: the head's dot product with 1..n plus the closed-form tail.

        The tail is sum_{l>n} l ``tail_next`` rho**(l-n-1)
        = ``tail_next`` ((n+1)/(1-rho) + rho/(1-rho)**2).
        """
        n, rho = len(self.head), self.rho
        tail = self.tail_next * ((n + 1) / (1.0 - rho) + rho / (1.0 - rho) ** 2)
        return float(np.arange(1, n + 1) @ self.head + tail)


# floats a block of chain steps holds at most, its states and its sums together,
# unless one step's alone exceed it
_CHAIN_BLOCK_FLOATS = 1 << 18


def _busy_weights_rows(rates: DerivedRates, pmfs: Sequence[np.ndarray],
                       cuts: Sequence[Sequence[int]]) -> list:
    """The busy weights of several Poisson jump sums of one chain, from one run.

    The uniformized chain of ``rates`` starts from the stationary
    arriving-customer count restricted to busy finds (PASTA): pi_+ with
    (pi_+)_l = (1-rho) rho^l.  Row r's sum weights the state after k steps
    by ``pmfs[r][k]``, and each cut n in ``cuts[r]`` gives the busy weights
    of that sum cut after step n: the head is the sum's states 1..n at step
    n.  Returns, per row, a tuple of ``BusyWeights``, one per cut, in order.

    After k steps every state l > k still holds exactly (1-rho) rho^(l-k) r^k
    with r = p_up + q_down rho^2 (one step maps that geometric profile onto
    itself times r), so with the jump sum cut at n every state l > n
    carries C rho^l, C = (1-rho) sum_k pmf_k (r/rho)^k.  So only the first
    2K states are iterated, K the largest cut of all rows: the missing flow
    from above corrupts one more top state per step, so after n <= K steps
    states 1..n are still exact, whatever the number of states.  The rows
    (the delays of a sweep) differ only in their jump weights, which are 0
    past a row's largest cut, so from there on its sum gains exact zeros.
    Each row's weights therefore equal those of a run of that row alone,
    bit for bit, and a sweep over delays pays for one chain of K steps.
    With K = 0 every head is empty and no step runs.

    A step only moves the chain, into the next row of a block of steps.
    The sums are taken per block: one multiply by the block's jump weights,
    then one ``np.add.accumulate`` along the steps from the previous block's
    last sum, which adds in step order, as a step-by-step sum would.
    """
    K = max(max(row_cuts) for row_cuts in cuts)
    rho, p_up, q_down = rates.rho, rates.p_up, rates.q_down
    heads = [[np.zeros(0)] * len(row_cuts) for row_cuts in cuts]  # the heads of cuts at 0
    if K:
        weight = np.zeros((K + 1, len(pmfs), 1))  # weight[k] = step k's column of pmfs
        due = {}  # step -> the (row, slot) whose cut it is
        for r, (pmf, row_cuts) in enumerate(zip(pmfs, cuts)):
            top = max(row_cuts) + 1
            weight[:top, r, 0] = pmf[:top]
            for slot, n in enumerate(row_cuts):
                due.setdefault(n, []).append((r, slot))
        # row 0 of a block carries the previous block's last states and sums;
        # state 0 is the absorbing empty state, held at 0, and state l is entry l
        size = min(K, max(1, _CHAIN_BLOCK_FLOATS // ((len(pmfs) + 2) * K + 1) - 1))
        states = np.zeros((size + 1, 2 * K + 1))
        sums = np.empty((size + 1, len(pmfs), K))
        states[0, 1:] = (1.0 - rho) * rho ** np.arange(1, 2 * K + 1)
        np.multiply(weight[0], states[0, 1 : K + 1], out=sums[0])
        down = np.empty(2 * K - 1)
        mul, add = np.multiply, np.add
        done = 0
        while done < K:
            n = min(size, K - done)
            # per step, the sources of the up- and the down-moves in one row
            # and their targets in the next
            for up, dn, up_to, dn_to in zip(states[:n, :-1], states[:n, 2:],
                                            states[1 : n + 1, 1:], states[1 : n + 1, 1:-1]):
                # state l gets p from l-1 and q from l+1; state 1 gets 0 from the
                # empty state and the top state nothing from above
                mul(up, p_up, out=up_to)
                mul(dn, q_down, out=down)
                add(dn_to, down, out=dn_to)
            mul(weight[done + 1 : done + n + 1], states[1 : n + 1, None, 1 : K + 1],
                out=sums[1 : n + 1])
            np.add.accumulate(sums[: n + 1], axis=0, out=sums[: n + 1])
            for k, slots in due.items():
                for r, slot in slots if done < k <= done + n else ():
                    heads[r][slot] = sums[k - done, r, :k].copy()
            states[0], sums[0] = states[n], sums[n]
            done += n
    out = []
    for pmf, row_cuts, row_heads in zip(pmfs, cuts, heads):
        weights = []
        for n, head in zip(row_cuts, row_heads):
            # w_{n+1} = (1-rho) sum_k pmf_k r^k rho^(n+1-k): no (r/rho)^k overflow
            ks = np.arange(n + 1)
            tail_next = float((1.0 - rho)
                              * (pmf[: n + 1] * rates.r_coef**ks * rho ** (n + 1 - ks)).sum())
            weights.append(BusyWeights(head=head, rho=rho, tail_next=tail_next))
        out.append(tuple(weights))
    return out


def _delay_weights(rates: DerivedRates, ds: Sequence[float], tol: ToleranceConfig,
                   heads: bool = True, moments: bool = True) -> tuple:
    """Busy weights and their first moments at several delays of one config.

    Each delay's jump sum is cut by ``_jump_cuts``: with ``heads`` its busy
    weights are the sum at the mass cut, and with ``moments`` its first
    moment is taken at the moment cut.  All of them come from one run of
    ``_busy_weights_rows``, to the largest cut that was met, so each equals
    its one-delay value bit for bit.  Returns (rows, steps): per delay, the
    pair (``BusyWeights``, first moment), each None when not asked for or
    the ``TruncationOverflow`` of a cut that cannot be met; with ``heads``
    a delay whose mass cut fails keeps out of the run, and its moment is
    None.  ``steps`` is the run's step count, None when no delay joined it.
    """
    rows, batch, pmfs, cuts = [], [], [], []
    for d in ds:
        pmf, mass, moment = _jump_cuts(rates.nu * d, rates.rho, tol, heads, moments)
        if isinstance(mass, DapqError):
            moment = None
        met = [c for c in (mass, moment) if isinstance(c, int)]
        if met:
            batch.append(len(rows))
            pmfs.append(pmf)
            cuts.append(met)
        rows.append([mass, moment])
    if not batch:
        return rows, None
    for r, weights in zip(batch, _busy_weights_rows(rates, pmfs, cuts)):
        row = rows[r]  # a met mass cut is the first of the row's cuts, a moment cut the last
        if isinstance(row[0], int):
            row[0] = weights[0]
        if isinstance(row[1], int):
            row[1] = weights[-1].first_moment()
    return rows, max(max(c) for c in cuts)


def busy_state_distribution(
    config: QueueConfig, tol: ToleranceConfig = DEFAULT_TOL
) -> BusyWeights:
    """Busy-horizon state weights: an exact head plus a closed geometric tail.

    The Poisson jump sum stops once its remaining mass is below
    eps_series/2 (the mass cut of ``_jump_cuts``), and the chain runs to
    that cut, so the state count depends on the delay horizon, not on rho.
    This is the one-delay case of ``_delay_weights``.
    """
    rates = validate(config)
    if config.service is not ServiceKind.EXPONENTIAL:
        raise OutOfRange("busy_state_distribution requires exponential service")
    [(weights, _)], _ = _delay_weights(rates, [config.d], tol, moments=False)
    if isinstance(weights, DapqError):
        raise weights
    return weights
