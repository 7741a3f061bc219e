"""Stationary queue-length distributions and busy-horizon state weights.

Two kinds of object live here:

* the distribution of the number of customers an arrival finds in system,
  for M/D/1 (FFT inversion of the pole-subtracted Pollaczek--Khinchine
  pgf, sized to the terms asked for), and

* the busy-horizon state weights: the probability of "``j`` customers
  ahead after ``d`` time units and the ahead-set never emptied" for a
  tagged arrival, computed by uniformizing the birth--death chain with
  birth rate ``lambda1`` and death rate ``mu`` (a Poisson-weighted sum of
  powers of the absorbing chain's positive part applied to the busy part
  of the geometric M/M/1 law).  Beyond the Poisson jump cut the weights
  are exactly geometric in ``j`` with ratio rho, so only a head whose size
  is set by ``d`` is computed and the tail is kept in closed form.  The
  M/M/1 mean's correction, the weights' first moment, needs no head: the
  ahead-set walk drifts down, so its first moment after k steps is
  rho/(1-rho) less (q_down - p_up) times the alive mass summed so far,
  and the alive mass loses q_down times the state-1 mass per step.  One
  rule cuts every jump sum, in ``_jump_cuts``: the least n with
  B P[N > n] < eps_series/2, B = 1 for the heads' mass and rho/(1-rho)
  for the moment.  One loop (``_busy_weights_rows``) runs the chain of
  one config for any number of jump sums, taking each head at its cut and
  the state-1 mass of every step, and ``_delay_weights`` feeds it the
  cuts that each delay of a list asks for: a KPI sweep gets every delay's
  first moment, and a head only for a delay that reads one, from one run,
  and a single curve or mean is the one-delay case.

On the M/D/1 pmf: consecutive probabilities decay by the *reciprocal* of
the root ``sigma > 1`` of ``exp(rho*sigma)/sigma = exp(rho)``
(``md1_tail_ratio``), the pgf's dominant pole, which ``md1_stationary``
subtracts before an FFT sized to the pi_0..pi_l asked for, not cut by mass.

The busy-horizon truncations stop on absolute tail mass and raise
``TruncationOverflow`` when the tolerance cannot be met: the Poisson jump
sum within its table (the tail is the Poisson survival function of
``_poisson_table``, accurate to about 1e-15 relative down to 1e-300), and
the busy-state head within ``max_states`` states, before the chain runs.
Only a moment cut's error is returned, to the mean that reads it.

Every Poisson probability of the package comes from ``_poisson_pmf``, one
elementwise kernel: directly (the M/D/1 residual-service weights and the
first term of each upper tail sum in ``dapq.mean_wait``), or as the start
of a product chain out of the mode (``_poisson_table`` for m >= 16, and
each column of ``mean_wait._md1_probempty_matrix``).  ``_poisson_table``
starts its chain from exp(-m) at k = 0 when m < 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    DapqError,
    DerivedRates,
    OutOfRange,
    QueueConfig,
    ServiceKind,
    ToleranceConfig,
    TruncationOverflow,
    validate,
)


@dataclass(frozen=True)
class StationaryDist:
    """Head of an arriving customer's queue-length pmf: ``probs[i]`` is pi_i, i <= truncation_K."""

    probs: np.ndarray
    truncation_K: int


def md1_tail_ratio(rho: float) -> float:
    """Geometric decay ratio of the M/D/1 queue-length pmf, in (0,1).

    Solves exp(rho*sigma)/sigma = exp(rho) for the unique root sigma > 1/rho
    (sigma = 1 always solves it and is rejected); the pmf ratio
    pi_{i+1}/pi_i tends to 1/sigma.  In u = sigma - 1 the log of the
    equation is g(u) = rho u - log1p(u) = 0, which keeps its digits in
    heavy traffic, where the root nears 1 and g's slope there nears 0.  g
    is convex, negative at its minimum u = 1/rho - 1 and increasing past
    it, so doubling sigma from 2/rho finds a point where g > 0, and
    Newton's method from there falls monotonically to the root; it stops
    where an iterate no longer falls, at the floating-point root, so the
    ratio needs no tolerance.  Below rho ~ 4e-306 the root overflows and 0 is returned.
    """
    if not 0.0 < rho < 1.0:
        raise OutOfRange(f"rho must lie in (0,1), got {rho}")
    g = lambda u: rho * u - math.log1p(u)
    sigma = 2.0 / rho
    while g(sigma - 1.0) <= 0.0:
        sigma *= 2.0
    u = sigma - 1.0
    while True:
        fallen = u - g(u) / (rho - 1.0 / (1.0 + u))
        if not fallen < u:
            return 1.0 / (1.0 + u)
        u = fallen


def _md1_pmf_fft(rho: float, g: float, n: int) -> np.ndarray:
    """pi_0 .. pi_{n-1} for M/D/1 by an n-point FFT of the pole-subtracted pgf.

    The Pollaczek--Khinchine pgf P(z) = (1-rho)(1-z)/(1 - z e^{rho(1-z)})
    has a simple pole at z = sigma = 1/g, g = ``md1_tail_ratio(rho)``, with
    principal part c/(1 - z/sigma), c = (1-rho)(sigma-1)/(rho*sigma-1).  The
    FFT inverts the remainder, analytic well beyond |z| = sigma, and the
    pole's coefficients c*g^i are added back exactly (Abate & Whitt,
    "Numerical inversion of probability generating functions", Oper. Res.
    Letters 12, 1992).  Entries at roundoff level may come out negative and
    are clipped to 0.
    """
    sigma = 1.0 / g
    c = (1.0 - rho) * (sigma - 1.0) / (rho * sigma - 1.0)
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


def md1_stationary(rho: float, terms: int, tol: ToleranceConfig = DEFAULT_TOL) -> StationaryDist:
    """pi_0 .. pi_terms of the M/D/1 queue length an arrival finds.

    One ``_md1_pmf_fft`` of n points, n the least power of two >= 64,
    2 (terms + 1) and 2/(1 - g), with no alias check at run time; the terms
    are accurate to about 1e-16 absolute.  Less its pole at 1/g, the pgf is
    analytic out to the next root of z = exp(rho (z-1)), a -W_k(-rho e^-rho)/rho
    on a complex branch k of Lambert's W, with |z| >= 8.07 for every rho < 1,
    so an index i <= terms < n/2 takes aliases of order 8^-(n/2).  The pole
    itself is known only to rounding, which in heavy traffic puts about eps
    into its residue and leaves a residual pole decaying like g^i; n >= 2/(1-g)
    damps that alias by g^n <= e^-2.  terms or 1/(1-g) - 1 above max_states
    (rho above about 0.9999 at the default) raises TruncationOverflow.  Below
    rho ~ 2e-154 the mass past pi_1 (about rho^2/2) underflows, and the head
    is 1 - rho, (1 - rho)(e^rho - 1) and zeros.
    """
    if not (0.0 <= rho < 1.0 and terms >= 0):
        raise OutOfRange(f"need rho in [0,1) and terms >= 0, got rho={rho}, terms={terms}")
    g = md1_tail_ratio(rho) if 0.5 * rho * rho >= np.finfo(float).tiny else 0.0
    if max(terms, 1.0 / (1.0 - g) - 1.0) > tol.max_states:
        raise TruncationOverflow(f"M/D/1 pmf to pi_{terms} at rho = {rho:.6g} needs more "
                                 f"than max_states={tol.max_states} terms")
    if g > 0.0:
        probs = _md1_pmf_fft(rho, g, 1 << max(63, 2 * terms + 1, int(2.0 / (1.0 - g))).bit_length())
    else:
        probs = np.append((1.0 - rho) * np.array([1.0, math.expm1(rho)]), np.zeros(terms))
    return StationaryDist(probs=probs[: terms + 1], truncation_K=terms)


# --------------------------------------------------------------------------
# uniformized busy-horizon state weights (exponential service)
# --------------------------------------------------------------------------

# k! for k < 16, each exact in float64
_FACTORIALS = np.cumprod(np.concatenate(([1.0], np.arange(1.0, 16.0))))


def _poisson_pmf(k, m) -> np.ndarray:
    """P[N = k] for N ~ Poisson(m), elementwise over broadcast integers k >= 0 and means m >= 0.

    Below k = 16 it is exp(-m) m^k / k!, with exp(-m) taken as two factors
    exp(-m/2), so that it is not subnormal where the pmf is normal.  From
    k = 16 it is Loader's saddle-point form exp(-stirlerr(k) - bd0(k, m)) /
    sqrt(2 pi k) ("Fast and accurate computation of binomial probabilities",
    2000), with bd0 = k log(k/m) + m - k.  Where |v| < 1/4, v = (k - m)/(k + m),
    bd0 is summed as its series in v, whose terms past the first have one
    sign; elsewhere it is k log1p((k - m)/m) - (k - m), with m taken as at
    least 1e-30 k, where the pmf underflows to 0 anyway: m = 0 gives exactly
    1 at k = 0 and 0 elsewhere, with no warning.  Against 40-digit mpmath
    for m up to 2000 the relative error is a few ulps near the mode and at
    most 5 eps max(1, |log pmf|) down to 1e-300 (eps = 2^-52), about the
    cost of rounding an exponent that large.  A mixed array is split into
    its k < 16 and k >= 16 entries; otherwise the work that depends on k
    alone runs on k's own shape, before broadcasting.
    """
    k = np.asarray(k)
    m = np.asarray(m, dtype=float)
    small = k < 16
    if small.all():
        half = np.exp(-0.5 * m)
        return half * m**k / _FACTORIALS[k] * half
    if small.any():
        k, m = np.broadcast_arrays(k, m)
        out = np.empty(k.shape)
        small = k < 16
        out[small] = _poisson_pmf(k[small], m[small])
        out[~small] = _poisson_pmf(k[~small], m[~small])
        return out
    x = k.astype(float)
    nn = x * x
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / x
    diff = x - m
    v = diff / (x + m)
    # an array even where k and m are 0-d, so that the series can be written into it
    bd0 = np.asarray(x * np.log1p(diff / np.maximum(m, 1e-30 * x)) - diff)
    near = np.abs(v) < 0.25
    if near.any():
        v = v[near]
        series = diff[near] * v
        term = 2.0 * np.broadcast_to(x, near.shape)[near] * v
        j = 1
        while True:
            term *= v * v
            nxt = series + term / (2 * j + 1)
            if (nxt == series).all():
                break
            series, j = nxt, j + 1
        bd0[near] = series
    return np.exp(-stirlerr - bd0) / np.sqrt(2.0 * math.pi * x)


def _poisson_table(m: float, hi: int) -> tuple:
    """(pmf, sf) over k = 0..hi for N ~ Poisson(m): P[N = k] and P[N > k].

    The pmf is one product chain out of the mode, by the ratios m/k upward
    and k/m downward, started from exp(-m) at k = 0 when m < 16 and from
    ``_poisson_pmf`` at k = floor(m), a few ulps there, otherwise.  Each step adds about one ulp of
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
        pmf[k0] = _poisson_pmf(k0, m)
        np.cumprod(pmf[k0:], out=pmf[k0:])
        pmf[:k0] = pmf[k0] * np.cumprod(down[::-1])[::-1]
    tail = np.cumsum(pmf[:0:-1])[::-1]  # tail[k] = P[N > k]
    return pmf[: hi + 1], tail[: hi + 1]


def _jump_cuts(nu_d: float, rho: float, tol: ToleranceConfig) -> tuple:
    """The Poisson(nu d) jump pmf of one delay and where its jump sum is cut.

    Returns (pmf, mass cut, moment cut).  Each cut is an int or the
    ``TruncationOverflow`` that says why it cannot be met; the pmf runs to
    the larger cut that was met.

    One rule makes both cuts: the least n <= max_states with
    B P[N > n] < eps_series/2 for N ~ Poisson(nu d), as the steps past n of
    a jump sum whose terms are at most B miss at most that much.  B = 1
    gives the mass cut, the head of the class-2 CDFs' busy weights, since a
    step holds mass at most 1; B = rho/(1-rho) the moment cut of the M/M/1
    mean's correction, since a step's first moment falls from rho/(1-rho)
    (``_delay_weights``).  The moment cut is tested as
    rho P[N > n] < (1-rho) eps_series/2, which does not divide by rho.  Both
    read one table, ``_poisson_table`` out to 12 sqrt(nu d + 1) + 40 past
    the mean, which is not built when nu d - 1 > max_states: a mass cut
    lies at or past the Poisson median, at least nu d - ln 2.
    """
    if nu_d == 0.0:
        return np.array([1.0]), 0, 0
    eps, cap = 0.5 * tol.eps_series, tol.max_states
    if nu_d - 1.0 > cap:
        uncut = TruncationOverflow(f"Poisson({nu_d:g}) jump sum is not cut: nu*d - 1 = "
                                   f"{nu_d - 1.0:.6g} exceeds max_states={cap}")
        return np.zeros(0), uncut, uncut
    top = int(nu_d + 12.0 * math.sqrt(nu_d + 1.0) + 40.0)
    pmf, sf = _poisson_table(nu_d, top)  # sf[k] = P[N > k]
    cuts = []
    for what, meets in (("busy-state head", sf < eps),
                        ("k-sum bound", rho * sf < (1.0 - rho) * eps)):
        n = int(np.argmax(meets))  # the first index meeting the bound
        if not meets[-1]:
            n = TruncationOverflow(f"Poisson({nu_d:g}) {what} stays above eps={eps:g} "
                                   f"through {top} jumps")
        elif n > cap:
            n = TruncationOverflow(f"Poisson({nu_d:g}) {what} needs {n} states "
                                   f"but max_states={cap}")
        cuts.append(n)
    met = [c for c in cuts if isinstance(c, int)]
    return pmf[: max(met, default=-1) + 1], *cuts


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


# floats a block of chain steps holds at most, its states and its sums together,
# unless one step's alone exceed it
_CHAIN_BLOCK_FLOATS = 1 << 18


def _busy_weights_rows(rates: DerivedRates, pmfs: Sequence[np.ndarray],
                       cuts: Sequence[Optional[int]], steps: int) -> tuple:
    """The busy weights of several Poisson jump sums of one chain, from one run.

    The uniformized chain of ``rates`` starts from the stationary
    arriving-customer count restricted to busy finds (PASTA): pi_+ with
    (pi_+)_l = (1-rho) rho^l, and runs ``steps`` steps.  Row r's sum weights
    the state after k steps by ``pmfs[r][k]`` and is cut after step
    n = ``cuts[r]`` <= ``steps``: its head is the sum's states 1..n.
    Returns (weights, s1): per row its ``BusyWeights``, None where its cut
    is None, and s1[k] the mass in state 1 after k steps, k = 0..steps.

    After k steps every state l > k still holds exactly (1-rho) rho^(l-k) r^k
    with r = p_up + q_down rho^2 (one step maps that geometric profile onto
    itself times r), so with the jump sum cut at n every state l > n
    carries C rho^l, C = (1-rho) sum_k pmf_k (r/rho)^k.  So only the first
    W = max(steps + 1, 2H) states are iterated, H the largest cut: the
    missing flow from above corrupts one more top state per step, so after
    k steps states 1..W-k, state 1 through the run and states 1..n after
    n <= H steps, are exact, bit for bit whatever W.  A row's jump weights
    are 0 past its cut, so each row's weights equal those of a run of that
    row alone, and a sweep over delays pays for one chain.

    A step only moves the chain, into the next row of a block of steps.
    The sums are taken per block: one multiply by the block's jump weights,
    then one ``np.add.accumulate`` along the steps from the previous block's
    last sum, which adds in step order, as a step-by-step sum would.
    """
    rho, p_up, q_down = rates.rho, rates.p_up, rates.q_down
    rows = [r for r, n in enumerate(cuts) if n]  # the rows with a head
    H = max((cuts[r] for r in rows), default=0)
    heads = [None if n is None else np.zeros(0) for n in cuts]
    s1 = np.full(steps + 1, (1.0 - rho) * rho)
    if steps:
        width = max(steps + 1, 2 * H)
        weight = np.zeros((steps + 1, len(rows), 1))  # weight[k] = step k's column of pmfs
        for i, r in enumerate(rows):
            weight[: cuts[r] + 1, i, 0] = pmfs[r][: cuts[r] + 1]
        # row 0 of a block carries the previous block's last states and sums;
        # state 0 is the absorbing empty state, held at 0, and state l is entry l
        size = min(steps, max(1, _CHAIN_BLOCK_FLOATS // (width + 1 + len(rows) * H) - 1))
        states = np.zeros((size + 1, width + 1))
        sums = np.empty((size + 1, len(rows), H))
        states[0, 1:] = (1.0 - rho) * rho ** np.arange(1, width + 1)
        np.multiply(weight[0], states[0, 1 : H + 1], out=sums[0])
        down = np.empty(width - 1)
        mul, add = np.multiply, np.add
        done = 0
        while done < steps:
            n = min(size, steps - done)
            # per step, the sources of the up- and the down-moves in one row
            # and their targets in the next
            for up, dn, up_to, dn_to in zip(states[:n, :-1], states[:n, 2:],
                                            states[1 : n + 1, 1:], states[1 : n + 1, 1:-1]):
                # state l gets p from l-1 and q from l+1; state 1 gets 0 from the
                # empty state and the top state nothing from above
                mul(up, p_up, out=up_to)
                mul(dn, q_down, out=down)
                add(dn_to, down, out=dn_to)
            mul(weight[done + 1 : done + n + 1], states[1 : n + 1, None, 1 : H + 1],
                out=sums[1 : n + 1])
            np.add.accumulate(sums[: n + 1], axis=0, out=sums[: n + 1])
            s1[done + 1 : done + n + 1] = states[1 : n + 1, 1]
            for i, r in enumerate(rows):
                if done < cuts[r] <= done + n:
                    heads[r] = sums[cuts[r] - done, i, : cuts[r]].copy()
            states[0], sums[0] = states[n], sums[n]
            done += n
    for r, n in enumerate(cuts):
        if n is not None:  # w_{n+1} = (1-rho) sum_k pmf_k r^k rho^(n+1-k): no (r/rho)^k overflow
            ks = np.arange(n + 1)
            tail = (pmfs[r][: n + 1] * rates.r_coef**ks * rho ** (n + 1 - ks)).sum()
            heads[r] = BusyWeights(head=heads[r], rho=rho, tail_next=float((1.0 - rho) * tail))
    return heads, s1


def _delay_weights(rates: DerivedRates, ds: Sequence[float], tol: ToleranceConfig,
                   heads: Sequence[bool], moments: bool) -> tuple:
    """Busy weights and their first moments at several delays of one config.

    Delay i asks for its head when ``heads[i]``, and every delay for its
    moment when ``moments``.  The busy weights are the jump sum at its mass
    cut (``_jump_cuts``), and the first moment sum_l l w_l, the M/M/1
    mean's correction, the sum at its moment cut.  The first delay, in list
    order, whose head cannot be cut raises its ``TruncationOverflow`` before
    the run; one run of ``_busy_weights_rows``, to the largest cut asked for
    that was met, then gives every part, each equal to its one-delay value
    bit for bit, and a delay that asks for no head neither lengthens the run
    by its mass cut nor fails on it.

    The moment needs no head, only the walk's drift: a step moves the ahead
    count up with probability p_up and down with q_down, and the move down
    from state 1 empties the ahead-set.  So the alive mass S_k and the first
    moment M_k after k steps follow from the state-1 masses s_k[1],

        S_0 = rho,          S_{k+1} = S_k - q_down s_k[1],
        M_0 = rho/(1-rho),  M_{k+1} = M_k - (q_down - p_up) S_k,

    and the moment is sum_{k<=K} pmf_k M_k, K the moment cut.  mu > lambda1
    makes q_down > p_up, so M_k falls from M_0, as the moment cut assumes.

    Returns (rows, steps): per delay, the pair (``BusyWeights``, first
    moment), each None when not asked for; a moment cut that cannot be met
    leaves its ``TruncationOverflow``, which ``mean_wait._MeanInB`` holds
    until a mean reads it.  ``steps`` is the run's step count, None when no
    delay joined it.
    """
    rows, pmfs = [], []
    for d, head in zip(ds, heads):
        pmf, mass, cut = _jump_cuts(rates.nu * d, rates.rho, tol)
        if head and isinstance(mass, DapqError):
            raise mass
        rows.append([mass if head else None, cut if moments else None])
        pmfs.append(pmf)
    met = [c for row in rows for c in row if isinstance(c, int)]
    if not met:
        return rows, None
    steps = max(met)
    weights, s1 = _busy_weights_rows(rates, pmfs, [mass for mass, _ in rows], steps)
    if moments:  # S_0 .. S_steps, then M_0 .. M_steps
        alive = np.cumsum(np.concatenate(([rates.rho], -rates.q_down * s1[:-1])))
        moment_k = np.cumsum(np.concatenate(([rates.rho / (1.0 - rates.rho)],
                                             -(rates.q_down - rates.p_up) * alive[:-1])))
    for row, pmf, w in zip(rows, pmfs, weights):
        row[0] = w
        if isinstance(row[1], int):
            row[1] = float(pmf[: row[1] + 1] @ moment_k[: row[1] + 1])
    return rows, steps


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
    [(weights, _)], _ = _delay_weights(rates, [config.d], tol, [True], False)
    return weights
