"""Laplace-Stieltjes transforms of class-2 waits and numerical inversion.

The class-2 waiting time beyond the delay horizon has transform

    sum_j  w_j * eta(s)^j        (times exp(-s d) for the unshifted law),

where ``w_j`` is the busy-horizon state distribution from :mod:`dapq.markov`
and ``eta`` the accreditation-interval transform.  The weights are an
explicit head w_1..w_n plus an exact geometric tail C rho^j, so the sum is
a degree-n polynomial in eta (Horner's rule) plus the closed form
C (rho eta)^(n+1) / (1 - rho eta); n is set by the delay horizon, not by
the occupancy.  eta takes one square root: z^2 - 4 mu a factors as
(s + alpha)(s + beta) with alpha, beta >= 0, both factors lie in the
closed right half-plane for Re(s) >= 0, so the principal root of their
product is the branch wanted (see ``_eta``).

CDFs are recovered with the Euler-summation Fourier-series inversion
(Abate--Whitt style): the Bromwich integral is discretized with step pi/t
on the contour Re(s) = A/(2t), giving a discretization error below
exp(-A) for functions bounded by 1, and the alternating series is
accelerated by binomial averaging.  The difference between the last two
binomial averages serves as the error estimate.  The nodes are
s_k = (A/2 + i k pi)/t, so t s_k does not depend on t and the term
exp(A/2)/t sign_k Re(G(s_k)/s_k) is Re(G(s_k) C_k) with a t-free constant
C_k: t cancels, and no node divides by s.  Partial sums and averages are
linear in the terms, so each point's value and estimate are two fixed
weighted sums over its nodes.  The inversion runs on whole blocks of grid
points at once: a transform maps an ndarray of complex s, here points x
contour nodes, elementwise to a new array.

Every inversion is a batch of rows (``_invert_over_delay_rows``), one
row per configuration, each with its own abscissae, accrediting rate and
``BusyWeights``; the kernel stacks their parameters into (rows, 1, 1)
arrays that broadcast over the row's points and contour nodes.  Rows go
longest head first, and a row with a shorter head keeps its tail term
until its own head starts, so Horner's rule updates a prefix of the rows
at each step, and every point's weighted sums are its own.  Every row of
a batch therefore equals its one-row inversion bit for bit, and every
point its one-point inversion.  Strict priority (b = d = 0) is the
headless geometric weights at the accrediting rate lambda1
(``_npq_cdf_rows``).  A call can also invert the CDF's derivative in a
parameter, as a second half of the same contour sums (``_euler_invert``
with ``slope``), without changing a value; the KPI searches of
:mod:`dapq.kpi` steer by it, one call per root-finding step.

One type composes the class-2 CDF, ``_Class2Law``, for a curve (one row)
and a KPI sweep (one row per delay) alike.  Up to the delay d a class-2
wait is the strict-priority one: the atom 1 - rho at 0, then the
strict-priority CDF, which depends on neither b nor d, so one inversion
serves every row's points in (0, d] and every row's F(d).  Past d,
F(t) = F(d) + H(t - d), H inverted at the accrediting rate
lambda1 (1 - b), and the certificate adds the parts' errors: F(d)'s
estimate and exp(-A) (none at d = 0, where F(d) is the exact atom), H's
estimate and exp(-A), and the eps_series/2 of mass that H's busy weights
drop at their jump cut (``markov._jump_cuts``).

Empirically the exponent on eta is the full ahead count j: with exponential
service the residual's accreditation interval is an ordinary accreditation
interval (memorylessness), and the inverted curves match simulated delayed
APQ waits to within Monte Carlo noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    AccuracyNotMet,
    OutOfRange,
    QueueConfig,
    ServiceKind,
    ToleranceConfig,
    validate,
)
from .markov import BusyWeights, busy_state_distribution


@dataclass(frozen=True)
class CdfCurve:
    """A monotone CDF evaluated on a fixed grid of abscissae.

    The other fields say how the curve was computed and take no part in
    comparisons: ``provenance`` its method, ``max_adjustment`` the largest
    change made by clipping and isotonic clamping, ``error_estimate`` the
    certified inversion error (``_accuracy_gate``), and ``head_states`` the
    number of explicit busy-state weights behind the transform (its
    geometric tail is summed in closed form; 0 for a curve with no point
    past d, which reads no busy weights).
    """

    ts: np.ndarray
    values: np.ndarray
    provenance: str = field(compare=False)
    max_adjustment: float = field(default=0.0, compare=False)
    error_estimate: float = field(default=0.0, compare=False)
    head_states: int = field(default=0, compare=False)


# --------------------------------------------------------------------------
# accreditation-interval transforms
# --------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def _eta(s: np.ndarray, arrival_rate, mu: float):
    """Accreditation-interval transform eta(s) for exponential service, and z.

    Equals mu/(mu+s) when the accrediting arrival rate is 0.  s is a complex
    ndarray (0-d will do) with Re(s) >= 0, and the arrival rate a scalar or
    an ndarray (one rate per row of a batch) broadcasting against it.
    Returns eta and z = s + mu + a, which the derivative in a reads
    (``_invert_over_delay_rows``), both of the broadcast shape.

    eta is the root of a eta^2 - z eta + mu = 0 inside the unit disk,
    written 2 mu / (z + sqrt((s + alpha)(s + beta))) with
    alpha = (sqrt(mu) - sqrt(a))^2 and beta = (sqrt(mu) + sqrt(a))^2, since
    z^2 - 4 mu a = (s + alpha)(s + beta).  Both factors lie in the closed
    right half-plane, so one principal square root of their product (numpy's,
    the branch of ``cmath.sqrt``) is the root of the quadratic with
    Re >= 0, and unlike (z - sqrt(.)) / (2a) nothing cancels at large
    |z| / a.  alpha is formed as ((mu - a) / (sqrt(mu) + sqrt(a)))^2, which
    keeps its digits when a is close to mu.  Where |s| > about 1e154 the
    product overflows; there the root equals z to double precision and z is
    used, without a warning.
    """
    sqrt_mu, sqrt_a = math.sqrt(mu), np.sqrt(arrival_rate)
    low = (mu - arrival_rate) / (sqrt_mu + sqrt_a)
    high = sqrt_mu + sqrt_a
    root = np.sqrt((s + low * low) * (s + high * high))
    z = s + (mu + arrival_rate)
    finite = np.isfinite(root)
    if not finite.all():
        root = np.where(finite, root, z)
    return 2.0 * mu / (root + z), z


# --------------------------------------------------------------------------
# class-2 waiting-time transforms (exponential service)
# --------------------------------------------------------------------------

def _horner(e, rho, tail_next, steps, starts, slope: bool = False):
    """sum_j w_j e^j for busy weights w: a head by Horner's rule, a closed geometric tail.

    Evaluates e (w_1 + e (w_2 + ... e (w_n + e T))) with
    T = tail_next / (1 - rho e), the tail sum in closed form, for a batch
    of rows shaped like e, and returns it.  ``steps`` are the heads'
    coefficients w_n .. w_1 in the order Horner's rule takes them: rows
    come longest head first, each step holding every row's coefficient
    right-aligned, and row r's head begins at step ``starts[r]``
    (``starts`` ends with n).  From there to the next row's start, rows
    0..r take the steps in place and the rest keep their tail term, so
    each row gets exactly its one-row value.  With ``slope`` it returns
    (sum, derivative in e): T' = rho T / (1 - rho e), each step takes the
    running derivative to e d + acc before acc becomes h + e acc, and the
    sum's derivative is acc + e d.  The sum is computed by the same
    operations either way.
    """
    acc = 1.0 - rho * e
    grad = rho / acc if slope else None
    acc = tail_next / acc
    if slope:
        grad *= acc
    for r in range(len(starts) - 1):
        part, er = acc[: r + 1], e[: r + 1]
        d = grad[: r + 1] if slope else None
        for h in steps[starts[r] : starts[r + 1], : r + 1]:
            if slope:
                np.multiply(er, d, out=d)
                d += part
            np.multiply(er, part, out=part)
            np.add(h, part, out=part)
    if not slope:
        return e * acc
    return e * acc, e * grad + acc


def _invert_over_delay_rows(
    ts: np.ndarray, lam_acc, mu: float, weights: Sequence[BusyWeights], tol: ToleranceConfig,
    slope: bool = False,
):
    """Invert each row's shifted over-delay transform at the row's abscissae.

    The transform is sum_j w_j eta(s)^j, the over-delay measure shifted
    back to the origin: inverting it gives H(u) = P[W2 - d <= u, W2 > d],
    and the shift avoids the oscillatory exp(-s d) factor.  ``ts`` is
    (rows, points), ``lam_acc`` the rows' accrediting rates (or one for
    all) and ``weights`` their busy weights, one ``BusyWeights`` per row;
    returns ``_euler_invert``'s (values, estimates), both (rows, points),
    and with ``slope`` dH/da as well, a the accrediting rate.  b enters
    only through a, and the weights do not depend on it, so
    dG/da = P'(eta) deta/da, P'(eta) from Horner's rule (``_horner``) and
    deta/da = eta (1 - eta) / (2 a eta - z) from a eta^2 - z eta + mu = 0.
    The rows are inverted longest head first, each row's head w_n .. w_1
    right-aligned in the Horner steps, so the heads that have begun form
    a prefix at every step, and the results are put back in order.
    """
    # sorted in Python: numpy's argsort would page in its sorting code for
    # a few dozen rows
    lengths = [len(w.head) for w in weights]
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    n = max(lengths, default=0)
    steps = np.zeros((n, len(order), 1, 1))
    for i, r in enumerate(order[: len(order) - lengths.count(0)]):  # the rows with a head
        steps[n - lengths[r] :, i, 0, 0] = weights[r].head[::-1]
    rho = np.array([weights[r].rho for r in order])[:, None, None]
    tail_next = np.array([weights[r].tail_next for r in order])[:, None, None]
    lam = (np.zeros(len(order)) + lam_acc)[order, None, None]
    starts = [n - lengths[r] for r in order] + [n]

    def transform(s):
        e, z = _eta(s, lam, mu)
        if not slope:
            return _horner(e, rho, tail_next, steps, starts)[None]
        value, grad = _horner(e, rho, tail_next, steps, starts, slope=True)
        return np.stack([value, grad * e / (e * (2.0 * lam) - z) * (1.0 - e)])

    back = np.empty(len(order), dtype=int)
    back[order] = np.arange(len(order))
    return tuple(x[back] for x in _euler_invert(transform, ts[order], tol, slope))


def _npq_cdf_rows(ts: np.ndarray, lambda1, rho, mu: float, tol: ToleranceConfig,
                  slope: bool = False):
    """The strict-priority (b = d = 0) class-2 CDF at each row's abscissae, and its estimates.

    F(t) = (1 - rho) + H(t), H inverted over the headless geometric
    weights w_l = (1 - rho) rho^l at the accrediting rate lambda1: the
    transform of H is eta T(eta), T = (1 - rho) rho / (1 - rho eta)
    (``_horner`` with no head steps), and that of F is
    (1 - rho) / (1 - rho eta).  ``ts`` is (rows, points); ``lambda1`` and
    ``rho`` are floats shared by the rows or one per row.  Returns the
    uncertified values and the Euler estimates, both (rows, points), and
    with ``slope`` dF/drho as well, inverted from
    d/drho (1 - rho) / (1 - rho eta) = (eta - 1) / (1 - rho eta)^2.
    """
    rhos = np.broadcast_to(np.asarray(rho, dtype=float), len(ts))
    r = rhos[:, None, None]
    tail_next = (1.0 - r) * r
    lam = (np.zeros(len(ts)) + lambda1)[:, None, None]

    def transform(s):
        e = _eta(s, lam, mu)[0]
        value = _horner(e, r, tail_next, (), [0])
        if not slope:
            return value[None]
        den = 1.0 - r * e
        return np.stack([value, (e - 1.0) / (den * den)])

    values, *rest = _euler_invert(transform, ts, tol, slope)
    return ((1.0 - rhos)[:, None] + values, *rest)


# --------------------------------------------------------------------------
# Euler-summation inversion
# --------------------------------------------------------------------------

# Grid points inverted per block: one complex array of a block holds points x
# 61 contour nodes of 16 bytes, 122 KiB for one row.
_BLOCK = 128


# Euler summation averages the partial sums over contour nodes _N_BURN to
# _N_BURN + _N_AVG with binomial weights; the node signs and the weights
# depend only on these two counts.
_N_BURN, _N_AVG = 45, 15
_NODES = np.arange(_N_BURN + _N_AVG + 1)
_SIGN = np.where(_NODES % 2 == 1, -1.0, 1.0)
_SIGN[0] = 0.5  # the k = 0 term enters the trapezoidal sum halved
_BINOM = np.array([math.comb(_N_AVG, m) for m in range(_N_AVG + 1)], dtype=float)
_BINOM /= 2.0**_N_AVG
# The last binomial average, sum_m binom_m (partial sum to node _N_BURN + m),
# weights term k by the binomial mass of the averaged sums that include it;
# its difference from the average one node earlier weights term _N_BURN + m
# by binom_m alone.
_AVERAGE = np.ones(len(_NODES))
_AVERAGE[_N_BURN:] = np.cumsum(_BINOM[::-1])[::-1]


def _euler_params(eps: float) -> float:
    """The contour constant A for inversion accuracy ``eps``."""
    return max(18.5, -math.log(eps) + 2.3)


@functools.lru_cache(maxsize=8)
def _euler_constants(a: float):
    """The t-free constants of the contour A: t s_k, and the weights of the value and estimate.

    t s_k = A/2 + i k pi.  Term k is Re(fn(s_k) C_k) = fn.real C.real -
    fn.imag C.imag with C_k = exp(A/2) sign_k / (A/2 + i k pi); the value
    weights it by ``_AVERAGE`` and the estimate, from node _N_BURN on, by
    ``_BINOM``, each weight given per (real, imaginary) part of fn(s_k).
    """
    scaled_nodes = a / 2.0 + 1j * math.pi * _NODES
    c = math.exp(a / 2.0) * _SIGN / scaled_nodes
    parts = np.stack([c.real, -c.imag], axis=-1)
    constants = (scaled_nodes, (parts * _AVERAGE[:, None]).ravel(),
                 (parts[_N_BURN:] * _BINOM[:, None]).ravel())
    for array in constants:
        array.flags.writeable = False  # shared by every call with this A
    return constants


# the least eps_invert the float64 Euler sums meet: at 1e-11 one misses it by 4.1e-11
_INVERT_FLOOR = 1e-10


def _inversion_error(ts: np.ndarray, tol: ToleranceConfig) -> None:
    """Raise AccuracyNotMet for an eps_invert below ``_INVERT_FLOOR``, then OutOfRange if a t
    in ``ts`` lies in (0, t_min): t_min, about 1e-306 at the default eps_invert, is the
    least t whose largest contour node (A/2 + i N pi)/t is finite."""
    if tol.eps_invert < _INVERT_FLOOR:
        raise AccuracyNotMet(f"eps_invert={tol.eps_invert:.3e} lies below the inversion "
                             f"floor {_INVERT_FLOOR:g}, the least that float64 certifies")
    t_min = abs(_euler_constants(_euler_params(tol.eps_invert))[0][-1]) / np.finfo(float).max
    low = ts[(ts > 0.0) & (ts < t_min)]
    if low.size:
        raise OutOfRange(f"abscissa {low[0]:.6g} lies below the smallest invertible "
                         f"t = {t_min:.6g}, where the inversion's contour nodes overflow")


def _euler_invert(transform, ts: np.ndarray, tol: ToleranceConfig, slope: bool = False):
    """Invert G(s)/s at every t > 0 in ``ts``; returns (values, estimates) shaped like ts.

    Each point's Bromwich contour Re(s) = A/(2t) is sampled at the nodes
    s_k = (A/2 + i k pi)/t.  ``ts`` may have any leading shape, a batch
    being (rows, points): ``transform(s)`` gets s as ts's shape plus a
    node axis, ``_BLOCK`` points of the last axis at a time, broadcasts its
    parameters as (rows, 1, 1) and returns G(s) and, with ``slope``, its
    derivative in a parameter, stacked as a (1 or 2,) + s.shape array; s
    is its own to overwrite.  The Euler term of node k is
    exp(A/2)/t sign_k Re(G(s_k)/s_k), and t s_k is A/2 + i k pi, so the
    term is Re(G(s_k) C_k) with the t-free constant
    C_k = exp(A/2) sign_k / (A/2 + i k pi).  The partial
    sums and their binomial averages are linear in the terms, so the value
    and the error estimate (the difference of the last two binomial
    averages) are each one weighted sum of the real and imaginary parts of
    G(s_k) along the node axis (``_euler_constants``), and the derivative
    inverts by the same sums; with ``slope`` it is returned third, NaN
    where it is not larger than its own estimate (it only steers a search,
    so it takes no part in the accuracy gate).  numpy sums each point's
    products on its own, so a point's value and estimate do not depend on
    the other points or rows of the call, on where its block starts, nor
    on ``slope``.
    """
    scaled_nodes, average, change = _euler_constants(_euler_params(tol.eps_invert))
    halves = 2 if slope else 1
    values, estimates = np.empty((2, halves) + ts.shape)
    for lo in range(0, ts.shape[-1], _BLOCK):
        block = (..., slice(lo, lo + _BLOCK))
        g = np.ascontiguousarray(transform(scaled_nodes * (1.0 / ts[block][..., None])),
                                 dtype=complex).view(float)
        for half, value, estimate in zip(g, values, estimates):
            np.add.reduce(half * average, axis=-1, out=value[block])
            np.add.reduce(half[..., -len(change) :] * change, axis=-1, out=estimate[block])
    np.abs(estimates, out=estimates)
    if not slope:
        return values[0], estimates[0]
    return values[0], estimates[0], np.where(np.abs(values[1]) > estimates[1], values[1], np.nan)


def _accuracy_gate(worst, tol: ToleranceConfig):
    """The accuracy gate of every inversion, elementwise in ``worst``.

    ``worst`` is a worst Euler error estimate, a float or one per row.  The
    certified error adds exp(-A), the contour discretization bound, and
    passes when it is at most eps_invert, so a NaN fails.  Returns the
    certified errors, or raises the AccuracyNotMet of the first entry that
    fails.
    """
    error = worst + math.exp(-_euler_params(tol.eps_invert))
    failed = np.atleast_1d(error)[~(np.atleast_1d(error) <= tol.eps_invert)]
    if failed.size:
        raise AccuracyNotMet(
            f"inversion error estimate {failed[0]:.3e} exceeds eps_invert={tol.eps_invert:.3e}")
    return error


def _certified_curve(
    ts: np.ndarray, raw: np.ndarray, worst: float, tol: ToleranceConfig, head_states: int = 0
) -> CdfCurve:
    """Gate an inverted CDF on its error bound (``_accuracy_gate``), then clip and monotonize it.

    Raises the gate's AccuracyNotMet when the curve fails it.
    """
    error = _accuracy_gate(worst, tol)
    clipped = np.clip(raw, 0.0, 1.0)
    iso = np.maximum.accumulate(clipped)
    return CdfCurve(
        ts=ts,
        values=iso,
        provenance="inverted",
        max_adjustment=float(np.max(np.abs(iso - raw), initial=0.0)),
        error_estimate=error,
        head_states=head_states,
    )


class _Class2Law:
    """The class-2 CDF of configs that differ only in d, at each row's abscissae, at any rate b.

    Row r is config r with busy weights ``weights[r]`` (None will do for a
    row with no point past d, which reads none) and nondecreasing
    abscissae ``ts[r]`` (``ts`` is (rows, points), at least one row).  The
    constructor does the b-free part.  It raises the error of the first row
    whose abscissae cannot be inverted (``_inversion_error`` on its points
    up to d, d, and t - d past d), then makes the one strict-priority
    inversion over the rows' points in (0, d] and each d > 0,
    ``strict_points`` in all.  Per row it keeps ``values`` (the atom at 0,
    the strict-priority values in (0, d]), ``f_at_d``, ``worst``, the
    largest estimate over those points and d, and ``past``, the count of
    its points past d, which end the row (``past_d``).
    """

    def __init__(self, configs: Sequence[QueueConfig], rates,
                 weights: Sequence[Optional[BusyWeights]], ts: np.ndarray, tol: ToleranceConfig):
        n, m = ts.shape
        self.weights, self.tol = weights, tol
        ds = np.array([cfg.d for cfg in configs], dtype=float)
        pts = np.concatenate([ts, ds[:, None]], axis=1)  # each row's abscissae, then its d
        self.over = over = ts - ds[:, None]
        self.past = np.add.reduce(over > 0.0, axis=1)
        for r in range(n):
            cut = m - self.past[r]
            _inversion_error(np.concatenate([ts[r, :cut], ds[r : r + 1], over[r, cut:]]), tol)
        strict = pts > 0.0
        strict[:, :m] &= over <= 0.0
        full, self.worst = np.zeros(pts.shape), np.zeros(n)
        self.values, self.f_at_d = full[:, :m], full[:, m]
        self.lambda1, self.mu, rho = configs[0].lambda1, configs[0].mu, rates[0].rho
        points = pts[strict]
        self.strict_points = points.size
        if points.size:
            vals, est = _npq_cdf_rows(points[None, :], self.lambda1, rho, self.mu, tol)
            full[strict] = est[0]
            # a NaN estimate stays NaN, unlike with max(), so it fails the gate
            self.worst = full.max(axis=1)
            full[strict] = vals[0]
        full[pts == 0.0] = 1.0 - rho  # the atom at t = 0, and F(d) where d = 0
        # F(d)'s part of a certificate past d
        self.at_d = np.where(ds > 0.0, self.worst + math.exp(-_euler_params(tol.eps_invert)), 0.0)

    def past_d(self, b, rows, slope: bool = False):
        """F(d) + H(t - d) at each of ``rows``' points past d, at its rate b (one b or one per row).

        Rows given together have equally many points past d, m.  Returns
        the uncertified values, (len(rows), m), and each row's estimate for
        ``_accuracy_gate``, bounding all its points: ``worst`` where m = 0,
        else the two-part sum (F(d)'s estimate is the row's largest up to
        d).  With ``slope`` dF/db = -lambda1 dH/da, NaN where unresolved,
        comes third.  One batched inversion (``_invert_over_delay_rows``).
        """
        m = self.past[rows[0]] if len(rows) else 0
        if not m:
            values = np.zeros((len(rows), 0))
            return (values, self.worst[rows]) + ((values,) if slope else ())
        h, est, *dhda = _invert_over_delay_rows(
            self.over[rows, -m:], self.lambda1 * (1.0 - b), self.mu,
            [self.weights[r] for r in rows], self.tol, slope)
        values = self.f_at_d[rows, None] + h
        worst = self.at_d[rows] + (est.max(axis=1) + 0.5 * self.tol.eps_series)
        return (values, worst) + ((-self.lambda1 * dhda[0],) if slope else ())


def default_grid(config: QueueConfig) -> np.ndarray:
    """0.05/mu-spaced abscissae out to where the FCFS survival is below 1e-6."""
    rates = validate(config)
    mu = config.mu
    rho = max(rates.rho, 1e-6)
    t_end = math.log(rho / 1e-6) / (mu * (1.0 - rates.rho))
    t_end = max(t_end, config.d + 10.0 / mu)
    return np.arange(0.0, t_end, 0.05 / mu)


def _abscissae(grid) -> np.ndarray:
    """``grid`` as a float array, checked finite and nondecreasing (OutOfRange otherwise)."""
    ts = np.asarray(grid, dtype=float)
    if not (np.isfinite(ts).all() and (np.diff(ts) >= 0.0).all()):
        raise OutOfRange("grid abscissae must be finite and nondecreasing")
    return ts


def class2_cdf_dapq(
    config: QueueConfig,
    grid: Optional[np.ndarray] = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CdfCurve:
    """Waiting-time CDF of class-2 customers in the delayed APQ (M/M/1).

    The one-row case of ``_Class2Law``: strict priority up to d, then
    F(d) + H(t - d) at the config's accrediting rate.  The busy weights do
    not depend on b, which enters only through that rate, and are built
    only when the grid has a point past d.  An empty
    grid gives an empty curve; an abscissa that is not finite or out of
    order, or a positive d, t or t - d too small to invert, raises OutOfRange,
    and an eps_invert below the inversion floor AccuracyNotMet.
    """
    rates = validate(config)
    if config.service is not ServiceKind.EXPONENTIAL:
        raise OutOfRange("class2_cdf_dapq requires exponential service")
    ts = default_grid(config) if grid is None else _abscissae(grid)
    weights = busy_state_distribution(config, tol) if ts.size and ts[-1] > config.d else None
    law = _Class2Law([config], [rates], [weights], ts[None, :], tol)
    past, worst = law.past_d(config.b, np.arange(1))
    values = law.values[0]
    values[len(ts) - law.past[0]:] = past[0]
    return _certified_curve(ts, values, float(worst[0]), tol, head_states=len(weights or ()))
