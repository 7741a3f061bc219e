"""Laplace-Stieltjes transforms of class-2 waits and numerical inversion.

The class-2 waiting time beyond the delay horizon has transform

    sum_j  w_j * eta(s)^j        (times exp(-s d) for the unshifted law),

where ``w_j`` is the busy-horizon state distribution from :mod:`dapq.markov`
and ``eta`` the accreditation-interval transform.  The weights are an
explicit head w_1..w_n plus an exact geometric tail C rho^j, so the sum is
a degree-n polynomial in eta (Horner's rule) plus the closed form
C (rho eta)^(n+1) / (1 - rho eta); n is set by the delay horizon, not by
the occupancy.

CDFs are recovered with the Euler-summation Fourier-series inversion
(Abate--Whitt style): the Bromwich integral is discretized with step pi/t
on the contour Re(s) = A/(2t), giving a discretization error below
exp(-A) for functions bounded by 1, and the alternating series is
accelerated by binomial averaging.  The difference between the last two
binomial averages serves as the error estimate.  The inversion runs on
whole blocks of grid points at once: a transform maps an ndarray of
complex s, here points x contour nodes, elementwise, and the partial
sums and averages run along the node axis.

Every inversion is a batch of rows (``_invert_over_delay_rows``), one
row per configuration, each with its own abscissae and its own transform
parameters: the accrediting rate, rho, the busy-weight head and
``tail_next``, held as (rows, 1, 1) arrays that broadcast over the row's
points and contour nodes (``_StackedWeights``).  Rows go longest head
first, and a row with a shorter head keeps its tail term until its own
head starts, so Horner's rule updates a prefix of the rows at each step;
the binomial averages are one matrix-vector product per row.  Every row
of a batch therefore equals its one-row inversion bit for bit.  A single
curve is the one-row case, and strict priority (b = d = 0) is the
headless geometric weights at the accrediting rate lambda1
(``_StackedWeights.geometric``).  The KPI searches in :mod:`dapq.kpi`
invert all their rows this way, one call per root-finding step.

Empirically the exponent on eta is the full ahead count j: with exponential
service the residual's accreditation interval is an ordinary accreditation
interval (memorylessness), and the inverted curves match simulated delayed
APQ waits to within Monte Carlo noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
from .markov import busy_state_distribution


@dataclass(frozen=True)
class CdfCurve:
    """A monotone CDF evaluated on a fixed grid of abscissae.

    Inverted curves also say how they were computed: ``max_adjustment`` is
    the largest change made by clipping and isotonic clamping,
    ``error_estimate`` the certified inversion error (worst Euler estimate
    plus the discretization bound exp(-A)), and ``head_states`` the number
    of explicit busy-state weights behind the transform (its geometric tail
    is summed in closed form).
    """

    ts: np.ndarray
    values: np.ndarray
    provenance: str
    max_adjustment: float = 0.0
    error_estimate: float = 0.0
    head_states: int = 0


# --------------------------------------------------------------------------
# accreditation-interval transforms
# --------------------------------------------------------------------------

def eta_mm1(s, arrival_rate: float, mu: float):
    """Accreditation-interval transform for exponential service, closed form.

    Equals mu/(mu+s) when the accrediting arrival rate is 0.  Accepts a
    scalar or an ndarray of real or complex s with Re(s) >= 0 (numpy's
    principal square root, the same branch as ``cmath.sqrt``); an ndarray
    gives a complex ndarray, a complex scalar a complex, and a real scalar
    s >= 0 a float in (0, 1].  With an ndarray s the arrival rate may be an
    ndarray too (one rate per row of a batch), broadcasting against s.
    """
    # eta is the root of a eta^2 - z eta + mu = 0 inside the unit disk,
    # 2 mu / (z + sqrt(z^2 - 4 mu a)): unlike (z - sqrt(.)) / (2a) it does not
    # cancel at large |z| / a.  With c = 2 sqrt(mu a), z - c = s + (sqrt(mu) -
    # sqrt(a))^2 and z + c lie in the closed right half-plane, so
    # sqrt(z - c) sqrt(z + c) is the principal root, and z^2 never overflows.
    z = np.asarray(s, dtype=complex) + mu + arrival_rate
    c = 2.0 * np.sqrt(mu * arrival_rate)
    val = 2.0 * mu / (z + np.sqrt(z - c) * np.sqrt(z + c))
    if isinstance(s, np.ndarray):
        return val
    if isinstance(s, complex):
        return complex(val)
    return float(val.real)


# --------------------------------------------------------------------------
# class-2 waiting-time transforms (exponential service)
# --------------------------------------------------------------------------

def _horner(e, rho, tail_next, steps, starts):
    """sum_j w_j e^j for busy weights w: a head by Horner's rule, a closed geometric tail.

    Evaluates e (w_1 + e (w_2 + ... e (w_n + e T))) with
    T = tail_next / (1 - rho e), the tail sum in closed form, for a batch
    of rows in place.  ``steps`` are the heads' coefficients w_n .. w_1 in
    the order Horner's rule takes them: rows come longest head first, each
    step holding every row's coefficient right-aligned, and row r's head
    begins at step ``starts[r]`` (``starts`` ends with n).  From there to
    the next row's start, rows 0..r take the steps and the rest keep their
    tail term, so each row gets exactly its one-row value.
    """
    acc = tail_next / (1.0 - rho * e)
    for r in range(len(starts) - 1):
        part, er = acc[: r + 1], e[: r + 1]
        for h in steps[starts[r] : starts[r + 1], : r + 1]:
            np.multiply(er, part, out=part)
            np.add(h, part, out=part)
    return e * acc


@dataclass(frozen=True)
class _StackedWeights:
    """Busy weights of several configurations, one per row of a batch.

    ``rho`` and ``tail_next`` are (rows, 1, 1) arrays and ``lengths`` the
    rows' head sizes; ``steps`` holds the Horner coefficients
    (n, rows, 1, 1), each row's head w_n .. w_1 right-aligned in its last
    ``lengths[r]`` steps.
    """

    rho: np.ndarray
    tail_next: np.ndarray
    steps: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, weights) -> "_StackedWeights":
        lengths = np.array([len(w) for w in weights], dtype=int)
        n = int(lengths.max(initial=0))
        steps = np.zeros((n, len(weights), 1, 1))
        for r, w in enumerate(weights):
            steps[n - len(w) :, r, 0, 0] = w.head[::-1]
        column = lambda xs: np.array(xs, dtype=float)[:, None, None]
        return cls(
            rho=column([w.rho for w in weights]),
            tail_next=column([w.tail_next for w in weights]),
            steps=steps,
            lengths=lengths,
        )

    @classmethod
    def geometric(cls, rho: np.ndarray) -> "_StackedWeights":
        """The busy weights at d = 0 of each row's rho: no head and
        tail_next = (1 - rho) rho, as ``busy_state_distribution`` gives them."""
        rho = np.asarray(rho, dtype=float)[:, None, None]
        return cls(rho=rho, tail_next=(1.0 - rho) * rho,
                   steps=np.zeros((0, len(rho), 1, 1)), lengths=np.zeros(len(rho), dtype=int))

    def take(self, rows: np.ndarray) -> "_StackedWeights":
        """The rows ``rows``, with the steps before the longest of their heads dropped."""
        rows = np.asarray(rows, dtype=int)
        lengths = self.lengths[rows]
        first = len(self.steps) - int(lengths.max(initial=0))
        return _StackedWeights(
            rho=self.rho[rows],
            tail_next=self.tail_next[rows],
            steps=self.steps[first:, rows],
            lengths=lengths,
        )


def _invert_over_delay_rows(
    ts: np.ndarray, lam_acc, mu: float, weights: _StackedWeights, tol: ToleranceConfig,
):
    """Invert each row's shifted over-delay transform at the row's abscissae.

    The transform is sum_j w_j eta(s)^j, the over-delay measure shifted
    back to the origin: inverting it gives H(u) = P[W2 - d <= u, W2 > d],
    and the shift avoids the oscillatory exp(-s d) factor.  ``ts`` is
    (rows, points), ``lam_acc`` the rows' accrediting rates (or
    one for all) and ``weights`` their busy weights; returns
    ``_euler_invert``'s (values, estimates), both (rows, points).  The
    rows are inverted longest head first, so the heads that have begun
    form a prefix at every Horner step, and the results are put back in
    order.
    """
    # sorted in Python: numpy's argsort would page in its sorting code for
    # a few dozen rows
    lengths = weights.lengths.tolist()
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    w = weights.take(order)
    lam = (np.zeros(len(order)) + lam_acc)[order, None, None]
    n = len(w.steps)
    starts = [n - lengths[r] for r in order] + [n]

    def fn(s):
        return _horner(eta_mm1(s, lam, mu), w.rho, w.tail_next, w.steps, starts)

    values, estimates = _euler_invert(fn, ts[order], tol)
    back = np.empty(len(order), dtype=int)
    back[order] = np.arange(len(order))
    return values[back], estimates[back]


# --------------------------------------------------------------------------
# Euler-summation inversion
# --------------------------------------------------------------------------

# Grid points inverted per vectorised call.  A block's complex temporaries
# (points x 61 contour nodes, 16 bytes each) stay under 128 KiB, glibc's
# default mmap threshold, so they come from the heap and are not mapped
# and unmapped afresh for every block of a long grid.
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


def _euler_params(eps: float):
    a = max(18.5, -math.log(eps) + 2.3)
    return a, _N_BURN, _N_AVG  # contour constant, burn-in terms, averaged terms


def _euler_invert(fn, ts: np.ndarray, tol: ToleranceConfig):
    """Invert fn(s)/s at every t > 0 in ``ts``; returns (values, estimates) shaped like ts.

    Each point's Bromwich contour Re(s) = A/(2t) is sampled at the nodes
    s_k = A/(2t) + i k pi/t.  ``ts`` may have any leading shape, a batch
    being (rows, points): ``fn`` gets s as ts's shape plus a node axis,
    ``_BLOCK`` points of the last axis at a time, and broadcasts its
    parameters as (rows, 1, 1).  The alternating partial sums run along
    the node axis and are accelerated by binomial averaging, each row's
    averages their own matrix-vector product, so a row's values equal
    those of a call on that row alone.  The error estimate of a point is
    the difference of its last two binomial averages.
    """
    a = _euler_params(tol.eps_invert)[0]
    values = np.empty(ts.shape)
    estimates = np.zeros(ts.shape)
    for lo in range(0, ts.shape[-1], _BLOCK):
        block = (..., slice(lo, lo + _BLOCK))
        t = ts[block][..., None]
        s = a / (2.0 * t) + 1j * (_NODES * math.pi / t)
        terms = (math.exp(a / 2.0) / t) * _SIGN * (fn(s) / s).real
        partial = np.cumsum(terms, axis=-1)
        val = partial[..., _N_BURN:] @ _BINOM
        val_prev = partial[..., _N_BURN - 1 : -1] @ _BINOM
        values[block] = val
        estimates[block] = np.abs(val - val_prev)
    return values, estimates


def _accuracy_not_met(error: float, tol: ToleranceConfig) -> Optional[AccuracyNotMet]:
    """The error for a certified inversion error above eps_invert or not a number, else None."""
    if error <= tol.eps_invert:
        return None
    return AccuracyNotMet(
        f"inversion error estimate {error:.3e} exceeds eps_invert={tol.eps_invert:.3e}"
    )


def _discretization_bound(tol: ToleranceConfig) -> float:
    """exp(-A): the contour discretization error added to every Euler estimate."""
    return math.exp(-_euler_params(tol.eps_invert)[0])


def _certified_curve(
    ts: np.ndarray, raw: np.ndarray, worst: float, tol: ToleranceConfig, head_states: int = 0
) -> CdfCurve:
    """Gate an inverted CDF on its error bound, then clip and monotonize it.

    Raises AccuracyNotMet when the worst error estimate plus the contour
    discretization bound exp(-A) exceeds eps_invert or is not a number.
    """
    error = worst + _discretization_bound(tol)
    failure = _accuracy_not_met(error, tol)
    if failure is not None:
        raise failure
    clipped = np.clip(raw, 0.0, 1.0)
    iso = np.maximum.accumulate(clipped)
    return CdfCurve(
        ts=ts,
        values=iso,
        provenance="inverted",
        max_adjustment=float(np.max(np.abs(iso - raw))),
        error_estimate=error,
        head_states=head_states,
    )


def default_grid(config: QueueConfig) -> np.ndarray:
    """0.05/mu-spaced abscissae out to where the FCFS survival is below 1e-6."""
    rates = validate(config)
    mu = config.mu
    rho = max(rates.rho, 1e-6)
    t_end = math.log(rho / 1e-6) / (mu * (1.0 - rates.rho))
    t_end = max(t_end, config.d + 10.0 / mu)
    return np.arange(0.0, t_end, 0.05 / mu)


def class2_cdf_dapq(
    config: QueueConfig,
    grid: Optional[np.ndarray] = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CdfCurve:
    """Waiting-time CDF of class-2 customers in the delayed APQ (M/M/1).

    Within the delay horizon the law coincides with the strict-priority
    (b = 0) reference, whose busy weights are the headless geometric
    weights at the accrediting rate lambda1; beyond d the over-delay
    transform of the config's busy weights takes over.  Each part is a
    one-row batch of ``_invert_over_delay_rows``.  The busy weights do not
    depend on b, which enters only through the accrediting rate.
    """
    rates = validate(config)
    if config.service is not ServiceKind.EXPONENTIAL:
        raise OutOfRange("class2_cdf_dapq requires exponential service")
    ts = default_grid(config) if grid is None else np.asarray(grid, dtype=float)
    weights = busy_state_distribution(config, tol)
    atom = 1.0 - rates.rho
    d = config.d

    inside = (ts > 0.0) & (ts <= d)
    beyond = ts > d
    values = np.zeros_like(ts)
    values[ts == 0.0] = atom
    f_at_d, worst_inside = atom, 0.0
    if d > 0:  # with d = 0 no point lies in (0, d] and F(d) is the atom
        # F(d) rides along as the last point of the strict-priority row
        npq_vals, npq_est = _invert_over_delay_rows(
            np.append(ts[inside], d)[None, :], config.lambda1, config.mu,
            _StackedWeights.geometric([rates.rho]), tol,
        )
        values[inside] = atom + npq_vals[0, :-1]
        f_at_d = atom + npq_vals[0, -1]
        worst_inside = np.max(npq_est)
    tail_vals, tail_est = _invert_over_delay_rows(
        (ts[beyond] - d)[None, :], rates.lambda1_acc, config.mu,
        _StackedWeights.of([weights]), tol,
    )
    values[beyond] = f_at_d + tail_vals[0]
    # np.max keeps a NaN, unlike max(), so a non-finite evaluation fails the gate
    worst = float(np.max(tail_est, initial=worst_inside))
    return _certified_curve(ts, values, worst, tol, head_states=len(weights))
