"""KPI feasibility analysis and optimal accumulation-rate search.

For a class-2 KPI the search finds the *smallest* accumulation rate whose
waiting-time CDF meets the compliance target at the given delay (smaller b
is always better for class-1); for a class-1 KPI it finds the *largest*
rate whose exact class-1 mean stays under the zero-inflated-exponential
threshold.  Both constraint functions are monotone in b, and neither is
probed for it: the class-2 CDF by stochastic ordering
(``_b_star_class2_rows``), the class-1 mean by conservation, which also
makes its rate a closed form (``_b_star_class1_rows``).

A KPI needs parameter tuning only between two extremes: where the
favorable extreme discipline (strict priority for class-2 targets, FCFS
for class-1 targets) already complies, no tuning is needed; where even the
unfavorable extreme fails, no tuning can help.  ``feasible_region`` traces
both frontiers over arrival-rate pairs.

Every class-2 search runs in lockstep over rows: the lambda1 values of a
region, or the delays of a sweep (a single search is the one-row case).
Each probe is one batched inversion over the rows still searching, which
also inverts the CDF's derivative in the searched parameter: for a sweep
the part past d of ``transforms._Class2Law``, which composes the class-2
CDF (see the ``transforms`` module notes), for a region the
strict-priority CDF (``_npq_probe``).  One function owns the bracket
(``_newton_rows``): it probes both ends, settles each row whose root lies
at one, and narrows every other row's bracket by a safeguarded Newton
search: a regula-falsi point from the signed residuals at the ends, then
Newton steps, a last probe aimed just beyond the predicted root so that
the bracket closes, and bisection wherever a step is not trustworthy, so
that no row takes more than a few probes beyond bisection's worst case.
A row stops, as bisection would, once its bracket is at most eps wide,
and returns the end that meets the KPI (the midpoint for a region
frontier).  So each result lies within eps of the bisection result, and
every row sees the points and values of a search of that row alone.  The
b-free parts of a sweep (busy weights, the mean's correction sum, the
strict-priority F(d)) are computed once per delay, the busy weights and
exponential-service correction sums of all delays in one run of the
ahead-set chain (``mean_wait._b_free_rows``) and every F(d) in one
strict-priority inversion (``transforms._Class2Law``).  Each row's
inversions are gated on their own error bound.  A batch raises the first
error it meets, and ``policy_sweep`` and ``feasible_region`` then raise
the first failed row's error, the one a row-by-row loop would have
raised, by one rule (``core._first_failure``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import approx, mean_wait, transforms
from .core import (
    DEFAULT_TOL,
    Kpi,
    OutOfRange,
    QueueConfig,
    ToleranceConfig,
    UnstableSystem,
    _check_count,
    _class1_mean_from_class2,
    _conservation_rhs,
    _first_failure,
    validate,
)


@dataclass(frozen=True)
class PolicyPoint:
    """Result of one accumulation-rate search at a fixed delay.

    ``error_estimate`` is the largest certified inversion error over the
    search's probes (``transforms._accuracy_gate``): 0 for a class-1
    search, which inverts nothing.  ``probes`` is the number of times the
    search evaluated the point's constraint: for a class-2 KPI the bracket
    ends b = 0 and 1, then each Newton or bisection step; for a class-1 KPI
    the means at b = 0 and 1, then each of the steps from the closed-form
    b* and of their bisection.  ``root_width`` says how sharply an interior
    b* is pinned: how far b may move before the constraint moves by its own
    error, the certified inversion error over dF/db at b* for class 2, one
    rounding of the class-1 mean (eps rhs / rho1) over its slope in b for
    class 1, and inf where that slope is not resolved; it is 0 at b* = 0
    or 1 and at an infeasible point, which no root search found.  These
    fields describe how the point was found and take no part in
    comparisons.
    """

    d: float
    b_star: float
    mean_w1: float
    mean_w2: float
    feasible: bool
    error_estimate: float = field(default=0.0, compare=False)
    probes: int = field(default=0, compare=False)
    root_width: float = field(default=0.0, compare=False)


class PolicySweep(list):
    """The PolicyPoints of a delay sweep, one per delay, in the order given.

    It also says how they were found: ``inversion_calls`` batched
    inversions over ``rows_inverted`` rows in all (0 for a class-1 sweep,
    which inverts nothing; a class-2 sweep makes one per lockstep probe,
    bracket ends and Newton steps alike), and ``chain_runs`` runs of the
    ahead-set chain (``markov._delay_weights``) of ``chain_steps`` steps in
    all, which give the busy weights and the exponential-service correction
    sums (one run for a sweep of any length; none for deterministic
    service).  It compares as the list of its points.
    """

    def __init__(self, points=(), inversion_calls: int = 0, rows_inverted: int = 0,
                 chain_runs: int = 0, chain_steps: int = 0):
        super().__init__(points)
        self.inversion_calls = inversion_calls
        self.rows_inverted = rows_inverted
        self.chain_runs = chain_runs
        self.chain_steps = chain_steps


@dataclass(frozen=True)
class FeasibleRegion:
    """Arrival-rate frontier pair of a KPI tuning region.

    ``lower_boundary`` and ``upper_boundary`` are (lambda1, lambda2) arrays;
    between them the KPI is unmet by the favorable extreme discipline yet
    met by the unfavorable one, so (d, b) tuning is nontrivial.  A class-2
    region also says how it was traced: ``inversion_calls`` batched
    inversions over ``rows_inverted`` rows in all (two bracket-end probes,
    then one per Newton or bisection step of the lockstep search), with
    ``error_estimate`` the largest certified inversion error among them;
    these take no part in comparisons.
    """

    kpi: Kpi
    lower_boundary: np.ndarray
    upper_boundary: np.ndarray
    inversion_calls: int = field(default=0, compare=False)
    rows_inverted: int = field(default=0, compare=False)
    error_estimate: float = field(default=0.0, compare=False)


# --------------------------------------------------------------------------
# lockstep rows
# --------------------------------------------------------------------------

class _Rows:
    """Bookkeeping of a lockstep search over n rows.

    ``worst`` holds each row's largest certified inversion error,
    ``probes`` each row's constraint evaluations, ``widths`` each row's
    ``PolicyPoint.root_width``, ``calls`` and ``rows_inverted`` the batched
    inversions, counted by ``inverted``, and ``chain_runs`` and
    ``chain_steps`` the runs of the ahead-set chain.  A failed row raises
    at once; which row's error the search raises is ``core._first_failure``'s
    rule.
    """

    def __init__(self, n: int, tol: ToleranceConfig):
        self.tol = tol
        self.worst = np.zeros(n)
        self.probes = np.zeros(n, dtype=int)
        self.widths = np.zeros(n)
        self.calls = 0
        self.rows_inverted = 0
        self.chain_runs = 0
        self.chain_steps = 0

    def inverted(self, n_rows: int) -> None:
        """Count one batched inversion over ``n_rows`` rows."""
        self.calls += 1
        self.rows_inverted += n_rows

    def b_free(self, configs: Sequence[QueueConfig], heads: bool) -> list:
        """(rates, means, weights) of ``mean_wait._b_free_rows``, its chain run counted."""
        rates, means, weights, steps = mean_wait._b_free_rows(configs, self.tol, heads)
        if steps is not None:
            self.chain_runs += 1
            self.chain_steps += steps
        return rates, means, weights

    def certify(self, rows: np.ndarray, raw: np.ndarray, worst: np.ndarray) -> np.ndarray:
        """Gate one batch of CDF values row by row (``transforms._accuracy_gate``).

        ``worst`` is each row's largest Euler estimate; the first row that
        fails the gate raises its AccuracyNotMet.  Returns the values
        clipped to [0, 1].
        """
        self.worst[rows] = np.maximum(self.worst[rows], transforms._accuracy_gate(worst, self.tol))
        return np.clip(raw, 0.0, 1.0)


# probes a Newton search may take beyond bisection's worst case
_NEWTON_N0 = 3


def _newton_rows(probe, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray, eps: float,
                 ties_lo: bool):
    """Safeguarded Newton search of [lo[r], hi[r]] for every row r in ``rows``, in lockstep.

    The residual increases.  ``probe(x, rows)`` evaluates the active rows
    (never none) at one point each and returns (residuals, slopes), or
    raises the DapqError of a row that fails.  A negative
    residual moves lo up, a positive one moves hi down, and a zero one
    moves lo when ``ties_lo`` and hi otherwise.  The search probes lo for
    every row, then hi for the rows that lo left open, and settles a row
    whose root lies at an end, with its bracket unchanged: at lo where the
    residual would move hi, at hi where it would move lo.  Every other row
    is searched until its own width hi - lo is at most eps.  Returns (lo,
    hi, slope, at_lo, at_hi): the brackets, each searched row's slope at
    its last probe (NaN elsewhere), and the rows settled at lo and at hi.

    The first probe inside is the regula-falsi point of the end residuals
    (the midpoint between equal ones); each later one is the Newton point
    x - f/f' of the last probe x.  Once that step is at most 3 eps / 4,
    the probe is aimed eps / 4 beyond the predicted root, away from x, so
    that the crossing lies between x and it and the bracket closes to eps.
    Safeguard: a point that is not finite (a slope that is 0, NaN, or not
    positive gives none), does not lie strictly inside the bracket, or
    could leave it wider than bound = eps * 2**(n_max - j - 1) after probe
    j, is replaced by the midpoint.  n_max is bisection's count of halvings
    plus ``_NEWTON_N0``, and the midpoint halves the width as fast as the
    bound shrinks, so no row takes more than n_max probes inside its
    bracket, whatever its residuals and slopes.  The bound keeps a slack of
    a few ulps of the bracket's magnitude in hand, so rounding cannot carry
    a row past it; with eps within a few slacks of it only midpoints
    remain.  A row's points depend on its own values and on the step count
    alone, so it sees the points of a search of that row alone.
    """
    lo, hi = lo.copy(), hi.copy()
    f_lo, f_hi = np.zeros(len(lo)), np.zeros(len(lo))
    settled = []
    for at_hi, end, f_end in ((False, lo, f_lo), (True, hi, f_hi)):
        if rows.size:
            f_end[rows] = probe(end[rows], rows)[0]
        up = f_end[rows] <= 0.0 if ties_lo else f_end[rows] < 0.0  # as a probe inside moves lo
        settled.append(rows[up == at_hi])
        rows = rows[up != at_hi]
    slope = np.full(len(lo), np.nan)
    rows = rows[hi[rows] - lo[rows] > eps]
    a, b, fa, fb = lo[rows], hi[rows], f_lo[rows], f_hi[rows]
    flat = fb == fa
    x = np.where(flat, 0.5 * (a + b), (fb * a - fa * b) / np.where(flat, 1.0, fb - fa))
    slack, n_max = np.zeros(len(lo)), np.zeros(len(lo), dtype=int)
    slack[rows] = 4.0 * np.spacing(4.0 * np.maximum(np.abs(a), np.abs(b)))
    # bisection's halvings: the least n with eps * 2**n >= width, exactly
    (m_w, e_w), (m_e, e_e) = np.frexp(b - a), math.frexp(eps)
    n_max[rows] = e_w - e_e + (m_w > m_e) + _NEWTON_N0
    reach = eps - 2.0 * slack
    step = 0
    while rows.size:
        a, b = lo[rows], hi[rows]
        bound = np.ldexp(reach[rows], n_max[rows] - (step + 1)) + slack[rows]
        safe = (a < x) & (x < b) & (b - bound <= x) & (x <= a + bound)
        x = np.where(safe, x, 0.5 * (a + b))
        values, slopes = probe(x, rows)
        up = values <= 0.0 if ties_lo else values < 0.0
        lo[rows[up]] = x[up]
        hi[rows[~up]] = x[~up]
        slope[rows] = slopes
        step += 1
        going = hi[rows] - lo[rows] > eps
        rows, x, values, slopes, up = rows[going], x[going], values[going], slopes[going], up[going]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = np.where(slopes > 0.0, -values / slopes, np.nan)
        close = np.abs(newton) <= 0.75 * eps
        x = x + newton + np.where(close, np.where(up, 0.25 * eps, -0.25 * eps), 0.0)
    return lo, hi, slope, *settled


# --------------------------------------------------------------------------
# constraint evaluations
# --------------------------------------------------------------------------

def _npq_probe(lam1: np.ndarray, lam2, mu: float, kpi: Kpi, state: _Rows, rows: np.ndarray):
    """Strict priority's certified class-2 F(w) at (lam1[i], lam2[i]) for each row.

    One batched inversion at the target wait (``transforms._npq_cdf_rows``),
    counted in ``state``, after ``transforms._inversion_error`` has refused
    an eps_invert below the floor or a w too small to invert.  Returns
    (values, slopes) per row, ``slopes`` dF/dlambda2 = dF/drho / mu from the
    same inversion.
    """
    if error := transforms._inversion_error(np.array([kpi.target_w]), state.tol):
        raise error
    state.inverted(len(rows))
    vals, est, dfdrho = transforms._npq_cdf_rows(
        np.full((len(rows), 1), kpi.target_w), lam1, lam1 / mu + lam2 / mu, mu, state.tol,
        slope=True)
    return state.certify(rows, vals[:, 0], est[:, 0]), dfdrho[:, 0] / mu


# --------------------------------------------------------------------------
# optimal accumulation rates
# --------------------------------------------------------------------------

def _points(configs, outcome: dict, rates, means, state: _Rows) -> PolicySweep:
    """Each row's PolicyPoint at its (b, feasible) outcome.

    ``rates[r]`` and ``means[r]`` are the row's rates and class-2 mean as a
    function of b (``mean_wait._b_free_rows``); the class-1 mean follows from
    conservation, as in ``mean_wait.dapq_means``.
    """
    points = []
    for r, cfg in enumerate(configs):
        b, feasible = outcome[r]
        w2 = means[r](b)
        w1 = _class1_mean_from_class2(cfg, rates[r], w2)
        points.append(PolicyPoint(d=cfg.d, b_star=b, mean_w1=float(w1), mean_w2=float(w2),
                                  feasible=feasible, error_estimate=float(state.worst[r]),
                                  probes=int(state.probes[r]),
                                  root_width=float(state.widths[r])))
    return PolicySweep(points, state.calls, state.rows_inverted, state.chain_runs,
                       state.chain_steps)


def _b_star_class2_rows(
    configs: Sequence[QueueConfig], kpi: Kpi, tol: ToleranceConfig
) -> PolicySweep:
    """``b_star_class2`` for configs that differ only in d, in lockstep.

    F2(w; b) is nondecreasing in b, so no monotonicity probe is needed.
    Up to d the wait is the strict-priority one, and F(d) and the busy
    weights do not depend on b.  Beyond d the wait is the first passage to
    0 of a birth-death walk with birth rate a = lambda1 (1 - b) and death
    rate mu, started from the busy weights.  Thinning the births of a walk
    at rate a gives one at any lower rate on the same path, which never
    lies above it, so its passage time is never later: the passage time is
    stochastically increasing in a, and so decreasing in b.  The search
    (``_newton_rows``) settles the rows with F(w) >= p at b = 0 (b* = 0)
    or F(w) < p at b = 1 (infeasible) by those two probes and searches the
    others with the derivative dF/db from each probe; b* is the end of the
    final bracket that meets the KPI.
    """
    if kpi.class_index != 2:
        raise OutOfRange("b_star_class2 requires a class-2 KPI")
    n, p = len(configs), kpi.compliance_p
    state = _Rows(n, tol)
    rates, means, weights = state.b_free(configs, heads=True)
    law = transforms._Class2Law(configs, rates, weights, np.full((n, 1), kpi.target_w), tol)
    if law.strict_points:
        state.inverted(1)
    free, dep = np.flatnonzero(law.past == 0), np.flatnonzero(law.past)
    state.probes[free] += 1  # a row with w <= d has the b-free strict-priority F(w)
    values = state.certify(free, law.values[free, 0], law.worst[free])
    outcome = {r: (0.0, True) if v >= p else (1.0, False) for r, v in zip(free, values)}

    def residual(b, rr):
        state.inverted(len(rr))
        state.probes[rr] += 1
        values, worst, slopes = law.past_d(b, rr, slope=True)
        return state.certify(rr, values[:, 0], worst) - p, slopes[:, 0]

    _, hi, slope, at_lo, at_hi = _newton_rows(residual, dep, np.zeros(n), np.ones(n),
                                              tol.eps_root, ties_lo=False)
    for r in dep:
        if r in at_lo:
            outcome[r] = (0.0, True)
        elif r in at_hi:
            outcome[r] = (1.0, False)
        else:
            outcome[r] = (float(hi[r]), True)
            state.widths[r] = state.worst[r] / slope[r] if slope[r] > 0.0 else math.inf
    return _points(configs, outcome, rates, means, state)


def _b_star_class1_rows(
    configs: Sequence[QueueConfig], kpi: Kpi, tol: ToleranceConfig
) -> PolicySweep:
    """``b_star_class1`` for configs that differ only in d, each row in closed form.

    With threshold thr, conservation makes the class-1 mean meet thr
    exactly where the class-2 mean is m2* = (rhs - rho1 thr) / rho2, and
    ``mean_wait._MeanInB.rate_for`` solves that for b.  The class-2 mean is
    npq less g(b) times a b-free correction, and g increases in b, so the
    class-1 mean is monotone in b, its direction fixed by the correction's
    sign; m1(0) <= thr < m1(1) makes it increasing, so the rows meeting the
    KPI are b <= b*, and no monotonicity probe is needed.  Roundoff can
    leave the mean at the root (computed as ``mean_wait.dapq_means`` does)
    above thr.  The search then steps down from the root in gaps of
    max(ulp, w), twice that, ... until it meets thr (b = 0 does), else up
    in gaps of max(eps_root, w), twice that, ... until it does not (b = 1
    does not), and bisects the last gap to eps_root: b* meets thr within
    eps_root below a rate that does not.  w is the root's width (see
    ``PolicyPoint``), how far b moves before the mean moves by its
    rounding, so where the mean is flat in b the first step already spans
    the flat stretch.  At every interior b* the class-2
    mean is m2* to roundoff, which depends on no delay: this is the trend a
    class-1 sweep shows.
    """
    if kpi.class_index != 1:
        raise OutOfRange("b_star_class1 requires a class-1 KPI")
    n = len(configs)
    state = _Rows(n, tol)
    rates, means, _ = state.b_free(configs, heads=False)
    outcome = {}
    for r, (cfg, rt, mean_w2) in enumerate(zip(configs, rates, means)):
        def mean1(b):
            state.probes[r] += 1
            return _class1_mean_from_class2(cfg, rt, mean_w2(b))

        threshold = approx.kpi_mean_threshold(rt.rho, kpi)
        if math.isinf(threshold):  # approx.ALWAYS_SATISFIED
            outcome[r] = (1.0, True)
        elif mean1(0.0) > threshold:
            outcome[r] = (0.0, False)
        elif mean1(1.0) <= threshold:
            outcome[r] = (1.0, True)
        else:
            rhs = _conservation_rhs(cfg, rt)

            def width(x):  # one rounding of m1, eps rhs / rho1, over m1' = -(rho2/rho1) m2'
                slope1 = abs(rt.rho2 * mean_w2.slope(x))
                return float(np.finfo(float).eps * rhs / slope1) if slope1 > 0.0 else math.inf
            b = above = mean_w2.rate_for((rhs - rt.rho1 * threshold) / rt.rho2)
            gap = max(math.ulp(b), width(b))
            while mean1(b) > threshold:
                above, b, gap = b, max(0.0, b - gap), 2.0 * gap
            gap = max(tol.eps_root, gap)  # if the rate met thr, step up: b = 1 does not
            while above == b and mean1(above := min(1.0, b + gap)) <= threshold:
                b, gap = above, 2.0 * gap
            while b + tol.eps_root < above and b < (mid := 0.5 * (b + above)) < above:
                b, above = (mid, above) if mean1(mid) <= threshold else (b, mid)
            outcome[r] = (b, True)
            state.widths[r] = width(b)
    return _points(configs, outcome, rates, means, state)


def b_star_class2(
    config: QueueConfig, kpi: Kpi, tol: ToleranceConfig = DEFAULT_TOL
) -> PolicyPoint:
    """Smallest accumulation rate meeting a class-2 KPI at the config's delay.

    The config's own ``b`` is ignored.  Returns b = 0 when strict priority
    already complies and an infeasible point when even b = 1 fails.  Both
    busy-weight sets and the strict-priority F(d) are b-free, so they are
    computed once and each step of the search costs one inversion at the
    target wait.  This is the one-row case of ``policy_sweep``.
    """
    return _b_star_class2_rows([config], kpi, tol)[0]


def b_star_class1(
    config: QueueConfig, kpi: Kpi, tol: ToleranceConfig = DEFAULT_TOL
) -> PolicyPoint:
    """Largest accumulation rate meeting a class-1 KPI at the config's delay.

    The constraint is the exact class-1 mean against the
    zero-inflated-exponential threshold, which makes the result exact given
    the approximation.  b* is a closed form, refined to eps_root by the
    means about it (``_b_star_class1_rows``), and ``probes`` counts the
    means evaluated.  This is the one-row case of ``policy_sweep``.
    """
    return _b_star_class1_rows([config], kpi, tol)[0]


# --------------------------------------------------------------------------
# feasible regions
# --------------------------------------------------------------------------

def _fcfs_boundary_rho(kpi: Kpi, mu: float, eps: float) -> float:
    """Occupancy where the FCFS wait exactly meets the KPI (CDF decreasing in rho)."""
    def meets(rho):
        return approx.ZExp(rho, mu * (1.0 - rho)).cdf(kpi.target_w) >= kpi.compliance_p

    lo, hi = 1e-9, 1.0 - 1e-9
    if meets(hi):
        return hi
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if meets(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def meets_extreme(
    lam1: float,
    lam2: float,
    mu: float,
    kpi: Kpi,
    discipline: str,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> bool:
    """Whether FCFS or NPQ meets the KPI at the given rates (exact CDFs).

    False for an unstable pair; OutOfRange, as ``validate`` raises it, for
    a rate that is negative or not finite or a mu that is not positive.
    Class-1 waits under either discipline and FCFS waits are exactly
    zero-inflated exponential (``approx.ZExp``).  A class-2 KPI under NPQ
    is the one-row case of ``feasible_region``'s probe.
    """
    if discipline not in ("fcfs", "npq"):
        raise OutOfRange(f"unknown discipline {discipline!r}")
    try:
        rho = validate(QueueConfig(lambda1=lam1, lambda2=lam2, mu=mu)).rho
    except UnstableSystem:
        return False
    w, p = kpi.target_w, kpi.compliance_p
    if discipline == "fcfs":
        return approx.ZExp(rho, mu * (1.0 - rho)).cdf(w) >= p
    if kpi.class_index == 1:
        return approx.ZExp(rho, mu - lam1).cdf(w) >= p
    values, _ = _npq_probe(np.array([lam1]), np.array([lam2]), mu, kpi, _Rows(1, tol),
                           np.arange(1))
    return bool(values[0] >= p)


def in_tuning_region(
    lam1: float, lam2: float, mu: float, kpi: Kpi, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """True when the KPI needs (d, b) tuning: favorable extreme fails to
    dominate, unfavorable extreme still has room.  False for an unstable
    pair, where neither extreme meets the KPI."""
    favorable, unfavorable = ("fcfs", "npq") if kpi.class_index == 2 else ("npq", "fcfs")
    return (meets_extreme(lam1, lam2, mu, kpi, favorable, tol)
            and not meets_extreme(lam1, lam2, mu, kpi, unfavorable, tol))


def _pairs(pairs: list) -> np.ndarray:
    return np.array(pairs) if pairs else np.empty((0, 2))


def feasible_region(
    kpi: Kpi,
    mu: float = 1.0,
    resolution: float = 0.02,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> FeasibleRegion:
    """Trace the two lambda-space frontiers of the KPI tuning region.

    For each lambda1 on the grid the boundary lambda2 where the relevant
    extreme discipline exactly meets the KPI is found by a safeguarded
    Newton search (class-2 strict-priority boundary, ``_newton_rows``) or
    in closed form (pure-occupancy FCFS boundary and the class-1
    strict-priority boundary).  The strict-priority F(w) falls as lambda2
    grows with lambda1 fixed: added class-2 arrivals only add work ahead of
    a tagged class-2 customer, path by path, and the accrediting rate
    lambda1 does not change.  The class-2 searches run in lockstep over
    lambda1: each probe is one batched inversion of F(w) and its derivative
    in lambda2 over the rows still searching.  The probes at the bracket
    ends settle the rows that fail the KPI at its lower end (frontier 0) or
    meet it at its upper end (frontier there); each other row narrows its
    bracket to 1e-4 in at most ``_NEWTON_N0`` probes more than bisection
    would take, and its frontier is the bracket's midpoint, within 1e-4 of
    the bisection midpoint.  When rows fail, the error of the lowest
    lambda1 is raised (``core._first_failure``, a single row being one
    lambda1).  A resolution that would give more than ``core._MAX_VALUES``
    lambda1 values raises OutOfRange.
    """
    if not 0.0 < resolution < math.inf:
        raise OutOfRange(f"resolution must be positive and finite, got {resolution}")
    if not 0.0 < mu < math.inf:
        raise OutOfRange(f"service rate mu must be positive and finite, got {mu}")
    _check_count(mu / resolution, "the lambda1 grid")
    w, p = kpi.target_w, kpi.compliance_p
    rho_fcfs = _fcfs_boundary_rho(kpi, mu, tol.eps_root)
    lam1s = np.arange(resolution, mu, resolution)

    if kpi.class_index == 1:
        lower, upper = [], []
        for lam1 in lam1s:
            lam2_lo = rho_fcfs * mu - lam1
            if lam2_lo > 0:
                lower.append((lam1, lam2_lo))
            # upper: strict priority exactly fails; closed form in rho
            rho_up = (1.0 - p) * math.exp((mu - lam1) * w)
            lam2_up = min(rho_up * mu - lam1, mu - lam1 - 1e-9)
            if lam2_up > 0:
                upper.append((lam1, lam2_up))
        return FeasibleRegion(kpi=kpi, lower_boundary=_pairs(lower), upper_boundary=_pairs(upper))

    # lower: strict priority exactly meets; CDF decreasing in lambda2.  The
    # crossing lies strictly below the FCFS frontier (NPQ treats class-2
    # worse).  The bracket ends 0.05 mu past that frontier, so a lambda1 up
    # to 0.05 mu beyond rho_fcfs mu still gets a row, which fails at its
    # lower end (frontier 0); the cap binds only where rho_fcfs > 0.945, and
    # then keeps every probe at an occupancy of at most 0.995 and clips a
    # frontier beyond it to the cap.  Strict priority inverts headless
    # weights, so neither bounds the cost of a probe
    rho_probe_cap = 0.995
    hi_l2 = min(rho_probe_cap * mu, rho_fcfs * mu + 0.05 * mu) - lam1s - 1e-9
    lam1s, hi_l2 = lam1s[hi_l2 > 0], hi_l2[hi_l2 > 0]
    n = len(lam1s)
    state = _Rows(n, tol)

    def residual(lam2, rr):
        values, slopes = _npq_probe(lam1s[rr], lam2, mu, kpi, state, rr)
        return p - values, -slopes

    def search(rows):
        return _newton_rows(residual, rows, np.full(n, 1e-9), hi_l2, 1e-4, ties_lo=True)

    lo, hi, _, at_lo, at_hi = _first_failure(lambda: search(np.arange(n)),
                                             lambda r: search(np.array([r])), n)
    lower = 0.5 * (lo + hi)
    lower[at_lo] = 0.0  # fails even with a trace of class-2 load
    lower[at_hi] = hi_l2[at_hi]
    return FeasibleRegion(
        kpi=kpi,
        lower_boundary=np.column_stack([lam1s, lower]),
        upper_boundary=_pairs([(l1, l2) for l1, l2 in zip(lam1s, rho_fcfs * mu - lam1s) if l2 > 0]),
        inversion_calls=state.calls,
        rows_inverted=state.rows_inverted,
        error_estimate=float(state.worst.max(initial=0.0)),
    )


# --------------------------------------------------------------------------
# delay sweeps
# --------------------------------------------------------------------------

def policy_sweep(
    config: QueueConfig,
    kpi: Kpi,
    d_values: Sequence[float],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> PolicySweep:
    """Optimal-b search across delay levels.

    The searches of all delays run in lockstep (see the module notes);
    when some fail, the error of the first delay in ``d_values`` that fails
    alone is raised (``core._first_failure``, a single search being the
    one-row ``_b_star_class*_rows``), and no delays give an empty sweep.
    Each point carries both means at its b*, so the trend along (d, b*(d))
    is read off the points.  For class-1 KPIs the class-2 mean
    is the same at every interior b*, by conservation (see
    ``_b_star_class1_rows``); for class-2 KPIs the class-1 mean rises with
    d for some KPIs and falls for others (``demos/zero_delay_map.py``).
    Returns a ``PolicySweep``: the points, with the sweep's inversion and
    chain counts.
    """
    configs = [config.replace(d=float(d)) for d in d_values]
    if not configs:
        return PolicySweep()
    rows = _b_star_class1_rows if kpi.class_index == 1 else _b_star_class2_rows
    return _first_failure(lambda: rows(configs, kpi, tol),
                          lambda r: rows(configs[r : r + 1], kpi, tol), len(configs))
