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
Each probe is one batched inversion over the rows still searching
(``transforms._invert_over_delay_rows``), which also inverts the CDF's
derivative in the searched parameter.  One function owns the bracket
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
ahead-set chain (``mean_wait._b_free_rows``).  Each row's inversions are
gated on their own error bound; a row that fails retires and the others go
on, and the search then raises the error of the first failed row, the one
a row-by-row loop would have raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import approx, mean_wait, transforms
from .core import (
    DEFAULT_TOL,
    DapqError,
    Kpi,
    MonotonicityViolation,
    OutOfRange,
    QueueConfig,
    ToleranceConfig,
    UnstableSystem,
    _check_count,
    _class1_mean_from_class2,
    _conservation_rhs,
    validate,
)


@dataclass(frozen=True)
class PolicyPoint:
    """Result of one accumulation-rate search at a fixed delay.

    ``error_estimate`` is the largest certified inversion error (Euler
    estimate plus exp(-A)) over the search's probes: 0 for a class-1
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
    ``error_estimate`` the largest certified inversion error among them.
    """

    kpi: Kpi
    lower_boundary: np.ndarray
    upper_boundary: np.ndarray
    inversion_calls: int = 0
    rows_inverted: int = 0
    error_estimate: float = 0.0


# --------------------------------------------------------------------------
# lockstep rows
# --------------------------------------------------------------------------

class _Rows:
    """Outcome bookkeeping of a lockstep search over n rows.

    A row that hits a DapqError keeps its first one and retires; the other
    rows go on.  ``raise_first`` raises the error of the lowest failed row:
    for a region the lowest lambda1, for a sweep the first delay in the
    order given.  ``worst`` holds each row's largest certified inversion
    error, ``probes`` each row's constraint evaluations, ``widths`` each
    row's ``PolicyPoint.root_width``, ``calls`` and ``rows_inverted`` the
    batched inversions, counted by ``inverted``, and ``chain_runs`` and
    ``chain_steps`` the runs of the ahead-set chain.
    """

    def __init__(self, n: int, tol: ToleranceConfig):
        self.tol = tol
        self.errors = {}
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
        """(rates, means, weights) of ``mean_wait._b_free_rows``, failures and chain run kept."""
        rates, means, weights, steps = mean_wait._b_free_rows(configs, self.tol, heads)
        for r, mean in enumerate(means):
            if isinstance(mean, DapqError):
                self.fail(r, mean)
        if steps is not None:
            self.chain_runs += 1
            self.chain_steps += steps
        return rates, means, weights

    def fail(self, row, exc: DapqError) -> None:
        self.errors.setdefault(int(row), exc)

    def alive(self, rows) -> np.ndarray:
        return np.array([r for r in rows if r not in self.errors], dtype=int)

    def certify(self, rows: np.ndarray, raw: np.ndarray, worst: np.ndarray):
        """Gate one batch of CDF values row by row (``transforms._accuracy_gate``).

        ``worst`` is each row's largest Euler estimate; a row that fails the
        gate fails with its AccuracyNotMet.  Returns the values clipped to
        [0, 1] and the mask of rows that passed.
        """
        error, ok, failures = transforms._accuracy_gate(worst, self.tol)
        for r, exc in zip(rows[~ok], failures):
            self.fail(r, exc)
        self.worst[rows[ok]] = np.maximum(self.worst[rows[ok]], error[ok])
        return np.clip(raw, 0.0, 1.0), ok

    def raise_first(self) -> None:
        if self.errors:
            raise self.errors[min(self.errors)]


# probes a Newton search may take beyond bisection's worst case
_NEWTON_N0 = 3


def _newton_rows(probe, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray, eps: float,
                 ties_lo: bool):
    """Safeguarded Newton search of [lo[r], hi[r]] for every row r in ``rows``, in lockstep.

    The residual increases.  ``probe(x, rows)`` evaluates the active rows
    (never none) at one point each and returns (residuals, slopes, ok),
    ``ok`` False for rows whose probe failed, which retire.  A negative
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
            values, _, ok = probe(end[rows], rows)
            f_end[rows[ok]] = values[ok]
            rows = rows[ok]
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
        values, slopes, ok = probe(x, rows)
        rows, x, values, slopes = rows[ok], x[ok], values[ok], slopes[ok]
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

class _Class2Rows:
    """The class-2 CDF at the KPI's target wait for configs that differ only in d.

    Per row it keeps the busy weights and the mean function
    (``mean_wait._b_free_rows``), and the strict-priority F(d): it is
    b-free, so it is inverted once, for all rows together
    (``transforms._npq_cdf_rows``).  ``probe(b, rows)`` then costs one
    batched inversion of the rows' over-delay transforms.  Rows with
    w <= d have a b-free constraint, F(w) under strict priority: ``free``
    lists them and ``free_values`` holds their uncertified values,
    inverted with F(d) as the two points of one row, as
    ``transforms.class2_cdf_dapq`` inverts them, which counts as the one
    probe of such a row.  Every inversion is counted in the state.
    """

    def __init__(self, configs: Sequence[QueueConfig], kpi: Kpi, state: _Rows):
        tol = state.tol
        n = len(configs)
        self.state = state
        self.rates, self.means, self.weights = state.b_free(configs, heads=True)
        self.w = w = kpi.target_w
        self.ds = ds = np.array([cfg.d for cfg in configs], dtype=float)
        for r in state.alive(range(n)):  # a d, w - d or w too small to invert fails its row
            if error := transforms._abscissa_error(np.array([ds[r], w - ds[r], w]), tol):
                state.fail(r, error)
        live = state.alive(range(n))
        self.f_at_d = np.zeros(n)
        self.fixed_est = np.zeros(n)  # each row's b-free Euler estimate
        self.free = live[self.w <= self.ds[live]]
        self.dep = live[self.w > self.ds[live]]
        self.free_values = np.zeros(0)
        if not live.size:
            return
        self.lambda1, self.mu = configs[live[0]].lambda1, configs[live[0]].mu
        rho = self.rates[live[0]].rho
        self.f_at_d[:] = 1.0 - rho
        delayed = self.dep[self.ds[self.dep] > 0]
        if delayed.size:
            state.inverted(len(delayed))
            vals, est = transforms._npq_cdf_rows(
                self.ds[delayed][:, None], self.lambda1, rho, self.mu, tol)
            self.f_at_d[delayed] = vals[:, 0]
            self.fixed_est[delayed] = est[:, 0]
        if self.free.size:
            state.inverted(len(self.free))
            state.probes[self.free] += 1
            vals, est = transforms._npq_cdf_rows(
                np.column_stack([np.full(len(self.free), self.w), self.ds[self.free]]),
                self.lambda1, rho, self.mu, tol)
            self.free_values = vals[:, 0]
            self.fixed_est[self.free] = np.max(est, axis=1)

    def probe(self, b: np.ndarray, rows: np.ndarray):
        """Certified F(w) at rate b[i] for each row i, all with w > d.

        Returns (values, slopes, ok), ``slopes`` dF/db = -lambda1 dF/da
        (NaN where unresolved) from the same inversion
        (``transforms._invert_over_delay_rows``).
        """
        self.state.inverted(len(rows))
        self.state.probes[rows] += 1
        vals, est, dfda = transforms._invert_over_delay_rows(
            (self.w - self.ds[rows])[:, None],
            self.lambda1 * (1.0 - b),
            self.mu,
            [self.weights[r] for r in rows],
            self.state.tol,
            slope=True,
        )
        worst = np.maximum(self.fixed_est[rows], est[:, 0])
        values, ok = self.state.certify(rows, self.f_at_d[rows] + vals[:, 0], worst)
        return values, -self.lambda1 * dfda[:, 0], ok


def _npq_probe(lam1: np.ndarray, lam2, mu: float, kpi: Kpi, state: _Rows, rows: np.ndarray):
    """Strict priority's certified class-2 F(w) at (lam1[i], lam2[i]) for each row.

    One batched inversion at the target wait (``transforms._npq_cdf_rows``),
    counted in ``state``, after ``transforms._abscissa_error`` has refused
    a w too small to invert.  Returns (values, slopes, ok) per row,
    ``slopes`` dF/dlambda2 = dF/drho / mu from the same inversion.
    """
    if error := transforms._abscissa_error(np.array([kpi.target_w]), state.tol):
        raise error
    state.inverted(len(rows))
    vals, est, dfdrho = transforms._npq_cdf_rows(
        np.full((len(rows), 1), kpi.target_w), lam1, lam1 / mu + lam2 / mu, mu, state.tol,
        slope=True)
    values, ok = state.certify(rows, vals[:, 0], est[:, 0])
    return values, dfdrho[:, 0] / mu, ok


# --------------------------------------------------------------------------
# optimal accumulation rates
# --------------------------------------------------------------------------

def _points(configs, outcome: dict, rates, means, state: _Rows) -> PolicySweep:
    """Each row's PolicyPoint at its (b, feasible) outcome; raises the first failed row's error.

    ``rates[r]`` and ``means[r]`` are the row's rates and class-2 mean as a
    function of b (``mean_wait._b_free_rows``); the class-1 mean follows from
    conservation, as in ``mean_wait.dapq_means``.
    """
    points = []
    for r, cfg in enumerate(configs):
        if r in state.errors:
            continue
        b, feasible = outcome[r]
        try:
            w2 = means[r](b)
            w1 = _class1_mean_from_class2(cfg, rates[r], w2)
        except DapqError as exc:
            state.fail(r, exc)
            continue
        points.append(PolicyPoint(d=cfg.d, b_star=b, mean_w1=float(w1), mean_w2=float(w2),
                                  feasible=feasible, error_estimate=float(state.worst[r]),
                                  probes=int(state.probes[r]),
                                  root_width=float(state.widths[r])))
    state.raise_first()
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
    rows = _Class2Rows(configs, kpi, state)
    outcome = {}
    values, ok = state.certify(rows.free, rows.free_values, rows.fixed_est[rows.free])
    for r, v in zip(rows.free[ok], values[ok]):
        outcome[r] = (0.0, True) if v >= p else (1.0, False)

    def residual(b, rr):
        values, slopes, ok = rows.probe(b, rr)
        return values - p, slopes, ok

    _, hi, slope, at_lo, at_hi = _newton_rows(residual, rows.dep, np.zeros(n), np.ones(n),
                                              tol.eps_root, ties_lo=False)
    for r in state.alive(rows.dep):
        if r in at_lo:
            outcome[r] = (0.0, True)
        elif r in at_hi:
            outcome[r] = (1.0, False)
        else:
            outcome[r] = (float(hi[r]), True)
            state.widths[r] = state.worst[r] / slope[r] if slope[r] > 0.0 else math.inf
    return _points(configs, outcome, rows.rates, rows.means, state)


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
    above thr: the search then steps down in gaps of an ulp, two, ... until
    it meets thr (b = 0 does), else up in gaps of eps_root, two, ... until
    it does not (b = 1 does not), and bisects the last gap to eps_root, wider
    where the mean is flat in b to its rounding: b* meets thr within
    eps_root below a rate that does not.  At every interior b* the class-2
    mean is m2* to roundoff, which depends on no delay: this is the trend a
    class-1 sweep shows.
    """
    if kpi.class_index != 1:
        raise OutOfRange("b_star_class1 requires a class-1 KPI")
    n = len(configs)
    state = _Rows(n, tol)
    rates, means, _ = state.b_free(configs, heads=False)
    outcome = {}
    for r in state.alive(range(n)):
        cfg, rt, mean_w2 = configs[r], rates[r], means[r]

        def mean1(b):
            state.probes[r] += 1
            return _class1_mean_from_class2(cfg, rt, mean_w2(b))

        try:
            threshold = approx.kpi_mean_threshold(rt.rho, kpi)
            if math.isinf(threshold):  # approx.ALWAYS_SATISFIED
                outcome[r] = (1.0, True)
            elif mean1(0.0) > threshold:
                outcome[r] = (0.0, False)
            elif mean1(1.0) <= threshold:
                outcome[r] = (1.0, True)
            else:
                rhs = _conservation_rhs(cfg, rt)
                b = above = mean_w2.rate_for((rhs - rt.rho1 * threshold) / rt.rho2)
                gap = math.ulp(b)
                while mean1(b) > threshold:
                    above, b, gap = b, max(0.0, b - gap), 2.0 * gap
                gap = max(tol.eps_root, gap)  # if the rate met thr, step up: b = 1 does not
                while above == b and mean1(above := min(1.0, b + gap)) <= threshold:
                    b, gap = above, 2.0 * gap
                while b + tol.eps_root < above and b < (mid := 0.5 * (b + above)) < above:
                    b, above = (mid, above) if mean1(mid) <= threshold else (b, mid)
                outcome[r] = (b, True)
                # conservation: m1' = -(rho2 / rho1) m2', and a rounding of m1 is eps rhs / rho1
                slope1 = abs(rt.rho2 * mean_w2.slope(b))
                rounding = np.finfo(float).eps * rhs
                state.widths[r] = rounding / slope1 if slope1 > 0.0 else math.inf
        except DapqError as exc:
            state.fail(r, exc)
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
        validate(QueueConfig(lambda1=lam1, lambda2=lam2, mu=mu))
    except UnstableSystem:
        return False
    rho = (lam1 + lam2) / mu
    if rho >= 1.0:
        return False
    w, p = kpi.target_w, kpi.compliance_p
    if discipline == "fcfs":
        return approx.ZExp(rho, mu * (1.0 - rho)).cdf(w) >= p
    if kpi.class_index == 1:
        return approx.ZExp(rho, mu - lam1).cdf(w) >= p
    state = _Rows(1, tol)
    values, *_ = _npq_probe(np.array([lam1]), np.array([lam2]), mu, kpi, state, np.arange(1))
    state.raise_first()
    return bool(values[0] >= p)


def in_tuning_region(
    lam1: float, lam2: float, mu: float, kpi: Kpi, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """True when the KPI needs (d, b) tuning: favorable extreme fails to
    dominate, unfavorable extreme still has room.  False for an unstable
    pair, where neither extreme meets the KPI."""
    if kpi.class_index == 2:
        return meets_extreme(lam1, lam2, mu, kpi, "fcfs", tol) and not meets_extreme(
            lam1, lam2, mu, kpi, "npq", tol
        )
    return meets_extreme(lam1, lam2, mu, kpi, "npq", tol) and not meets_extreme(
        lam1, lam2, mu, kpi, "fcfs", tol
    )


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
    the bisection midpoint.  When rows fail, the error of
    the lowest lambda1 is raised.  A resolution that would give more than
    ``core._MAX_VALUES`` lambda1 values raises OutOfRange.
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
    # worse), which keeps the probed occupancies moderate; probes stay below
    # the cap and frontiers beyond it are clipped (the transform state space
    # grows like log(eps)/log(rho))
    rho_probe_cap = 0.995
    hi_l2 = min(rho_probe_cap * mu, rho_fcfs * mu + 0.05 * mu) - lam1s - 1e-9
    lam1s, hi_l2 = lam1s[hi_l2 > 0], hi_l2[hi_l2 > 0]
    n = len(lam1s)
    state = _Rows(n, tol)

    def residual(lam2, rr):
        values, slopes, ok = _npq_probe(lam1s[rr], lam2, mu, kpi, state, rr)
        return p - values, -slopes, ok

    lo, hi, _, at_lo, at_hi = _newton_rows(residual, np.arange(n), np.full(n, 1e-9), hi_l2,
                                           1e-4, ties_lo=True)
    lower = 0.5 * (lo + hi)
    lower[at_lo] = 0.0  # fails even with a trace of class-2 load
    lower[at_hi] = hi_l2[at_hi]
    state.raise_first()
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
    """Optimal-b search across delay levels, with trend verification.

    The searches of all delays run in lockstep (see the module notes); when
    several fail, the error of the first delay in ``d_values`` is raised.
    For class-2 KPIs the class-1 mean must be nondecreasing along
    (d, b*(d)), and a violation raises MonotonicityViolation since
    downstream conclusions rest on that trend.  For class-1 KPIs the
    class-2 mean is the same at every interior b*, by conservation (see
    ``_b_star_class1_rows``), so there is nothing to check.  Returns a
    ``PolicySweep``: the points, with the sweep's inversion and chain
    counts.
    """
    configs = [config.replace(d=float(d)) for d in d_values]
    if kpi.class_index == 1:
        return _b_star_class1_rows(configs, kpi, tol)
    points = _b_star_class2_rows(configs, kpi, tol)
    w1s = [pt.mean_w1 for pt in points if pt.feasible]
    if any(b - a < -1e-6 for a, b in zip(w1s, w1s[1:])):
        raise MonotonicityViolation(
            f"class-1 mean not nondecreasing along the sweep: {w1s}"
        )
    return points
