import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import (
    _check_monotone_per_b,
    b_star_class1_per_b,
    b_star_class2_bracket_by_probes,
    b_star_class2_per_b,
    class1_crossing_by_bisection,
    class1_mean_per_b,
    class2_cdf_per_b,
    class2_mean_in_b,
    conservation_rhs,
    feasible_region_by_probes,
    itp_bracket,
    itp_rows,
    npq_cdf_by_probe,
    npq_meets_by_probe,
    policy_sweep_by_delay,
)
from dapq import kpi, markov, mean_wait, transforms
from dapq.approx import kpi_mean_threshold
from dapq.core import (
    DEFAULT_TOL,
    AccuracyNotMet,
    DapqError,
    InvalidDelay,
    Kpi,
    OutOfRange,
    QueueConfig,
    ServiceKind,
    ToleranceConfig,
    TruncationOverflow,
    validate,
)
from dapq.kpi import (
    PolicyPoint,
    b_star_class1,
    b_star_class2,
    feasible_region,
    in_tuning_region,
    meets_extreme,
    policy_sweep,
)
from dapq.markov import _jump_cuts, busy_state_distribution
from dapq.mean_wait import dapq_means, md1_dapq_class2_mean, mm1_dapq_class2_mean
from dapq.transforms import class2_cdf_dapq

KPI2 = Kpi(4.0, 0.85, 2)
KPI1 = Kpi(2.0, 0.9, 1)


def test_b_star_class2_left_of_region_is_zero():
    # light occupancy: strict priority already complies
    cfg = QueueConfig(0.1, 0.2, 1.0, d=2.0)
    pt = b_star_class2(cfg, KPI2)
    assert pt.feasible and pt.b_star == 0.0
    assert pt.mean_w1 == pytest.approx(dapq_means(cfg.replace(b=0.0)).mean_w1)


def test_b_star_class2_right_of_region_infeasible():
    # heavy occupancy: even full accumulation cannot rescue the target
    cfg = QueueConfig(0.4, 0.4, 1.0, d=1.0)
    pt = b_star_class2(cfg, KPI2)
    assert not pt.feasible


def test_b_star_class2_interior_bisection():
    cfg = QueueConfig(0.4, 0.18, 1.0, d=0.0)
    assert in_tuning_region(0.4, 0.18, 1.0, KPI2)
    pt = b_star_class2(cfg, KPI2)
    assert pt.feasible and 0.0 < pt.b_star < 1.0
    # the smallest compliant b sits exactly on the constraint
    from dapq.transforms import class2_cdf_dapq

    at = class2_cdf_dapq(cfg.replace(b=pt.b_star), np.array([KPI2.target_w])).values[0]
    below = class2_cdf_dapq(
        cfg.replace(b=max(0.0, pt.b_star - 1e-4)), np.array([KPI2.target_w])
    ).values[0]
    assert at >= KPI2.compliance_p - 1e-7
    assert below < KPI2.compliance_p


def test_b_star_class2_nondecreasing_in_d():
    cfg = QueueConfig(0.4, 0.18, 1.0)
    bs = [b_star_class2(cfg.replace(d=float(d)), KPI2).b_star for d in range(0, 4)]
    assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(bs, bs[1:]))


def test_b_star_class2_wrong_class_rejected():
    with pytest.raises(OutOfRange):
        b_star_class2(QueueConfig(0.4, 0.2, 1.0), KPI1)


def test_b_star_class1_always_satisfied_shortcut():
    # compliance below the zero-wait atom: any parameters comply
    cfg = QueueConfig(0.2, 0.2, 1.0, d=1.0)
    pt = b_star_class1(cfg, Kpi(2.0, 0.3, 1))
    assert pt.feasible and pt.b_star == 1.0


def test_b_star_class1_infeasible_even_at_npq():
    cfg = QueueConfig(0.5, 0.3, 1.0, d=0.0)
    thr = kpi_mean_threshold(0.8, KPI1)
    assert dapq_means(cfg.replace(b=0.0)).mean_w1 > thr
    pt = b_star_class1(cfg, KPI1)
    assert not pt.feasible and pt.b_star == 0.0


def test_b_star_class1_interior_hits_threshold():
    cfg = QueueConfig(0.05, 0.60, 1.0, d=2.0)
    thr = kpi_mean_threshold(0.65, KPI1)
    pt = b_star_class1(cfg, KPI1)
    assert pt.feasible and 0.0 < pt.b_star < 1.0
    assert pt.mean_w1 == pytest.approx(thr, abs=1e-8)


def test_policy_sweep_class2_trends():
    cfg = QueueConfig(0.4, 0.18, 1.0)
    points = policy_sweep(cfg, KPI2, [0.0, 1.0, 2.0])
    feas = [pt for pt in points if pt.feasible]
    assert len(feas) >= 2
    w1s = [pt.mean_w1 for pt in feas]
    assert w1s[0] == min(w1s)  # no delay is never worse for class-1
    bs = [pt.b_star for pt in feas]
    assert all(b2 >= b1 for b1, b2 in zip(bs, bs[1:]))


def test_policy_sweep_class2_returns_a_falling_trend():
    # zero delay is not best for every class-2 KPI: here b* rises so little
    # with d that the class-1 mean falls, and each point is still correct
    cfg, target = QueueConfig(0.1875, 0.1875, 1.0), Kpi(4.0, 0.9594641726526383, 2)
    ds = [0.0, 1.0]
    points = policy_sweep(cfg, target, ds)
    assert all(pt.feasible for pt in points)
    assert [pt.b_star for pt in points] == pytest.approx([0.5, 0.8111769744], abs=5e-11)
    assert [pt.mean_w1 for pt in points] == pytest.approx([0.5379310345, 0.5333627512], abs=5e-11)
    for pt, ref in zip(points, policy_sweep_by_delay(cfg, target, ds, bisect=True)):
        assert abs(pt.b_star - ref.b_star) <= DEFAULT_TOL.eps_root


def test_policy_sweep_class1_constant_class2_mean():
    cfg = QueueConfig(0.05, 0.60, 1.0)
    points = policy_sweep(cfg, KPI1, [0.0, 1.0, 2.0, 4.0])
    interior = [pt for pt in points if pt.feasible and 0 < pt.b_star < 1]
    assert len(interior) >= 3
    w2s = [pt.mean_w2 for pt in interior]
    assert max(w2s) - min(w2s) < 1e-4
    thr = kpi_mean_threshold(0.65, KPI1)
    for pt in interior:
        assert pt.mean_w1 == pytest.approx(thr, abs=1e-7)


def test_policy_sweep_single_point_consistency():
    cfg = QueueConfig(0.4, 0.18, 1.0)
    direct = b_star_class2(cfg.replace(d=1.0), KPI2)
    swept = policy_sweep(cfg, KPI2, [1.0])[0]
    assert swept == direct


@pytest.mark.parametrize("target", [KPI1, KPI2])
def test_an_empty_sweep_is_an_empty_list(target):
    sweep = policy_sweep(QueueConfig(0.4, 0.18, 1.0), target, [])
    assert sweep == [] and (sweep.inversion_calls, sweep.chain_runs) == (0, 0)


def test_feasible_region_fcfs_boundary_constant_occupancy():
    region = feasible_region(KPI2, mu=1.0, resolution=0.1)
    ups = region.upper_boundary
    rhos = ups[:, 0] + ups[:, 1]
    assert np.max(np.abs(rhos - rhos[0])) < 1e-9
    rho = rhos[0]
    # the boundary occupancy solves the FCFS compliance equation exactly
    assert 1 - rho * math.exp(-(1 - rho) * KPI2.target_w) == pytest.approx(
        KPI2.compliance_p, abs=1e-7
    )


def test_feasible_region_boundaries_are_monotone_frontiers():
    for kpi in (KPI2, KPI1):
        region = feasible_region(kpi, mu=1.0, resolution=0.05)
        for boundary in (region.lower_boundary, region.upper_boundary):
            lam2 = boundary[:, 1]
            assert np.all(np.diff(lam2) <= 1e-9)


def test_feasible_region_class1_roles_reversed():
    # for a class-1 target the FCFS frontier is the *lower* boundary
    region = feasible_region(KPI1, mu=1.0, resolution=0.05)
    lows = dict(np.round(region.lower_boundary, 6))
    ups = dict(np.round(region.upper_boundary, 6))
    common = sorted(set(lows) & set(ups))
    assert common
    for l1 in common:
        assert lows[l1] < ups[l1]
    # NPQ upper boundary is the closed-form exponential frontier
    l1 = common[0]
    want = (1 - KPI1.compliance_p) * math.exp((1.0 - l1) * KPI1.target_w) - l1
    assert ups[l1] == pytest.approx(min(want, 1.0 - l1 - 1e-9), rel=1e-6)


def test_region_collapses_as_p_vanishes():
    # as the compliance bar drops, strict priority suffices at any sane
    # occupancy and the tuning band retreats into the saturation corner
    pts = [
        (l1, l2)
        for l1 in np.arange(0.05, 0.95, 0.1)
        for l2 in np.arange(0.05, 0.95, 0.1)
        if l1 + l2 < 0.95
    ]
    frac_tight = np.mean([in_tuning_region(l1, l2, 1.0, KPI2) for l1, l2 in pts])
    frac_loose = np.mean([in_tuning_region(l1, l2, 1.0, Kpi(4.0, 0.01, 2)) for l1, l2 in pts])
    assert frac_tight > 0.0
    assert frac_loose == 0.0


def test_membership_spot_checks():
    region = feasible_region(KPI2, mu=1.0, resolution=0.05)
    lows = {round(float(l1), 6): l2 for l1, l2 in region.lower_boundary}
    ups = {round(float(l1), 6): l2 for l1, l2 in region.upper_boundary}
    rng = np.random.default_rng(99)
    checked = 0
    for l1 in sorted(set(lows) & set(ups)):
        lo, up = lows[l1], ups[l1]
        if up <= lo + 1e-3:
            continue
        if lo > 0.05:  # a boundary at zero has no "below" side
            below = lo - rng.uniform(0.02, min(0.1, lo - 1e-3))
            assert meets_extreme(l1, below, 1.0, KPI2, "npq")
        above = up + rng.uniform(0.02, 0.1)
        if l1 + above < 1.0:
            assert not meets_extreme(l1, above, 1.0, KPI2, "fcfs")
        mid = 0.5 * (lo + up)
        assert in_tuning_region(l1, mid, 1.0, KPI2)
        checked += 1
    assert checked >= 4


def _outcome(search, cfg, kpi):
    """A search's PolicyPoint, or the type and text of the error it raised."""
    try:
        return search(cfg, kpi)
    except DapqError as exc:
        return type(exc), str(exc)


def _class1_outcomes_match(cfg, target, got, want):
    """Class-1 search outcomes against the ITP oracle's ``want``: a point, a
    list of points at the delays of a sweep of ``cfg``, or an error's type
    and text, which must be equal.  A point whose b* is 0 or 1 or whose KPI
    is infeasible must equal the oracle's.  At an interior b* (feasible and
    below 1) the closed form's rate must meet the threshold, lie within
    1e-13 of the crossing found by bisection to float resolution, tighter
    than the oracle's eps_root, and carry the means of ``dapq_means`` at b*
    bit for bit.  Where the class-1 mean is so flat in b that rounding
    blurs the crossing over more than 1e-13, the mean at b* must instead
    be within four rounding errors of the mean at the bisection's crossing,
    one rounding error being eps * rhs / rho1, that of a mean from
    conservation: there floats cannot tell the two rates apart more
    finely."""
    if isinstance(got, tuple) or isinstance(want, tuple):
        assert got == want
        return
    if isinstance(want, PolicyPoint):
        got, want = [got], [want]
    assert len(got) == len(want)
    for pt, ref in zip(got, want):
        assert (pt.d, pt.feasible, pt.b_star < 1.0) == (ref.d, ref.feasible, ref.b_star < 1.0)
        if not (ref.feasible and ref.b_star < 1.0):
            assert pt == ref and pt.error_estimate == ref.error_estimate == 0.0
            continue
        at = cfg.replace(d=pt.d)
        threshold = kpi_mean_threshold(validate(at).rho, target)
        mean1 = class1_mean_per_b(at)
        assert mean1(pt.b_star) <= threshold
        crossing = class1_crossing_by_bisection(at, target)
        rounding = np.finfo(float).eps * conservation_rhs(at) * at.mu / at.lambda1
        assert (abs(pt.b_star - crossing) <= 1e-13
                or abs(mean1(pt.b_star) - mean1(crossing)) <= 4.0 * rounding)
        means = dapq_means(at.replace(b=pt.b_star))
        assert (pt.mean_w1, pt.mean_w2) == (means.mean_w1, means.mean_w2)


def _class2_outcomes_match(cfg, target, got, want):
    """Class-2 search outcomes against the ITP oracle's ``want``: a point, a
    list of points at the delays of a sweep of ``cfg``, or an error's type
    and text, which must be equal.  Each point must have the oracle's delay
    and outcome (b* = 0, interior, or b* = 1 infeasible), and a point whose
    b* is 0 or 1 must equal the oracle's, with its error estimate where the
    oracle carries one.  An interior b* must meet the KPI and lie at the oracle's crossing
    (``_class2_crossing_matches``), and carry the means of ``dapq_means`` at
    b* bit for bit."""
    if isinstance(got, tuple) or isinstance(want, tuple):
        assert got == want
        return
    if isinstance(want, PolicyPoint):
        got, want = [got], [want]
    assert len(got) == len(want)
    for pt, ref in zip(got, want):
        interior = pt.feasible and 0.0 < pt.b_star < 1.0
        assert (pt.d, pt.feasible, interior) == (ref.d, ref.feasible,
                                                 ref.feasible and 0.0 < ref.b_star < 1.0)
        if not interior:
            assert pt == ref
            assert pt.error_estimate == ref.error_estimate or ref.error_estimate == 0.0
            continue
        at = cfg.replace(d=pt.d)
        _class2_crossing_matches(at, target, pt.b_star, ref.b_star)
        means = dapq_means(at.replace(b=pt.b_star))
        assert (pt.mean_w1, pt.mean_w2) == (means.mean_w1, means.mean_w2)


def _class2_crossing_matches(config, target, b_star, ref, bisect=False):
    """An interior class-2 b* against the ITP oracle's ``ref``, or with
    ``bisect`` the bisection oracle's: F(w) from scratch (``class2_cdf_dapq``)
    meets the KPI at b*, and b* lies within eps_root of ``ref``.

    Each search ends with a bracket at most eps_root wide whose lower end
    has F < p and whose upper end, b*, has F >= p.  Where F is
    nondecreasing between two such brackets, they lie within eps_root of
    each other.  Farther apart, the check asks for the proof that F is not:
    the higher search's lower end lies above the lower b*, F is below p
    there and at least p at the lower b*.  That happens where F's roundoff
    exceeds dF/db times eps_root: a drawn config with dF/db = 1.7e-5 put
    the two searches 1.2e-10 apart."""
    cdf = class2_cdf_per_b(config, target.target_w)
    p = target.compliance_p
    assert cdf(b_star) >= p
    if abs(b_star - ref) <= DEFAULT_TOL.eps_root:
        return
    if b_star > ref:
        above = _newton_bracket(config, target)[0]
    else:
        above = b_star_class2_bracket_by_probes(config, target, bisect=bisect)[0]
    below = min(b_star, ref)
    assert below < above and cdf(below) >= p > cdf(above)


def _class1_crossing_matches(config, target, b_star, ref):
    """An interior class-1 b* against the bisection oracle's ``ref``: the
    class-1 mean from scratch (``class1_mean_per_b``) meets the threshold
    at b*, and b* lies within eps_root of ``ref``.

    Farther apart, the check asks for the proof that floats cannot order
    the two: ``ref`` meets the threshold too, and some b strictly between
    them exceeds it, here the closed-form rate of ``rate_for``.  That can
    happen only where the class-1 mean is not monotone in b to its
    rounding."""
    mean1 = class1_mean_per_b(config)
    rates = validate(config)
    threshold = kpi_mean_threshold(rates.rho, target)
    assert mean1(b_star) <= threshold
    if abs(b_star - ref) <= DEFAULT_TOL.eps_root:
        return
    assert mean1(ref) <= threshold
    lo, hi = sorted((b_star, ref))
    rate = class2_mean_in_b(config).rate_for(
        (conservation_rhs(config) - rates.rho1 * threshold) / rates.rho2)
    assert lo < rate < hi and mean1(rate) > threshold


def _newton_bracket(config, target):
    """The final bracket (lo, hi) of ``b_star_class2``'s Newton search."""
    newton, brackets = kpi._newton_rows, []

    def recorded(*args, **kwargs):
        brackets.append(newton(*args, **kwargs))
        return brackets[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kpi, "_newton_rows", recorded)
        b_star_class2(config, target)
    lo, hi, *_ = brackets[0]
    return float(lo[0]), float(hi[0])


def _regions_match(got, want):
    """A lockstep region against the ITP oracle's: the same lambda1 grid and
    upper frontier, and each lower frontier within 1e-4, both being
    midpoints of brackets at most 1e-4 wide around the same crossing."""
    assert np.array_equal(got.upper_boundary, want.upper_boundary)
    assert np.array_equal(got.lower_boundary[:, 0], want.lower_boundary[:, 0])
    assert np.all(np.abs(got.lower_boundary[:, 1] - want.lower_boundary[:, 1]) <= 1e-4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None)
# w = d: F(w) is the b-free strict-priority value, and the oracle's dF/db is 0
# there rather than an inversion of H at u = w - d = 0, which divides by 0
@example(rho=0.5, share=0.5, det=False, ell=1, b_mid=0.5, b=0.0, w=1.0, u=0.5)
@given(
    rho=st.floats(min_value=0.05, max_value=0.99),
    share=st.floats(min_value=0.05, max_value=0.95),
    det=st.booleans(),
    ell=st.sampled_from([0, 1, 2, 5]),
    b_mid=st.floats(min_value=0.02, max_value=0.98),
    b=st.floats(min_value=0.0, max_value=1.0),
    w=st.floats(min_value=0.2, max_value=8.0),
    u=st.floats(min_value=0.05, max_value=0.95),
)
def test_hoisted_b_free_parts_match_per_b_oracles(rho, share, det, ell, b_mid, b, w, u):
    service = ServiceKind.DETERMINISTIC if det else ServiceKind.EXPONENTIAL
    cfg = QueueConfig(share * rho, (1.0 - share) * rho, 1.0, b=b_mid, d=float(ell),
                      service=service)

    # the mean's correction sum, computed at b_mid, prices any other b
    mean_w2 = class2_mean_in_b(cfg)
    mean_w2(b_mid)
    one_shot = md1_dapq_class2_mean if det else mm1_dapq_class2_mean
    assert mean_w2(b) == one_shot(cfg.replace(b=b))

    # a class-1 target whose threshold sits at the class-1 mean at b_mid
    p1 = 1.0 - rho * u
    w1 = class1_mean_per_b(cfg)(b_mid) * math.log(rho / (1.0 - p1)) / rho
    kpi1 = Kpi(w1, p1, 1)
    _class1_outcomes_match(cfg, kpi1, _outcome(b_star_class1, cfg, kpi1),
                           _outcome(b_star_class1_per_b, cfg, kpi1))
    if det:
        return

    # the busy weights are b-free: the config at b_mid gives those of any other b
    here, there = busy_state_distribution(cfg), busy_state_distribution(cfg.replace(b=b))
    assert np.array_equal(here.head, there.head) and here.tail_next == there.tail_next

    # a class-2 target met exactly at b_mid
    p2 = class2_cdf_per_b(cfg, w)(b_mid)
    if 0.0 < p2 < 1.0:
        kpi2 = Kpi(w, p2, 2)
        assert (_outcome(b_star_class2, cfg, kpi2)
                == _outcome(b_star_class2_per_b, cfg, kpi2))


# --------------------------------------------------------------------------
# lockstep searches against the row-by-row oracles
# --------------------------------------------------------------------------

REGION_KPIS = (KPI2, Kpi(2.0, 0.8, 2), Kpi(6.0, 0.95, 2), Kpi(1.0, 0.6, 2),
               Kpi(3.0, 0.9, 2), KPI1)


@pytest.mark.parametrize("resolution", [0.02, 0.05, 0.013])
@pytest.mark.parametrize("target", REGION_KPIS)
def test_lockstep_region_equals_probe_by_probe_region(target, resolution):
    _regions_match(feasible_region(target, resolution=resolution),
                   feasible_region_by_probes(target, resolution=resolution))


@pytest.mark.parametrize("mu,tol", [
    (2.0, DEFAULT_TOL),
    (1.0, ToleranceConfig(eps_series=1e-12, eps_root=1e-12, eps_invert=1e-10)),
    (0.5, ToleranceConfig(eps_invert=1e-6)),
])
def test_lockstep_region_equals_oracle_at_other_rates_and_tolerances(mu, tol):
    for target in (KPI2, Kpi(2.0, 0.8, 2)):
        got = feasible_region(target, mu=mu, resolution=0.04 * mu, tol=tol)
        _regions_match(got, feasible_region_by_probes(target, mu=mu, resolution=0.04 * mu,
                                                      tol=tol))
        assert 0.0 < got.error_estimate <= tol.eps_invert


def test_meets_extreme_npq_is_the_one_row_region_probe():
    rng = np.random.default_rng(5)
    for _ in range(40):
        lam1, lam2 = rng.uniform(0.01, 0.6, size=2)
        target = Kpi(rng.uniform(0.5, 6.0), rng.uniform(0.3, 0.97), 2)
        assert meets_extreme(lam1, lam2, 1.0, target, "npq") == npq_meets_by_probe(
            lam1, lam2, 1.0, target)


@pytest.mark.parametrize("lam1,lam2,mu,unstable", [
    (-0.5, 0.3, 1.0, False), (0.2, -0.3, 1.0, False), (math.nan, 0.3, 1.0, False),
    (0.2, math.inf, 1.0, False), (0.2, 0.3, -1.0, False), (0.2, 0.3, 0.0, False),
    (0.2, 0.3, math.nan, False), (0.2, 0.3, math.inf, False),
    (0.6, 0.4, 1.0, True), (0.9, 0.3, 1.0, True), (0.0, 1.0, 1.0, True),
])
@pytest.mark.parametrize("target", [KPI2, Kpi(2.0, 0.9, 1)])
def test_extremes_reject_rates_that_are_not_rates(lam1, lam2, mu, unstable, target):
    # a rate that is not a rate raises on every branch; a valid but
    # unstable pair meets the KPI under neither extreme
    checks = [lambda: meets_extreme(lam1, lam2, mu, target, "fcfs"),
              lambda: meets_extreme(lam1, lam2, mu, target, "npq"),
              lambda: in_tuning_region(lam1, lam2, mu, target)]
    for check in checks:
        if unstable:
            assert check() is False
        else:
            with pytest.raises(OutOfRange):
                check()


def test_extremes_take_the_occupancy_that_validate_accepts():
    # validate's rho1 + rho2 rounds to 0.9999999999999999 here, where
    # (lam1 + lam2) / mu rounds to 1: the pair is stable, and the FCFS law
    # 1 - rho exp(-mu (1 - rho) w) meets a target of 1e-17
    lam1, lam2, mu = 0.39844271237554857, 0.30155728762445133, 0.7
    assert (lam1 + lam2) / mu == 1.0 and validate(QueueConfig(lam1, lam2, mu)).rho < 1.0
    assert meets_extreme(lam1, lam2, mu, Kpi(1.0, 1e-17, 2), "fcfs")


def _one_row_sweep(cfg, target, ds, tol=DEFAULT_TOL):
    """``policy_sweep`` as one-row class-2 searches (``b_star_class2``), one
    delay after another: the lockstep rows must see the points of their
    searches alone, bit for bit."""
    return policy_sweep_by_delay(cfg, target, ds, tol, search=b_star_class2)


def _sweep_outcome(search, cfg, target, ds):
    """A sweep's points with their error estimates and the probe counts of its
    interior points, or the type and text of its error."""
    try:
        points = search(cfg, target, ds)
    except DapqError as exc:
        return type(exc), str(exc)
    return (points, [pt.error_estimate for pt in points],
            [pt.probes for pt in points if 0.0 < pt.b_star < 1.0])


@settings(max_examples=40, deadline=None)
# F is flat in b to its roundoff here: the Newton and ITP b* lie 1.2e-10 apart
@example(rho=1 / 3, share=0.1, cls=2, det=False, w=0.3, ks=[3], anchor=0, b_mid=0.25, u=None)
# the class-1 mean falls from d = 0 to d = 1 (test_policy_sweep_class2_returns_a_falling_trend)
@example(rho=0.375, share=0.5, cls=2, det=False, w=4.0, ks=[0, 1], anchor=0, b_mid=0.5,
         u=0.9594641726526383)
@given(
    rho=st.floats(min_value=0.3, max_value=0.92),
    share=st.floats(min_value=0.1, max_value=0.9),
    cls=st.sampled_from([1, 2]),
    det=st.booleans(),
    w=st.floats(min_value=0.3, max_value=6.0),
    ks=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6, unique=True),
    anchor=st.integers(min_value=0, max_value=5),
    b_mid=st.floats(min_value=0.05, max_value=0.95),
    u=st.one_of(st.none(), st.floats(min_value=0.02, max_value=0.98)),
)
def test_lockstep_sweep_equals_delay_by_delay_sweep(rho, share, cls, det, w, ks, anchor, b_mid,
                                                    u):
    # delays at multiples of w/4, so a class-2 sweep can hold rows with
    # d >= w, where the constraint is b-free; the target is met exactly at
    # b_mid at one anchor delay (d < w when there is one), which puts an
    # interior b* among b* = 0, b* = 1, infeasible and b-free rows, or it is
    # drawn freely when u is given
    service = ServiceKind.DETERMINISTIC if det and cls == 1 else ServiceKind.EXPONENTIAL
    if service is ServiceKind.DETERMINISTIC:
        d_values = sorted(float(k) for k in ks)
    else:
        d_values = sorted(w * k / 4 for k in ks)
    cfg = QueueConfig(share * rho, (1.0 - share) * rho, 1.0, service=service)
    below_w = [d for d in d_values if d < w] or d_values
    d_anchor = below_w[anchor % len(below_w)]
    if cls == 2:
        p = u if u is not None else class2_cdf_per_b(cfg.replace(d=d_anchor), w)(b_mid)
        if not 0.0 < p < 1.0:
            return
        target = Kpi(w, p, 2)
    elif u is not None:
        target = Kpi(w, u, 1)
    else:
        p1 = 1.0 - 0.5 * rho
        mean1 = class1_mean_per_b(cfg.replace(d=d_anchor))(b_mid)
        target = Kpi(mean1 * math.log(rho / (1.0 - p1)) / rho, p1, 1)
    sweep = lambda search: _outcome(lambda c, k: search(c, k, d_values), cfg, target)
    match = _class1_outcomes_match if cls == 1 else _class2_outcomes_match
    match(cfg, target, sweep(policy_sweep), sweep(policy_sweep_by_delay))
    if cls == 2:
        assert (_sweep_outcome(policy_sweep, cfg, target, d_values)
                == _sweep_outcome(_one_row_sweep, cfg, target, d_values))


def test_sweep_mixes_every_class2_outcome():
    # one sweep with an interior b*, an infeasible delay and a b-free delay
    # (d >= w); and one where strict priority complies at every delay
    cfg = QueueConfig(0.4, 0.18, 1.0)
    ds = [0.0, 1.0, 3.0, 4.0, 6.0]
    points = policy_sweep(cfg, KPI2, ds)
    _class2_outcomes_match(cfg, KPI2, points, policy_sweep_by_delay(cfg, KPI2, ds))
    assert points == _one_row_sweep(cfg, KPI2, ds)
    assert 0.0 < points[0].b_star < 1.0 and not points[-1].feasible
    assert [pt.b_star for pt in policy_sweep(cfg, Kpi(4.0, 0.5, 2), ds)] == [0.0] * len(ds)


def test_sweep_mixes_every_class1_outcome():
    ds = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    outcomes = []
    for cfg, target in ((QueueConfig(0.05, 0.6, 1.0), Kpi(2.5, 0.9, 1)),
                        (QueueConfig(0.1, 0.6, 1.0), KPI1),
                        (QueueConfig(0.2, 0.2, 1.0), Kpi(2.0, 0.3, 1))):
        points = policy_sweep(cfg, target, ds)
        _class1_outcomes_match(cfg, target, points, policy_sweep_by_delay(cfg, target, ds))
        outcomes.append(points)
    interior, npq_fails, atom_complies = outcomes
    # interior b* until b = 1 meets the threshold at long delays
    assert 0.0 < interior[0].b_star < 1.0 and interior[-1].b_star == 1.0
    assert all(pt.feasible for pt in interior)
    # even strict priority fails; the zero-wait atom alone complies
    assert {(pt.b_star, pt.feasible) for pt in npq_fails} == {(0.0, False)}
    assert {(pt.b_star, pt.feasible) for pt in atom_complies} == {(1.0, True)}


@settings(max_examples=40, deadline=None)
@given(
    rho=st.floats(min_value=0.05, max_value=0.95),
    share=st.floats(min_value=0.05, max_value=0.95),
    mu=st.sampled_from([0.7, 3.0]),
    det=st.booleans(),
    ell=st.integers(min_value=0, max_value=20),
    b_mid=st.floats(min_value=0.01, max_value=0.99),
    u=st.floats(min_value=0.05, max_value=0.95),
)
def test_closed_form_class1_rate_meets_the_kpi_at_the_crossing(rho, share, mu, det, ell, b_mid,
                                                              u):
    # a threshold at the class-1 mean at b_mid puts b* inside (0, 1); the
    # delay is ell services (deterministic) or ell time units (exponential)
    service = ServiceKind.DETERMINISTIC if det else ServiceKind.EXPONENTIAL
    cfg = QueueConfig(share * rho * mu, (1.0 - share) * rho * mu, mu,
                      d=ell / mu if det else float(ell), service=service)
    p1 = 1.0 - rho * u
    w1 = class1_mean_per_b(cfg)(b_mid) * math.log(rho / (1.0 - p1)) / rho
    target = Kpi(w1, p1, 1)
    _class1_outcomes_match(cfg, target, _outcome(b_star_class1, cfg, target),
                           _outcome(b_star_class1_per_b, cfg, target))


@pytest.mark.parametrize("rho,share,d,moved", [
    # (b* of the search without the bisection of its last gap) - (crossing)
    (0.3, 0.125, 8.0, -2.2e-9),    # the closed form meets thr: steps up
    (0.3, 0.125, 15.0, -7.0e-4),   # the mean flat over 7e-4 of b
    (0.3125, 0.125, 7.0, -2.3e-10),  # the closed form does not: steps down
    (0.3046875, 0.25, 8.0, -1.5e-10),
])
def test_class1_b_star_lies_within_eps_root_below_the_crossing_where_the_mean_is_flat(
        rho, share, d, moved):
    # where the class-1 mean is flat in b to its rounding, the last step from
    # the closed form can be far wider than eps_root (the search once stopped
    # by ``moved`` from the crossing); bisecting it puts b* within eps_root
    # below the crossing that bisection finds to float resolution
    cfg = QueueConfig(share * rho, (1.0 - share) * rho, 1.0, d=d,
                      service=ServiceKind.DETERMINISTIC)
    p1 = 1.0 - 0.5 * rho
    target = Kpi(class1_mean_per_b(cfg)(0.5) * math.log(rho / (1.0 - p1)) / rho, p1, 1)
    pt = b_star_class1(cfg, target)
    crossing = class1_crossing_by_bisection(cfg, target)
    assert class1_mean_per_b(cfg)(pt.b_star) <= kpi_mean_threshold(validate(cfg).rho, target)
    assert 0.0 <= crossing - pt.b_star <= DEFAULT_TOL.eps_root < abs(moved)


def test_class1_steps_start_at_the_root_width_where_the_mean_is_flat():
    # the class-1 mean is flat over 7e-4 of b here, about the root's width:
    # a first step of that width crosses the flat stretch, where steps
    # doubling from eps_root took 48 probes, more than bisection's 2 + 34
    cfg = QueueConfig(0.0375, 0.2625, 1.0, d=15.0, service=ServiceKind.DETERMINISTIC)
    target = Kpi(class1_mean_per_b(cfg)(0.5) * math.log(0.3 / 0.15) / 0.3, 0.85, 1)
    pt = b_star_class1(cfg, target)
    assert type(pt.b_star) is float
    assert pt.probes <= 2 + math.ceil(math.log2(1.0 / DEFAULT_TOL.eps_root))
    assert abs(pt.b_star - b_star_class1_per_b(cfg, target).b_star) <= DEFAULT_TOL.eps_root


@pytest.mark.parametrize("service", list(ServiceKind))
@pytest.mark.parametrize("mu", [0.7, 1.0, 3.0])
def test_interior_class1_points_have_the_conserved_class2_mean(service, mu):
    # conservation pins the class-2 mean wherever the class-1 mean sits at
    # the threshold: m2* = (rhs - rho1 thr) / rho2 at every interior b*,
    # whatever the delay (the trend a class-1 sweep once checked at runtime)
    cfg = QueueConfig(0.05 * mu, 0.6 * mu, mu, service=service)
    # deterministic service halves the means, and the target with them
    target = Kpi((2.0 if service is ServiceKind.EXPONENTIAL else 1.0) / mu, 0.9, 1)
    points = policy_sweep(cfg, target, [k / mu for k in (0, 1, 2, 4, 8, 16)])
    interior = [pt for pt in points if pt.feasible and 0.0 < pt.b_star < 1.0]
    assert len(interior) >= 4
    rho1, rho2 = cfg.lambda1 / mu, cfg.lambda2 / mu
    m2_star = (conservation_rhs(cfg) - rho1 * kpi_mean_threshold(rho1 + rho2, target)) / rho2
    for pt in interior:
        assert pt.mean_w2 == pytest.approx(m2_star, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("lam", [(0.4, 0.18), (0.2, 0.5), (0.6, 0.3)])
def test_lockstep_class2_rows_equal_one_row_cdfs_bit_for_bit(lam):
    # delays with mixed head lengths (d = 0 has none), each row at its own b;
    # 2.5 comes twice and 3.0 equals w, so the one strict-priority inversion
    # of the b-free part sees repeated abscissae
    cfg = QueueConfig(lam[0], lam[1], 1.0)
    w = 3.0
    configs = [cfg.replace(d=d) for d in (2.5, 0.0, 7.0, 1.0, 3.0, 0.5, 4.5, 2.5)]
    state = kpi._Rows(len(configs), DEFAULT_TOL)
    rates, _, weights = state.b_free(configs, [True] * len(configs))
    law = transforms._Class2Law(configs, rates, weights, np.full((len(configs), 1), w), DEFAULT_TOL)
    free, dep = np.flatnonzero(law.past == 0), np.flatnonzero(law.past)
    assert len({len(weights[r]) for r in dep}) > 2
    assert law.strict_points == len(free) + sum(c.d > 0.0 for c in configs)  # w and d > 0

    def one_row(c, b):
        return class2_cdf_dapq(c.replace(b=b), np.array([w]))

    bs = np.linspace(0.0, 1.0, len(dep))
    raw, worst, _ = law.past_d(bs, dep, slope=True)
    values = state.certify(dep, raw[:, 0], worst)
    for r, b, v in zip(dep, bs, values):
        curve = one_row(configs[r], b)
        assert v == curve.values[0] and state.worst[r] == curve.error_estimate
    values = state.certify(free, law.values[free, 0], law.worst[free])
    assert len(free) == 3
    for r, v in zip(free, values):
        curve = one_row(configs[r], 0.3)
        assert v == curve.values[0] and state.worst[r] == curve.error_estimate


def test_geometric_rows_are_the_zero_delay_busy_weights():
    # the strict-priority rows (transforms._npq_cdf_rows) invert the headless
    # weights with tail_next = (1 - rho) rho, which are those at d = 0
    weights = [busy_state_distribution(QueueConfig(0.3 * x, 0.7 * x, 1.0))
               for x in np.random.default_rng(2).uniform(1e-6, 0.999, 200)]
    assert all(len(w) == 0 for w in weights)
    assert [(1.0 - w.rho) * w.rho for w in weights] == [w.tail_next for w in weights]


def test_too_tight_eps_invert_fails_a_batch():
    tol = ToleranceConfig(eps_invert=1e-15)
    cfg = QueueConfig(0.4, 0.18, 1.0)
    with pytest.raises(AccuracyNotMet):
        feasible_region(KPI2, resolution=0.05, tol=tol)
    with pytest.raises(AccuracyNotMet):
        policy_sweep(cfg, KPI2, [0.0, 1.0, 2.0], tol)


def test_an_eps_invert_below_the_floor_fails_before_any_inversion(monkeypatch):
    # at (0.5, 0.45, b = 0.5, d = 2) and t = 200 the Euler sums err by
    # 4.1e-11, which a gate at eps_invert = 1e-11 passed: every class-2
    # inversion entry refuses an eps_invert below 1e-10 up front, naming it
    cfg = QueueConfig(0.5, 0.45, 1.0, b=0.5, d=2.0)
    grid = np.array([0.0, 1.0, 2.0, 5.0, 200.0])
    curve = class2_cdf_dapq(cfg, grid, ToleranceConfig(eps_series=1e-15, eps_invert=1e-10))
    assert 0.0 < curve.error_estimate <= 1e-10
    tight = ToleranceConfig(eps_series=1e-15, eps_invert=1e-11)
    inverted = []
    monkeypatch.setattr(transforms, "_euler_invert", lambda *a: inverted.append(a))
    for entry in (lambda: class2_cdf_dapq(cfg, grid, tight),
                  lambda: policy_sweep(cfg, KPI2, [1.0, 2.0], tight),
                  lambda: feasible_region(KPI2, resolution=0.1, tol=tight),
                  lambda: meets_extreme(0.5, 0.45, 1.0, KPI2, "npq", tight)):
        with pytest.raises(AccuracyNotMet, match="floor 1e-10"):
            entry()
    assert inverted == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_row_fails_the_batch_and_the_first_failed_row_is_raised(monkeypatch):
    cfg = QueueConfig(0.4, 0.18, 1.0)
    spoiled = busy_state_distribution(cfg.replace(d=2.0)).tail_next
    horner = transforms._horner

    def nan_row(e, rho, tail_next, steps, starts, slope=False):
        out = horner(e, rho, tail_next, steps, starts, slope)
        spoil = lambda x: np.where(np.asarray(tail_next) == spoiled, np.nan, x)
        return tuple(map(spoil, out)) if slope else spoil(out)

    monkeypatch.setattr(transforms, "_horner", nan_row)
    for ds, error in (([0.0, 1.0, 2.0, 3.0, -1.0], AccuracyNotMet),
                      ([0.0, -1.0, 2.0, -3.0], OutOfRange)):
        got = _sweep_outcome(policy_sweep, cfg, KPI2, ds)
        assert got == _sweep_outcome(policy_sweep_by_delay, cfg, KPI2, ds)
        assert got[0] is error
    assert "nan" in _sweep_outcome(policy_sweep, cfg, KPI2, [0.0, 2.0])[1]

    # a region row whose every probe is NaN: the lowest such lambda1 is raised
    lam1s = np.arange(0.05, 1.0, 0.05)
    eta = transforms._eta

    def nan_eta(s, rate, mu):
        e, z = eta(s, rate, mu)
        return np.where(np.isin(rate, lam1s[[4, 2]]), np.nan, e), z

    monkeypatch.setattr(transforms, "_horner", horner)
    monkeypatch.setattr(transforms, "_eta", nan_eta)
    with pytest.raises(AccuracyNotMet, match="nan"):
        feasible_region(KPI2, resolution=0.05)
    with pytest.raises(AccuracyNotMet, match="nan"):
        feasible_region_by_probes(KPI2, resolution=0.05)


def _count_inversions(monkeypatch):
    calls = []
    invert = transforms._euler_invert

    def counted(transform, ts, tol, slope=False):
        calls.append(np.shape(ts))
        return invert(transform, ts, tol, slope)

    monkeypatch.setattr(transforms, "_euler_invert", counted)
    return calls


def test_region_and_sweep_make_one_inversion_per_lockstep_probe(monkeypatch):
    # a search probe inverts F and its derivative in one call, as the two
    # halves of its contour sums; the region takes 7 calls and the sweep 7
    # (one of them the strict-priority curve), and one more each is allowed
    # (the ITP search they replaced took 8 and 16)
    calls = _count_inversions(monkeypatch)
    region = feasible_region(Kpi(4.0, 0.85, 2), resolution=0.02)
    assert len(calls) == region.inversion_calls <= 7 + 1
    assert region.rows_inverted == sum(shape[-2] for shape in calls)
    calls.clear()
    points = policy_sweep(QueueConfig(0.4, 0.18, 1.0), KPI2, [float(d) for d in range(9)])
    assert len(calls) == points.inversion_calls <= 7 + 1
    assert points.rows_inverted == sum(shape[-2] for shape in calls)


# --------------------------------------------------------------------------
# the search against the bisection it replaced, and the ITP oracle's worst case
# --------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
# F is flat in b to its roundoff here: the Newton and bisection b* lie more
# than eps_root apart
@example(rho=0.3125, share=0.125, cls=2, det=False, w=0.3125, ks=[2], b_mid=0.5)
# the class-1 mean is flat in b to its rounding here: the search stopped
# 1.9e-10 and 1.16e-10 below the bisection's b* until it bisected its last
# gap and stepped up from a closed form that meets the threshold
@example(rho=0.3125, share=0.125, cls=1, det=True, w=1.0, ks=[7], b_mid=0.5)
@example(rho=0.3046875, share=0.25, cls=1, det=True, w=1.0, ks=[8], b_mid=0.5)
@given(
    rho=st.floats(min_value=0.3, max_value=0.92),
    share=st.floats(min_value=0.1, max_value=0.9),
    cls=st.sampled_from([1, 2]),
    det=st.booleans(),
    w=st.floats(min_value=0.3, max_value=6.0),
    ks=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=4, unique=True),
    b_mid=st.floats(min_value=0.05, max_value=0.95),
)
def test_itp_b_star_is_within_eps_root_of_bisection(rho, share, cls, det, w, ks, b_mid):
    # bisection (the slow path) and the search bracket the same crossing to
    # eps_root, and the search returns the end of its bracket that meets the
    # KPI, in at most _NEWTON_N0 probes beyond bisection's count
    service = ServiceKind.DETERMINISTIC if det and cls == 1 else ServiceKind.EXPONENTIAL
    step = 1.0 if service is ServiceKind.DETERMINISTIC else w / 4
    d_values = sorted(step * k for k in ks)
    cfg = QueueConfig(share * rho, (1.0 - share) * rho, 1.0, service=service)
    d_anchor = d_values[0]
    if cls == 2:
        p = class2_cdf_per_b(cfg.replace(d=d_anchor), w)(b_mid)
        if not 0.0 < p < 1.0:
            return
        target = Kpi(w, p, 2)
    else:
        p1 = 1.0 - 0.5 * rho
        mean1 = class1_mean_per_b(cfg.replace(d=d_anchor))(b_mid)
        target = Kpi(mean1 * math.log(rho / (1.0 - p1)) / rho, p1, 1)
    try:
        bisected = policy_sweep_by_delay(cfg, target, d_values, bisect=True)
    except DapqError as exc:
        # the two searches probe different b, so an error's text may differ
        assert _sweep_outcome(policy_sweep, cfg, target, d_values)[0] is type(exc)
        return
    got = policy_sweep(cfg, target, d_values)
    assert len(got) == len(bisected)
    interior = 0
    for pt, ref in zip(got, bisected):
        assert (pt.d, pt.feasible) == (ref.d, ref.feasible)
        if not 0.0 < ref.b_star < 1.0:
            assert pt == ref
            continue
        interior += 1
        at = cfg.replace(d=pt.d)
        if cls == 2:
            _class2_crossing_matches(at, target, pt.b_star, ref.b_star, bisect=True)
        else:
            _class1_crossing_matches(at, target, pt.b_star, ref.b_star)
        assert pt.probes <= ref.probes + kpi._NEWTON_N0
    assert interior or not any(0.0 < pt.b_star < 1.0 for pt in got)


@pytest.mark.parametrize("target", REGION_KPIS[:-1])
def test_itp_region_frontier_is_within_1e4_of_bisection(target):
    got = feasible_region(target, resolution=0.05)
    want = feasible_region_by_probes(target, resolution=0.05, bisect=True)
    assert np.array_equal(got.upper_boundary, want.upper_boundary)
    assert np.array_equal(got.lower_boundary[:, 0], want.lower_boundary[:, 0])
    assert np.max(np.abs(got.lower_boundary[:, 1] - want.lower_boundary[:, 1])) <= 1e-4


def _adversarial_residuals():
    """Monotone residuals that defeat interpolation: (name, g, lo, hi, eps, ties_lo)."""
    return [
        ("step", lambda x: np.where(x < 0.3, -1.0, 1.0), 0.0, 1.0, 1e-10, False),
        ("step at a dyadic point", lambda x: np.where(x < 0.5, -1.0, 1.0), 0.0, 1.0, 1e-10, True),
        ("tiny step", lambda x: np.where(x < 0.7123, -1e-300, 1e300), 0.0, 1.0, 1e-10, False),
        ("flat then steep", lambda x: np.where(x < 0.999, -1e-9, 1e6 * (x - 0.999) - 1e-9),
         0.0, 1.0, 1e-10, False),
        ("steep then flat", lambda x: np.where(x < 1e-3, 1e6 * (x - 1e-3), 1e-9),
         0.0, 1.0, 1e-10, True),
        ("root at hi", lambda x: x - 1.0, 0.0, 1.0, 1e-10, False),
        ("root at lo", lambda x: x, 0.0, 1.0, 1e-10, True),
        ("zero at lo, steep", lambda x: np.where(x > 0.0, 1.0, 0.0), 0.0, 1.0, 1e-10, True),
        ("cubic", lambda x: (x - 0.2) ** 3, 0.0, 0.7, 1e-4, True),
        ("wide bracket", lambda x: np.tanh(x - 3.0), 1e-9, 12.5, 1e-4, True),
    ]


def test_itp_worst_case_on_adversarial_residuals():
    # each row alone, then all rows in one lockstep search: at most one
    # probe beyond bisection's count, the crossing kept in the final bracket,
    # and each row bit for bit the scalar ITP of the oracles
    cases = _adversarial_residuals()
    singles = []
    for name, g, lo, hi, eps, ties_lo in cases:
        probes = []
        limit = math.ceil(math.log2((hi - lo) / eps)) + 1

        def probe(x, rows):
            probes.append(len(rows))
            assert len(probes) <= limit, name  # fail fast rather than crawl
            return g(x), np.ones(len(rows), dtype=bool)

        got_lo, got_hi = itp_rows(probe, np.arange(1), np.array([lo]), np.array([hi]),
                                  g(np.array([lo])), g(np.array([hi])), eps, ties_lo)
        a, b = float(got_lo[0]), float(got_hi[0])
        assert lo <= a <= b <= hi and b - a <= eps, name
        ga, gb = g(np.array([a, b]))
        assert (ga <= 0.0 if ties_lo else ga < 0.0) or a == lo, name
        assert (gb > 0.0 if ties_lo else gb >= 0.0) or b == hi, name
        scalar = itp_bracket(lambda x: float(g(np.array([x]))[0]), lo, hi,
                             float(g(np.array([lo]))[0]), float(g(np.array([hi]))[0]),
                             eps, ties_lo)
        assert (a, b, len(probes)) == scalar, name
        singles.append((a, b))

    for ties_lo, eps in {(case[5], case[4]) for case in cases}:
        rows = [r for r, case in enumerate(cases) if (case[5], case[4]) == (ties_lo, eps)]
        lo = np.array([case[2] for case in cases])
        hi = np.array([case[3] for case in cases])
        f_lo = np.array([float(case[1](np.array([case[2]]))[0]) for case in cases])
        f_hi = np.array([float(case[1](np.array([case[3]]))[0]) for case in cases])

        def probe(x, rr):
            return (np.array([float(cases[r][1](np.array([xi]))[0]) for r, xi in zip(rr, x)]),
                    np.ones(len(rr), dtype=bool))

        got_lo, got_hi = itp_rows(probe, np.array(rows), lo, hi, f_lo, f_hi, eps, ties_lo)
        for r in rows:
            assert (got_lo[r], got_hi[r]) == singles[r], cases[r][0]


def _itp_on_jump_residual(root, width, eps, low, high, power, ties_lo):
    """(lo, hi) of an ITP search of [0, width] with the residual a jump of
    heights ``low`` and ``high`` at ``root`` on top of an odd power, checking
    each probe against bisection's count; a RuntimeWarning raises."""

    def g(x):
        t = (x - root) / width
        return np.where(x < root, -low, high) * (1e-3 + np.abs(t) ** power)

    probes = []

    def probe(x, rows):
        probes.append(1)
        assert len(probes) <= math.ceil(math.log2(width / eps)) + 1
        return g(x), np.ones(len(rows), dtype=bool)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return itp_rows(probe, np.arange(1), np.zeros(1), np.full(1, width),
                        g(np.zeros(1)), g(np.full(1, width)), eps, ties_lo)


@settings(max_examples=200, deadline=None)
# eps = 1e-14 on [0, 1] is within three slacks (4 ulps of 4): the projection
# interval comes out empty, and only a bisecting step ends the search
@example(c=1.0, width=1.0, eps_exp=-14, low=1.0, high=1.0, power=1, ties_lo=False)
@given(
    c=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, allow_subnormal=False),
    width=st.floats(min_value=1e-3, max_value=1e3),
    eps_exp=st.integers(min_value=-14, max_value=-2),
    low=st.floats(min_value=1e-6, max_value=1e6),
    high=st.floats(min_value=1e-6, max_value=1e6),
    power=st.sampled_from([1, 3, 15]),
    ties_lo=st.booleans(),
)
def test_itp_probe_bound_on_random_monotone_residuals(c, width, eps_exp, low, high, power,
                                                     ties_lo):
    # c > 0 and normal keeps root = c * width > 0, so the residual at lo is
    # negative, as itp_rows requires
    eps = 10.0 ** eps_exp * width
    root = c * width
    lo, hi = _itp_on_jump_residual(root, width, eps, low, high, power, ties_lo)
    assert hi[0] - lo[0] <= eps
    assert lo[0] <= root <= hi[0] or root == width


@pytest.mark.parametrize("power", [3, 15])
@pytest.mark.parametrize("ties_lo", [False, True])
def test_itp_ends_quietly_with_the_root_at_lo(power, ties_lo):
    # c = 0 breaks the precondition: the residual at lo is positive, every
    # probe moves hi down, and near lo the end residuals round to one value
    lo, hi = _itp_on_jump_residual(0.0, 1.0, 1e-14, 1.0, 1.0, power, ties_lo)
    assert hi[0] - lo[0] <= 1e-14


@pytest.mark.filterwarnings("error")
def test_itp_takes_the_midpoint_between_equal_residuals():
    # a residual flat at 0 beyond 0.3: with ties going to lo, lo reaches the
    # flat part and both ends read 0, where regula falsi would divide 0 by 0
    probes = []

    def probe(x, rows):
        probes.append(x[0])
        return np.where(x < 0.3, x - 0.3, 0.0), np.ones(len(rows), dtype=bool)

    lo, hi = itp_rows(probe, np.arange(1), np.zeros(1), np.ones(1),
                      np.full(1, -0.3), np.zeros(1), 1e-6, ties_lo=True)
    assert hi[0] - lo[0] <= 1e-6 and 0.3 <= lo[0]
    assert len(probes) <= math.ceil(math.log2(1e6)) + 1  # n0 = 1


# --------------------------------------------------------------------------
# the safeguarded Newton search: its worst case, with slopes that lie
# --------------------------------------------------------------------------

def _slopes(g):
    """Slopes to feed the Newton search for residual g: (name, slope(x)),
    the residual's own central difference first, then lies."""
    return [
        ("central difference", lambda x: (g(x + 1e-7) - g(x - 1e-7)) / 2e-7),
        ("zero", lambda x: np.zeros_like(x)),
        ("wrong sign", lambda x: -np.abs((g(x + 1e-7) - g(x - 1e-7)) / 2e-7) - 1.0),
        ("nan", lambda x: np.full_like(x, np.nan)),
        ("huge", lambda x: np.full_like(x, 1e300)),
        ("tiny", lambda x: np.full_like(x, 1e-300)),
    ]


def _newton_cases():
    """The ITP oracle's adversarial residuals, a residual flat at its root,
    a smooth one and four whose root lies at an end, each with every slope
    of ``_slopes``: (name, g, slope, lo, hi, eps, ties_lo)."""
    flat = ("flat at 0 beyond 0.3", lambda x: np.where(x < 0.3, x - 0.3, 0.0), 0.0, 1.0, 1e-6,
            True)
    smooth = ("smooth", lambda x: np.expm1(x - 0.4123), 0.0, 1.0, 1e-10, False)
    ends = [
        ("root below lo", lambda x: x + 1.0, 0.0, 1.0, 1e-10, False),
        ("zero at lo, ties to hi", lambda x: x, 0.0, 1.0, 1e-10, False),
        ("root above hi", lambda x: x - 2.0, 0.0, 1.0, 1e-10, True),
        ("zero at hi, ties to lo", lambda x: x - 1.0, 0.0, 1.0, 1e-10, True),
    ]
    return [(f"{name}, {lie}", g, slope, lo, hi, eps, ties_lo)
            for name, g, lo, hi, eps, ties_lo in _adversarial_residuals() + [flat, smooth] + ends
            for lie, slope in _slopes(g)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_worst_case_on_adversarial_residuals():
    # each row alone, then all rows of one eps and tie rule in one lockstep
    # search: the two ends, then at most _NEWTON_N0 probes beyond
    # bisection's count, the crossing kept in the final bracket, and each
    # row bit for bit its search alone; a row whose root lies at an end
    # settles there by the tie rule with its bracket unchanged, and a true
    # slope on a smooth residual takes a few probes
    cases = _newton_cases()
    singles = []
    for name, g, slope, lo, hi, eps, ties_lo in cases:
        probes = []
        limit = 2 + math.ceil(math.log2((hi - lo) / eps)) + kpi._NEWTON_N0

        def probe(x, rows):
            probes.append(len(rows))
            assert len(probes) <= limit and len(rows), name  # fail fast rather than crawl
            return g(x), slope(x)

        got_lo, got_hi, _, at_lo, at_hi = kpi._newton_rows(
            probe, np.arange(1), np.array([lo]), np.array([hi]), eps, ties_lo)
        a, b = float(got_lo[0]), float(got_hi[0])
        ga, gb = g(np.array([a, b]))
        if at_lo.size or at_hi.size:
            assert (a, b, list(at_lo) + list(at_hi)) == (lo, hi, [0]), name
            if at_lo.size:
                assert (ga > 0.0 if ties_lo else ga >= 0.0) and len(probes) == 1, name
            else:
                assert (gb <= 0.0 if ties_lo else gb < 0.0) and len(probes) == 2, name
        else:
            assert lo <= a <= b <= hi and b - a <= eps, name
            assert (ga <= 0.0 if ties_lo else ga < 0.0) or a == lo, name
            assert (gb > 0.0 if ties_lo else gb >= 0.0) or b == hi, name
        if name == "smooth, central difference":
            assert len(probes) <= 2 + 6  # bisection takes 34
        singles.append((a, b, at_lo.size, at_hi.size))

    for ties_lo, eps in {(case[6], case[5]) for case in cases}:
        rows = [r for r, case in enumerate(cases) if (case[6], case[5]) == (ties_lo, eps)]
        lo = np.array([case[3] for case in cases])
        hi = np.array([case[4] for case in cases])

        def probe(x, rr):
            one = [(cases[r][1](np.array([xi]))[0], cases[r][2](np.array([xi]))[0])
                   for r, xi in zip(rr, x)]
            return np.array([v for v, _ in one]), np.array([d for _, d in one])

        got_lo, got_hi, _, at_lo, at_hi = kpi._newton_rows(probe, np.array(rows), lo, hi, eps,
                                                           ties_lo)
        for r in rows:
            assert (got_lo[r], got_hi[r], r in at_lo, r in at_hi) == singles[r], cases[r][0]


@settings(max_examples=200, deadline=None)
# eps = 1e-14 on [0, 1] is within three slacks (4 ulps of 4): the budget
# window comes out empty, and only midpoints end the search
@example(c=1.0, width=1.0, eps_exp=-14, low=1.0, high=1.0, power=1, ties_lo=False, lie=0)
@given(
    c=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, allow_subnormal=False),
    width=st.floats(min_value=1e-3, max_value=1e3),
    eps_exp=st.integers(min_value=-14, max_value=-2),
    low=st.floats(min_value=1e-6, max_value=1e6),
    high=st.floats(min_value=1e-6, max_value=1e6),
    power=st.sampled_from([1, 3, 15]),
    ties_lo=st.booleans(),
    lie=st.integers(min_value=0, max_value=5),
)
def test_newton_probe_bound_on_random_monotone_residuals(c, width, eps_exp, low, high, power,
                                                       ties_lo, lie):
    # a jump of heights low and high at root = c * width on top of an odd
    # power, with the residual's own slope or one of the lies of _slopes;
    # c > 0 and normal keeps the residual at lo negative
    eps = 10.0 ** eps_exp * width
    root = c * width

    def g(x):
        t = (x - root) / width
        return np.where(x < root, -low, high) * (1e-3 + np.abs(t) ** power)

    _, slope = _slopes(g)[lie]
    probes = []

    def probe(x, rows):
        probes.append(1)
        assert len(probes) <= 2 + math.ceil(math.log2(width / eps)) + kpi._NEWTON_N0
        return g(x), slope(x)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lo, hi, *_ = kpi._newton_rows(probe, np.arange(1), np.zeros(1), np.full(1, width), eps,
                                      ties_lo)
    assert hi[0] - lo[0] <= eps
    assert lo[0] <= root <= hi[0] or root == width


# --------------------------------------------------------------------------
# the monotonicity the searches rely on, without probing for it
# --------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    rho=st.floats(min_value=0.05, max_value=0.97),
    share=st.floats(min_value=0.05, max_value=0.95),
    d=st.integers(min_value=0, max_value=60).map(lambda k: k / 4),
    u=st.floats(min_value=0.05, max_value=30.0),
    bs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2),
)
def test_class2_cdf_is_nondecreasing_in_b(rho, share, d, u, bs):
    # the stochastic ordering of _b_star_class2_rows: thinning the births of
    # the walk beyond d never delays its first passage, and F(d) and the
    # busy weights are b-free; each value is certified to eps_invert
    cfg = QueueConfig(share * rho, (1.0 - share) * rho, 1.0, d=d)
    cdf = class2_cdf_per_b(cfg, d + u)
    slack = 2.0 * DEFAULT_TOL.eps_invert
    _check_monotone_per_b(cdf, slack, "class-2 compliance")
    b1, b2 = sorted(bs)
    assert cdf(b1) <= cdf(b2) + slack


@settings(max_examples=30, deadline=None)
@given(
    lam1=st.floats(min_value=0.0, max_value=0.95),
    lam2s=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2),
    w=st.floats(min_value=0.1, max_value=30.0),
)
def test_strict_priority_class2_cdf_is_nonincreasing_in_lambda2(lam1, lam2s, w):
    # the region frontier's monotonicity: with lambda1 fixed, added class-2
    # arrivals only add work ahead of a tagged class-2 customer
    lam2_lo, lam2_hi = sorted(l2 * (0.99 - lam1) for l2 in lam2s)
    target = Kpi(w, 0.5, 2)
    assert (npq_cdf_by_probe(lam1, lam2_lo, 1.0, target)
            >= npq_cdf_by_probe(lam1, lam2_hi, 1.0, target) - 2.0 * DEFAULT_TOL.eps_invert)


# --------------------------------------------------------------------------
# how each point was found
# --------------------------------------------------------------------------

def test_points_and_sweeps_say_how_they_were_found(monkeypatch):
    calls = _count_inversions(monkeypatch)
    cfg = QueueConfig(0.4, 0.18, 1.0)
    ds = [0.0, 1.0, 3.0, 4.0, 6.0]  # interior, interior, infeasible, b-free, b-free
    points = policy_sweep(cfg, KPI2, ds)
    assert isinstance(points, kpi.PolicySweep) and points == list(points)
    assert points.inversion_calls == len(calls)
    assert points.rows_inverted == sum(shape[-2] for shape in calls)
    probes = [pt.probes for pt in points]
    # two ends, then a regula-falsi point, two Newton steps and the probe
    # that closes the bracket (the ITP search took 14 and 13, three of them
    # monotonicity probes); b = 1 fails after two probes; a row with d >= w
    # has one b-free probe
    assert probes == [6, 6, 2, 1, 1]
    # F(d) at d = 1 and 3 and F(w) at d >= w come from one strict-priority
    # row, which each b-free row counts as its probe
    assert sum(probes) == points.rows_inverted + 1
    assert replace(points[0], probes=0, error_estimate=0.0, root_width=1.0) == points[0]

    # an interior b* is pinned to its certified error over dF/db, which a
    # central difference of the from-scratch CDF confirms; the other points
    # found no root
    for pt in points[:2]:
        cdf = class2_cdf_per_b(cfg.replace(d=pt.d), KPI2.target_w)
        slope = (cdf(pt.b_star + 1e-6) - cdf(pt.b_star - 1e-6)) / 2e-6
        assert pt.root_width == pytest.approx(pt.error_estimate / slope, rel=1e-4)
    assert [pt.root_width for pt in points[2:]] == [0.0] * 3

    # a class-1 sweep inverts nothing; its probes are mean evaluations: two
    # ends, then the closed-form b* and each step from it (down in gaps
    # doubling from one ulp, or up in gaps doubling from eps_root), which
    # here close within eps_root, so no bisection follows
    cfg = QueueConfig(0.05, 0.6, 1.0)
    points = policy_sweep(cfg, KPI1, [0.0, 1.0])
    assert (points.inversion_calls, points.rows_inverted) == (0, 0)
    assert all(3 <= pt.probes <= 3 + 53 for pt in points)
    atom = b_star_class1(QueueConfig(0.2, 0.2, 1.0), Kpi(2.0, 0.3, 1))
    assert (atom.probes, atom.root_width) == (0, 0.0)

    # a class-1 b* is pinned to one rounding of the class-1 mean (eps rhs /
    # rho1) over its slope in b, which a central difference confirms
    for pt in points:
        mean1 = class1_mean_per_b(cfg.replace(d=pt.d))
        slope = (mean1(pt.b_star + 1e-6) - mean1(pt.b_star - 1e-6)) / 2e-6
        rounding = np.finfo(float).eps * conservation_rhs(cfg) / cfg.lambda1
        assert pt.root_width == pytest.approx(rounding / slope, rel=1e-6)


# --------------------------------------------------------------------------
# one chain run per sweep
# --------------------------------------------------------------------------

def _count_chain_runs(monkeypatch, heads=None):
    """Record the step count of every batched chain run a search makes, and
    in ``heads`` whether each row of the run has a head cut; fail on a
    one-row busy-weight or correction-sum path."""
    steps = []
    run, delay_weights = markov._busy_weights_rows, mean_wait._delay_weights

    def counted(rates, pmfs, cuts, n_steps):
        steps.append(n_steps)
        if heads is not None:
            heads.append([c is not None for c in cuts])
        return run(rates, pmfs, cuts, n_steps)

    def one_row(*args):
        raise AssertionError("a sweep ran a one-row chain")

    def batched(rates, ds, *args):
        if len(ds) == 1:
            one_row()
        return delay_weights(rates, ds, *args)

    monkeypatch.setattr(markov, "_busy_weights_rows", counted)
    monkeypatch.setattr(markov, "busy_state_distribution", one_row)
    monkeypatch.setattr(mean_wait, "_delay_weights", batched)
    return steps


def test_a_sweep_runs_the_chain_once_to_its_largest_cut(monkeypatch):
    # the benchmark's class-2 sweep: the correction sums of all nine delays
    # and the busy weights of d = 0..3, the delays below w = 4 and the only
    # ones whose CDF reads a head, come from one run, as long as the longest
    # cut of any delay (d = 8's moment cut, which its mass cut equals)
    cfg, ds = QueueConfig(0.4, 0.18, 1.0), [float(d) for d in range(9)]
    rates = validate(cfg)
    cuts = [_jump_cuts(rates.nu * d, rates.rho, DEFAULT_TOL)[1:] for d in ds]
    _class2_outcomes_match(cfg, KPI2, policy_sweep(cfg, KPI2, ds),
                           policy_sweep_by_delay(cfg, KPI2, ds))
    want = _one_row_sweep(cfg, KPI2, ds)
    heads = []
    steps = _count_chain_runs(monkeypatch, heads)
    points = policy_sweep(cfg, KPI2, ds)
    assert steps == [max(max(c) for c in cuts)] == [39]
    assert heads == [[d < KPI2.target_w for d in ds]] == [[True] * 4 + [False] * 5]
    assert (points.chain_runs, points.chain_steps) == (1, 39)
    assert points == want

    # a class-1 sweep needs only the moments: one run too; deterministic
    # service sums its correction in closed form and runs no chain
    steps.clear()
    points = policy_sweep(QueueConfig(0.05, 0.6, 1.0), KPI1, [0.0, 1.0, 2.0])
    assert len(steps) == 1 and (points.chain_runs, points.chain_steps) == (1, steps[0])
    det = QueueConfig(0.05, 0.6, 1.0, service=ServiceKind.DETERMINISTIC)
    points = policy_sweep(det, KPI1, [0.0, 1.0, 2.0])
    assert len(steps) == 1 and (points.chain_runs, points.chain_steps) == (0, 0)


def test_a_class2_sweep_builds_no_head_that_no_row_reads():
    # at d = 260 >= w = 1 the row reads only the strict-priority F(w) and the
    # mean's correction moment: its head would need 402 states, past
    # max_states = 400, while the moment fits
    cfg, tol = QueueConfig(0.1, 0.1, 1.0), ToleranceConfig(max_states=400)
    with pytest.raises(TruncationOverflow, match="busy-state head needs 402 states"):
        busy_state_distribution(cfg.replace(d=260.0), tol)
    [point] = policy_sweep(cfg, Kpi(1.0, 0.85, 2), [260.0], tol)
    assert (point.b_star, point.feasible) == (0.0, True)
    assert point.mean_w2 == dapq_means(cfg.replace(d=260.0), tol).mean_w2


def test_a_deterministic_class2_sweep_fails_where_no_row_reads_a_head():
    # every class-2 row needs the exponential-service CDF, whether or not it
    # reads busy weights: here no delay lies below w = 4, and the sweep must
    # not return b* = 1 infeasible
    det = QueueConfig(0.4, 0.18, 1.0, service=ServiceKind.DETERMINISTIC)
    for ds in ([5.0, 6.0], [5.0, 0.5], [1.0, 5.0]):
        with pytest.raises(OutOfRange, match="class-2 CDF machinery requires exponential"):
            policy_sweep(det, KPI2, ds)
    # a loop over the delays meets the invalid d mu = 0.5 first
    with pytest.raises(InvalidDelay, match="got d\\*mu = 0.5"):
        policy_sweep(det, KPI2, [0.5, 5.0])


def test_a_delay_too_small_to_invert_fails_its_row_before_any_inversion(monkeypatch):
    # the contour nodes of an abscissa below about 1e-306 overflow: such a
    # delay fails with OutOfRange, the other delays are searched, and the
    # sweep raises the first failed delay's error, as the one-delay searches do
    cfg = QueueConfig(0.4, 0.18, 1.0)
    ds = [0.0, 1.0, 1e-308, 2.0, 1e-310]
    got = _sweep_outcome(policy_sweep, cfg, KPI2, ds)
    assert got == _sweep_outcome(policy_sweep_by_delay, cfg, KPI2, ds)
    assert got[0] is OutOfRange and "abscissa 1e-308 " in got[1]
    inverted = []
    monkeypatch.setattr(transforms, "_euler_invert", lambda *a: inverted.append(a))
    with pytest.raises(OutOfRange, match="smallest invertible t"):
        b_star_class2(cfg.replace(d=1e-308), KPI2)
    assert inverted == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_target_wait_too_small_to_invert_fails_before_any_inversion(monkeypatch):
    # a b-free row (w <= d), the region's strict-priority probes and
    # meets_extreme invert at w itself: a w below the least invertible t
    # raises the OutOfRange that names it, where each raised AccuracyNotMet
    # on a NaN estimate
    inverted = []
    monkeypatch.setattr(transforms, "_euler_invert", lambda *a: inverted.append(a))
    tiny, cfg = Kpi(1e-310, 0.5, 2), QueueConfig(0.4, 0.18, 1.0)
    for search in (lambda: b_star_class2(cfg.replace(d=1.0), tiny),
                   lambda: policy_sweep(cfg, tiny, [1.0, 2.0]),
                   lambda: feasible_region(tiny, resolution=0.1),
                   lambda: meets_extreme(0.4, 0.18, 1.0, tiny, "npq"),
                   lambda: in_tuning_region(0.1, 0.1, 1.0, tiny)):
        with pytest.raises(OutOfRange, match="abscissa 1e-310 lies below the smallest invertible"):
            search()
    assert inverted == []


@pytest.mark.parametrize("target,ds,max_states,error", [
    # d = 1's moment cut overflows (b* > 0 needs it) before d = 2's head does
    (KPI2, [0.0, 1.0, 2.0, 4.0, 6.0], 15, "Poisson(1.4) k-sum bound"),
    (KPI2, [0.0, 1.0, 2.0, 4.0, 6.0], 17, "busy-state head needs 19 states"),
    (KPI2, [4.0, 6.0, 8.0], 28, "Poisson(5.6) k-sum bound"),
    # strict priority complies, so no delay needs the correction it cannot sum
    (Kpi(100.0, 0.5, 2), [0.0, 1.0], 15, None),
    (KPI1, [0.0, 1.0, 2.0, 4.0], 15, "k-sum bound"),
])
def test_a_sweep_raises_the_truncation_overflow_of_its_first_failed_delay(
        target, ds, max_states, error):
    # at occupancy 0.96 the moment cut (rho/(1-rho) P[N > n] < eps_series/2)
    # lies two jumps past the mass cut at these delays, so it can fail alone
    tol = ToleranceConfig(max_states=max_states)
    cfg = QueueConfig(0.4, 0.56, 1.0) if target.class_index == 2 else QueueConfig(0.05, 0.6, 1.0)
    got = _sweep_outcome(lambda c, t, d: policy_sweep(c, t, d, tol), cfg, target, ds)
    assert got == _sweep_outcome(lambda c, t, d: policy_sweep_by_delay(c, t, d, tol),
                                 cfg, target, ds)
    if error is None:
        assert [pt.b_star for pt in got[0]] == [0.0] * len(ds)
    else:
        assert got[0] is TruncationOverflow and error in got[1]
