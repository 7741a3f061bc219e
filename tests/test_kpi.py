import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import b_star_class1_per_b, b_star_class2_per_b, class1_mean_per_b, class2_cdf_per_b
from dapq.approx import kpi_mean_threshold
from dapq.core import DEFAULT_TOL, DapqError, Kpi, OutOfRange, QueueConfig, ServiceKind
from dapq.kpi import (
    b_star_class1,
    b_star_class2,
    feasible_region,
    in_tuning_region,
    meets_extreme,
    policy_sweep,
)
from dapq.markov import busy_state_distribution
from dapq.mean_wait import class2_mean_in_b, dapq_means, md1_dapq_class2_mean, mm1_dapq_class2_mean
from dapq.transforms import _class2_cdf_from_weights, class2_cdf_dapq

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


@settings(max_examples=30, deadline=None)
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
    assert _outcome(b_star_class1, cfg, kpi1) == _outcome(b_star_class1_per_b, cfg, kpi1)
    if det:
        return

    # busy weights from the config at b_mid serve the CDF at any other b
    ts = np.array([0.0, 0.5 * w, w, ell + 0.5 * w, ell + w])
    npq_weights = busy_state_distribution(cfg.replace(d=0.0))
    weights = busy_state_distribution(cfg)
    got = _class2_cdf_from_weights(cfg.replace(b=b), ts, npq_weights, weights, DEFAULT_TOL)
    want = class2_cdf_dapq(cfg.replace(b=b), ts)
    assert np.array_equal(got.values, want.values)
    assert (got.max_adjustment, got.error_estimate, got.head_states) == (
        want.max_adjustment, want.error_estimate, want.head_states)

    # a class-2 target met exactly at b_mid
    p2 = class2_cdf_per_b(cfg, w)(b_mid)
    if 0.0 < p2 < 1.0:
        kpi2 = Kpi(w, p2, 2)
        assert _outcome(b_star_class2, cfg, kpi2) == _outcome(b_star_class2_per_b, cfg, kpi2)
