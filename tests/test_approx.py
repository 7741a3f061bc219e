import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dapq.approx import (
    ALWAYS_SATISFIED,
    ZExp,
    cdf_sup_diff,
    kpi_mean_threshold,
    zexp_from_mean,
)
from dapq.core import DegenerateMean, EmptyOverlap, Kpi, OutOfRange
from dapq.transforms import CdfCurve


def test_fcfs_endpoint_is_exact():
    # rho=0.8, mean 4 -> atom 0.2, rate 0.2: exactly the FCFS wait law
    z = zexp_from_mean(0.8, 4.0)
    assert z.rho_mass == 0.8
    assert z.alpha == pytest.approx(0.2, abs=1e-15)
    grid = np.arange(0.0, 40.0, 0.05)
    fcfs = CdfCurve(ts=grid, values=1 - 0.8 * np.exp(-0.2 * grid), provenance="closed-form")
    diff, _ = cdf_sup_diff(z.curve(grid), fcfs)
    assert diff < 1e-12


def test_zexp_alpha_arithmetic():
    assert zexp_from_mean(0.8, 2.0).alpha == pytest.approx(0.4, abs=1e-15)
    assert zexp_from_mean(0.8, 1.6).alpha == pytest.approx(0.5, abs=1e-15)


def test_zexp_mean_roundtrip():
    for rho in (0.2, 0.65, 0.9):
        for mean in (0.5, 1.7, 12.0):
            assert zexp_from_mean(rho, mean).mean() == pytest.approx(mean, rel=1e-12)


def test_zexp_rejects_degenerate_mean():
    with pytest.raises(DegenerateMean):
        zexp_from_mean(0.5, 0.0)


def test_zexp_cdf_values():
    z = ZExp(0.8, 0.2)
    assert z.cdf(0.0) == pytest.approx(0.2, abs=1e-15)
    assert z.cdf(4.0) == pytest.approx(1 - 0.8 * math.exp(-0.8), abs=1e-12)
    assert z.cdf(1e6) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(OutOfRange):
        z.cdf(-0.1)


def test_cdf_sup_diff_identical_curves():
    grid = np.arange(0.0, 5.0, 0.05)
    c = CdfCurve(ts=grid, values=np.linspace(0.2, 1.0, len(grid)), provenance="x")
    diff, where = cdf_sup_diff(c, c)
    assert diff == 0.0
    assert where == grid[0]


def test_cdf_sup_diff_interpolates_between_grids():
    a = CdfCurve(ts=np.array([0.0, 1.0]), values=np.array([0.0, 1.0]), provenance="x")
    b = CdfCurve(ts=np.array([0.0, 0.5, 1.0]), values=np.array([0.0, 0.8, 1.0]), provenance="y")
    diff, where = cdf_sup_diff(a, b)
    assert diff == pytest.approx(0.3, abs=1e-12)
    assert where == pytest.approx(0.5)


def test_cdf_sup_diff_empty_overlap():
    a = CdfCurve(ts=np.array([0.0, 1.0]), values=np.array([0.0, 1.0]), provenance="x")
    b = CdfCurve(ts=np.array([2.0, 3.0]), values=np.array([0.0, 1.0]), provenance="y")
    with pytest.raises(EmptyOverlap):
        cdf_sup_diff(a, b)


def test_cdf_sup_diff_curve_without_points():
    a = CdfCurve(ts=np.array([0.0, 1.0]), values=np.array([0.0, 1.0]), provenance="x")
    empty = CdfCurve(ts=np.zeros(0), values=np.zeros(0), provenance="y")
    for pair in ((a, empty), (empty, a), (empty, empty)):
        with pytest.raises(EmptyOverlap):
            cdf_sup_diff(*pair)


@pytest.mark.parametrize("ts", [[0.0, 2.0, 1.0], [0.0, math.nan, 1.0], [0.0, 1.0, math.inf]])
def test_cdf_sup_diff_rejects_bad_abscissae(ts):
    # the interpolation assumes increasing abscissae
    good = CdfCurve(ts=np.array([0.0, 1.0, 2.0]), values=np.array([0.2, 0.5, 0.9]),
                    provenance="x")
    bad = CdfCurve(ts=np.array(ts), values=np.array([0.2, 0.5, 0.9]), provenance="y")
    for pair in ((good, bad), (bad, good)):
        with pytest.raises(OutOfRange, match="nondecreasing"):
            cdf_sup_diff(*pair)


def test_kpi_mean_threshold_reference():
    thr = kpi_mean_threshold(0.8, Kpi(2.0, 0.9, 1))
    assert thr == pytest.approx(1.6 / math.log(8.0), rel=1e-12)
    # a ZExp with exactly this mean sits exactly on the compliance level
    z = zexp_from_mean(0.8, thr)
    assert z.cdf(2.0) == pytest.approx(0.9, abs=1e-12)


def test_kpi_mean_threshold_atom_boundary():
    assert kpi_mean_threshold(0.8, Kpi(2.0, 0.2, 1)) is ALWAYS_SATISFIED
    assert kpi_mean_threshold(0.8, Kpi(2.0, 0.1, 1)) is ALWAYS_SATISFIED
    assert kpi_mean_threshold(0.8, Kpi(2.0, 0.2000001, 1)) < math.inf


def test_kpi_mean_threshold_grows_with_target():
    thrs = [kpi_mean_threshold(0.8, Kpi(w, 0.9, 1)) for w in (1.0, 5.0, 50.0, 5000.0)]
    assert all(b > a for a, b in zip(thrs, thrs[1:]))


def test_kpi_mean_threshold_class2_rejected():
    with pytest.raises(OutOfRange):
        kpi_mean_threshold(0.8, Kpi(2.0, 0.9, 2))


def test_kpi_threshold_equivalence_randomized():
    # compliance at w is equivalent to the mean staying under the threshold
    rng = np.random.default_rng(189)
    for _ in range(200):
        rho = rng.uniform(0.05, 0.95)
        m = rng.uniform(0.05, 10.0)
        w = rng.uniform(0.1, 10.0)
        p = rng.uniform(0.05, 0.95)
        kpi = Kpi(w, p, 1)
        thr = kpi_mean_threshold(rho, kpi)
        complies = zexp_from_mean(rho, m).cdf(w) >= p
        assert complies == (m <= thr)


@settings(max_examples=50, deadline=None)
@given(
    rho=st.floats(0.05, 0.9),
    lo=st.floats(0.1, 5.0),
    hi=st.floats(0.1, 5.0),
)
def test_zexp_ordering_by_mean(rho, lo, hi):
    # same atom, ordered means: the smaller-mean CDF dominates everywhere
    m1, m2 = sorted((lo, hi))
    if m1 == m2:
        return
    za, zb = zexp_from_mean(rho, m1), zexp_from_mean(rho, m2)
    for t in (0.0, 0.3, 1.0, 4.0, 20.0):
        assert za.cdf(t) >= zb.cdf(t) - 1e-12


def test_class1_zexp_bracketed_by_extremes():
    # the approximate class-1 law sits between the exact strict-priority and
    # FCFS zero-inflated exponentials, since its mean does
    from _oracles import fcfs_mean
    from dapq.core import QueueConfig, ServiceKind
    from dapq.mean_wait import dapq_means

    for b, d in [(0.3, 0.0), (0.5, 2.0), (0.8, 1.0)]:
        cfg = QueueConfig(0.5, 0.3, 1.0, b=b, d=d, service=ServiceKind.EXPONENTIAL)
        w1 = dapq_means(cfg).mean_w1
        npq_mean = 0.8 / (1.0 - 0.5)
        assert npq_mean <= w1 <= fcfs_mean(cfg) + 1e-12
        z = zexp_from_mean(0.8, w1)
        z_npq = zexp_from_mean(0.8, npq_mean)
        z_fcfs = zexp_from_mean(0.8, fcfs_mean(cfg))
        for t in (0.0, 0.5, 2.0, 8.0):
            assert z_fcfs.cdf(t) - 1e-12 <= z.cdf(t) <= z_npq.cdf(t) + 1e-12


def test_apq_class1_error_caps_near_five_percent():
    # worst-case accuracy against simulated zero-delay APQ class-1 waits,
    # over the accumulation-rate range, peaks around 5% at small t
    import numpy as np

    from dapq.core import QueueConfig, ServiceKind
    from dapq.mean_wait import dapq_means
    from dapq.simulate import SimConfig, run_replicated

    grid = np.arange(0.0, 30.0, 0.05)
    worst, worst_t = 0.0, 0.0
    for b in (0.1, 0.3, 0.5):
        cfg = QueueConfig(0.5, 0.3, 1.0, b=b, d=0.0, service=ServiceKind.EXPONENTIAL)
        z = zexp_from_mean(0.8, dapq_means(cfg).mean_w1)
        sim = SimConfig(queue=cfg, n_customers=4000, burn_in=1500,
                        replications=50, seed=99)
        res = run_replicated(sim, grid)
        diff, at = cdf_sup_diff(z.curve(grid), res.curves[1])
        if diff > worst:
            worst, worst_t = diff, at
    assert 0.03 <= worst <= 0.07
    assert worst_t < 5.0  # error concentrates within a few service lengths
