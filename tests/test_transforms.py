import cmath
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    Lst,
    class2_cdf_by_first_passage,
    class2_cdf_by_grid,
    class2_cdf_scalar,
    class2_tail_lst,
    eta_by_two_roots,
    eta_fixed_point,
    eta_mm1,
    euler_invert_by_division,
    invert_to_cdf,
    mm1_stationary,
    stationary_pmf,
)
from dapq import transforms
from dapq.core import (
    DEFAULT_TOL, AccuracyNotMet, OutOfRange, QueueConfig, ServiceKind, ToleranceConfig,
    TruncationOverflow,
)
from dapq.markov import BusyWeights, busy_state_distribution
from dapq.mean_wait import dapq_means
from dapq.transforms import _N_AVG, _N_BURN, _euler_params, class2_cdf_dapq, default_grid

EXP = ServiceKind.EXPONENTIAL
DET = ServiceKind.DETERMINISTIC


def test_eta_mm1_is_proper_at_zero():
    assert eta_mm1(0.0, 0.25, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert eta_mm1(0.0, 0.5, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_eta_mm1_no_arrivals_limit():
    for s in (0.0, 0.3, 2.0, 10.0):
        assert eta_mm1(s, 0.0, 1.0) == pytest.approx(1.0 / (1.0 + s), rel=1e-12)
        # continuity of the closed form as the rate vanishes
        assert eta_mm1(s, 1e-9, 1.0) == pytest.approx(1.0 / (1.0 + s), rel=1e-5)


def test_eta_mm1_derivative_at_zero():
    # -eta'(0) = 1/(mu (1 - rho_acc)), checked by central differences
    mu, lam_acc = 1.0, 0.25
    h = 1e-6
    deriv = (eta_mm1(h, lam_acc, mu) - eta_mm1(0.0, lam_acc, mu)) / h
    assert -deriv == pytest.approx(1.0 / (mu * (1.0 - lam_acc / mu)), rel=1e-5)


def test_eta_mm1_monotone_and_log_convex():
    ss = np.linspace(0.0, 12.0, 60)
    vals = np.array([eta_mm1(s, 0.25, 1.0) for s in ss])
    assert np.all(np.diff(vals) < 0)
    logs = np.log(vals)
    assert np.all(np.diff(logs, 2) > -1e-12)


def _eta_by_mpmath(s, a, mu):
    # the quadratic's root inside the unit disk, 2 mu / (z + sqrt(s + alpha) sqrt(s + beta)),
    # at 60 digits from the binary inputs
    with mp.workdps(60):
        s, a, mu = mp.mpc(s.real, s.imag), mp.mpf(a), mp.mpf(mu)
        alpha, beta = (mp.sqrt(mu) - mp.sqrt(a)) ** 2, (mp.sqrt(mu) + mp.sqrt(a)) ** 2
        return complex(2 * mu / (s + mu + a + mp.sqrt(s + alpha) * mp.sqrt(s + beta)))


def test_eta_mm1_matches_extended_precision():
    # Re s >= 0 on a log grid that takes in the imaginary axis, |s| up to
    # 1e300 (past the overflow of the root's argument near 1e154), and
    # accrediting rates 0, below mu, at mu, one ulp below mu and above mu
    mags = [0.0, 1e-300, 1e-12, 1e-3, 0.37, 1.0, 3.0, 1e3, 1e8, 1e77, 1e153, 1e155, 1e200, 1e300]
    ss = np.array([complex(x, y) for x in mags for y in mags]
                  + [complex(x, -y) for x in mags for y in mags if y])
    for mu in (1.0, 0.37):
        for a in (0.0, 0.3 * mu, mu, np.nextafter(mu, 0.0), 2.5 * mu):
            want = np.array([_eta_by_mpmath(s, a, mu) for s in ss])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = eta_mm1(ss, a, mu)
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15
            if a == mu:
                # the two-root form it replaced loses digits in z - 2 sqrt(mu a)
                old = eta_by_two_roots(ss, a, mu)
                assert np.max(np.abs(old - want) / np.abs(want)) > 1e-12


def test_eta_mm1_return_types():
    real, cplx = eta_mm1(0.5, 0.3, 1.0), eta_mm1(0.5 + 2.0j, 0.3, 1.0)
    assert type(real) is float and 0.0 < real <= 1.0
    assert type(cplx) is complex
    assert real == eta_mm1(np.array([0.5]), 0.3, 1.0)[0].real
    assert cplx == eta_mm1(np.array([0.5 + 2.0j]), 0.3, 1.0)[0]
    batch = eta_mm1(np.ones((1, 4, 3)), np.array([0.1, 0.3])[:, None, None], 1.0)
    assert batch.dtype == complex and batch.shape == (2, 4, 3)
    assert type(eta_mm1(1e300, 0.5, 1.0)) is float
    assert eta_mm1(1e300, 0.5, 1.0) == pytest.approx(1e-300, rel=1e-15)


def test_eta_fixed_point_matches_closed_form():
    for s in (0.1, 1.0, 10.0):
        fp = eta_fixed_point(s, EXP, 0.25, mu=1.0)
        assert fp == pytest.approx(eta_mm1(s, 0.25, 1.0), abs=1e-10)


def test_eta_fixed_point_deterministic_cases():
    assert eta_fixed_point(0.0, DET, 0.3, mu=1.0) == pytest.approx(1.0, abs=1e-9)
    for s in (0.5, 2.0):
        assert eta_fixed_point(s, DET, 0.0, mu=1.0) == pytest.approx(math.exp(-s), rel=1e-10)


def test_class2_tail_lst_zero_delay_reduces_to_busy_sum():
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=0.0, service=EXP)
    dist = mm1_stationary(0.8)
    for s in (0.2, 1.0, 4.0):
        eta = eta_mm1(s, 0.25, 1.0)
        direct = sum(stationary_pmf(dist, j) * eta**j for j in range(1, 400))
        assert class2_tail_lst(cfg, s) == pytest.approx(direct, abs=1e-10)


def test_class2_tail_lst_mass_at_zero():
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.7, d=0.0, service=EXP)
    assert class2_tail_lst(cfg, 0.0) == pytest.approx(0.8, abs=1e-9)


def test_class2_tail_lst_b0_equals_npq_form():
    # with accumulation disabled the transform must match the strict-priority
    # form built directly from the full class-1 rate
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.0, d=2.0, service=EXP)
    from _oracles import busy_state_distribution

    w = busy_state_distribution(cfg)
    for s in (0.1, 0.7, 3.0):
        eta = eta_mm1(s, 0.5, 1.0)
        direct = math.exp(-s * 2.0) * sum(
            wj * eta**j for j, wj in enumerate(w, start=1)
        )
        assert class2_tail_lst(cfg, s) == pytest.approx(direct, rel=1e-10)


def test_class2_tail_lst_complex_argument():
    # the inversion contour evaluates the transform at complex s
    from _oracles import busy_state_distribution

    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.4, d=1.5, service=EXP)
    w = busy_state_distribution(cfg)
    for s in (complex(0.3, 2.0), complex(1.0, -7.5), complex(0.0, 0.4)):
        z = s + 1.0 + 0.3
        eta = (z - cmath.sqrt(z * z - 4.0 * 0.3)) / (2.0 * 0.3)
        direct = cmath.exp(-s * 1.5) * sum(wj * eta**j for j, wj in enumerate(w, start=1))
        got = class2_tail_lst(cfg, s)
        assert isinstance(got, complex)
        assert abs(got - direct) < 1e-12
        assert np.asarray(eta_mm1(np.asarray(s), 0.3, 1.0)) == pytest.approx(eta, abs=1e-14)


def test_class2_tail_lst_nonincreasing_and_log_convex():
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.0, service=EXP)
    ss = np.linspace(0.0, 8.0, 40)
    vals = np.array([class2_tail_lst(cfg, s) for s in ss])
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)
    assert np.all(vals <= class2_tail_lst(cfg, 0.0) + 1e-12)  # bounded by mass
    assert np.all(np.diff(np.log(vals), 2) > -1e-10)


# ----- inversion -----

def fcfs_lst(lam: float, mu: float) -> Lst:
    rho = lam / mu
    gap = mu - lam

    def fn(s):
        return (1 - rho) + rho * gap / (gap + s)

    return Lst(fn=fn, mass=1.0, atom_at_zero=1 - rho, label="fcfs")


def test_invert_fcfs_closed_form():
    lam, mu = 0.8, 1.0
    grid = np.arange(0.0, 20.0 + 1e-9, 0.05)
    curve = invert_to_cdf(fcfs_lst(lam, mu), grid)
    exact = 1.0 - 0.8 * np.exp(-0.2 * grid)
    assert np.max(np.abs(curve.values - exact)) < 1e-6
    assert curve.provenance == "inverted"


def test_invert_point_mass_step():
    # deterministic service LST: unit step at t = 1/mu
    transform = Lst(fn=lambda s: np.exp(-s), mass=1.0, atom_at_zero=0.0, label="det")
    grid = np.arange(0.0, 3.0, 0.05)
    tol = ToleranceConfig(eps_invert=0.05)
    curve = invert_to_cdf(transform, grid, tol)
    assert np.all(curve.values[grid < 0.8] < 0.05)
    assert np.all(curve.values[grid > 1.2] > 0.95)


def test_invert_total_mass_recovered_far_out():
    lam, mu = 0.8, 1.0
    t_far = 60.0 / (mu * (1 - lam / mu))
    curve = invert_to_cdf(fcfs_lst(lam, mu), np.array([0.0, t_far]))
    assert curve.values[-1] == pytest.approx(1.0, abs=1e-8)


def test_invert_monotonizes_and_reports():
    lam, mu = 0.5, 1.0
    grid = np.arange(0.0, 10.0, 0.1)
    curve = invert_to_cdf(fcfs_lst(lam, mu), grid)
    assert np.all(np.diff(curve.values) >= 0)
    assert curve.max_adjustment < 1e-8


def test_invert_accuracy_gate():
    # an impossible accuracy demand must be refused, not silently ignored
    transform = Lst(fn=lambda s: np.exp(-s), mass=1.0, atom_at_zero=0.0)
    with pytest.raises(AccuracyNotMet):
        invert_to_cdf(transform, np.array([1.0]), ToleranceConfig(eps_invert=1e-12))


# ----- assembled class-2 CDF -----

def test_class2_cdf_fcfs_boundary():
    cfg = QueueConfig(0.5, 0.3, 1.0, b=1.0, d=0.0, service=EXP)
    grid = np.arange(0.0, 25.0, 0.05)
    curve = class2_cdf_dapq(cfg, grid)
    exact = 1.0 - 0.8 * np.exp(-0.2 * grid)
    assert np.max(np.abs(curve.values - exact)) < 1e-7


def test_class2_cdf_b0_is_npq_everywhere():
    grid = np.arange(0.0, 30.0, 0.1)
    base = class2_cdf_dapq(QueueConfig(0.5, 0.3, 1.0, b=0.0, d=0.0, service=EXP), grid)
    for d in (1.0, 3.0):
        delayed = class2_cdf_dapq(QueueConfig(0.5, 0.3, 1.0, b=0.0, d=d, service=EXP), grid)
        assert np.max(np.abs(delayed.values - base.values)) < 1e-7


def test_class2_cdf_agrees_with_npq_inside_delay():
    grid = np.arange(0.0, 30.0, 0.1)
    d = 2.0
    npq = class2_cdf_dapq(QueueConfig(0.5, 0.3, 1.0, b=0.0, d=0.0, service=EXP), grid)
    dapq = class2_cdf_dapq(QueueConfig(0.5, 0.3, 1.0, b=0.6, d=d, service=EXP), grid)
    inside = grid <= d
    assert np.max(np.abs(dapq.values[inside] - npq.values[inside])) < 1e-7
    # and strictly dominates beyond the delay when credit is earned
    beyond = grid > d + 1.0
    assert np.all(dapq.values[beyond] > npq.values[beyond])


def test_class2_cdf_monotone_and_proper():
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.0, service=EXP)
    curve = class2_cdf_dapq(cfg, default_grid(cfg))
    assert np.all(np.diff(curve.values) >= 0)
    assert curve.values[0] == pytest.approx(0.2, abs=1e-8)
    assert curve.values[-1] > 1 - 1e-4
    assert curve.max_adjustment < 1e-7


def test_class2_cdf_requires_exponential():
    with pytest.raises(OutOfRange):
        class2_cdf_dapq(QueueConfig(0.5, 0.3, 1.0, b=0.5, d=1.0, service=DET))


def test_class2_cdf_mean_consistency():
    # integrating the survival function over a long horizon recovers the
    # exact mean from the conservation-law machinery
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.0, service=EXP)
    want = dapq_means(cfg).mean_w2
    grid = np.arange(0.0, 140.0, 0.02)
    curve = class2_cdf_dapq(cfg, grid)
    mean = float(np.trapezoid(1.0 - curve.values, grid))
    assert mean == pytest.approx(want, abs=1e-4)


@settings(max_examples=25, deadline=None)
@given(
    rho=st.floats(min_value=0.05, max_value=0.99),
    share=st.floats(min_value=0.0, max_value=1.0),
    b=st.floats(min_value=0.0, max_value=1.0),
    # below t ~ 1e-150 the oracle's z^2 overflows at the contour's largest |s|
    d=st.one_of(st.just(0.0), st.floats(min_value=1e-100, max_value=10.0)),
)
def test_class2_cdf_matches_scalar_full_vector_path(rho, share, b, d):
    cfg = QueueConfig(share * rho, (1.0 - share) * rho, 1.0, b=b, d=d, service=EXP)
    inside = [t for t in (d / 3.0, d - 0.4, d) if t > 0.0]
    ts = np.array([0.0] + sorted(set(inside)) + [d + 0.05, d + 0.5, d + 2.0, d + 12.0])
    curve = class2_cdf_dapq(cfg, ts)
    want, _ = class2_cdf_scalar(cfg, ts)
    assert np.max(np.abs(curve.values - want)) <= 1e-9


@pytest.mark.parametrize("points", [1, 2, 127, 128, 129, 1000])
@pytest.mark.parametrize("where", ["zero", "on_point", "between", "past_end"])
def test_class2_cdf_equals_one_curve_path_bit_for_bit(points, where):
    # the one-row batch against the per-config closure on the 1-D grid it replaced
    rng = np.random.default_rng(points)
    ts = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 12.0, points - 1))))
    k = max(points // 2, 1)
    d = {"zero": 0.0, "on_point": ts[points // 2], "past_end": ts[-1] + 1.5,
         "between": 0.5 * (ts[k - 1] + ts[k]) if points > 1 else 0.7}[where]
    # a grid that ends at or before d reads no busy weights and builds none
    for lam1, lam2, b in ((0.5, 0.3, 0.6), (0.2, 0.7, 0.1), (0.9, 0.05, 0.9)):
        cfg = QueueConfig(lam1, lam2, 1.0, b=b, d=float(d))
        got, want = class2_cdf_dapq(cfg, ts), class2_cdf_by_grid(cfg, ts)
        assert np.array_equal(got.values, want.values)
        assert (got.error_estimate, got.max_adjustment, got.head_states, got.provenance) == (
            want.error_estimate, want.max_adjustment,
            want.head_states if ts[-1] > d else 0, want.provenance)


def _rows_of(configs):
    """Each config's over-delay inversion inputs: accrediting rate and busy weights."""
    return ([cfg.lambda1 * (1.0 - cfg.b) for cfg in configs],
            [busy_state_distribution(cfg) for cfg in configs])


@pytest.mark.parametrize("points", [1, 127, 128, 129, 256, 257])
def test_curves_equal_their_per_point_inversions_bit_for_bit(points):
    # points are inverted 128 to a block and the last block is short, yet
    # no point depends on its block or neighbours
    ts = np.sort(np.random.default_rng(points).uniform(1e-3, 15.0, points))[None, :]
    lams, weights = _rows_of([QueueConfig(0.5, 0.3, 1.0, b=0.6, d=2.0),
                              QueueConfig(0.9, 0.05, 1.0, b=0.9, d=7.0)])
    for lam, w in zip(lams, weights):
        for row in ([w], [BusyWeights(np.zeros(0), w.rho, (1.0 - w.rho) * w.rho)]):
            vals, est = transforms._invert_over_delay_rows(ts, lam, 1.0, row, DEFAULT_TOL)
            for i in range(points):
                one = transforms._invert_over_delay_rows(ts[:, [i]], lam, 1.0, row, DEFAULT_TOL)
                assert (one[0][0, 0], one[1][0, 0]) == (vals[0, i], est[0, i])


def test_a_ragged_batch_equals_its_one_row_inversions_bit_for_bit():
    # heads of 0 to about 50 states, each row with its own rate and abscissae,
    # on two full blocks and a short last one
    configs = [QueueConfig(0.5, 0.3, 1.0, b=0.6, d=2.0), QueueConfig(0.2, 0.7, 1.0, b=0.1),
               QueueConfig(0.9, 0.05, 1.0, b=0.9, d=9.0), QueueConfig(0.4, 0.18, 1.0, b=0.3, d=0.5),
               QueueConfig(0.6, 0.3, 1.0, b=0.5, d=4.0)]
    lams, weights = _rows_of(configs)
    assert len({len(w) for w in weights}) == len(configs)
    rng = np.random.default_rng(11)
    ts = np.sort(rng.uniform(1e-3, 20.0, (len(configs), 2 * 128 + 37)), axis=1)
    vals, est = transforms._invert_over_delay_rows(
        ts, np.array(lams), 1.0, weights, DEFAULT_TOL)
    for r, (lam, w) in enumerate(zip(lams, weights)):
        one = transforms._invert_over_delay_rows(ts[[r]], lam, 1.0, [w], DEFAULT_TOL)
        assert np.array_equal(one[0][0], vals[r]) and np.array_equal(one[1][0], est[r])


@pytest.mark.parametrize("b", [0.0, 0.3, 0.9, 1.0])
def test_the_derivative_rides_in_the_value_call_and_changes_no_value(b):
    # values and estimates of a value-and-derivative call equal the
    # value-only call's bit for bit; dF/da of the over-delay rows (ragged
    # heads) and dF/drho of the strict-priority rows match a second-order
    # forward difference (a = 0 at b = 1, so no central one) to 1e-6
    configs = [QueueConfig(0.5, 0.3, 1.0, d=2.0), QueueConfig(0.2, 0.7, 1.0),
               QueueConfig(0.9, 0.05, 1.0, d=9.0), QueueConfig(0.4, 0.18, 1.0, d=0.5)]
    _, weights = _rows_of(configs)
    ts = np.array([[4.0, 9.0], [0.5, 3.0], [2.0, 30.0], [1.0, 6.0]])
    lam = np.array([cfg.lambda1 * (1.0 - b) for cfg in configs])
    vals, est = transforms._invert_over_delay_rows(ts, lam, 1.0, weights, DEFAULT_TOL)
    pair = transforms._invert_over_delay_rows(ts, lam, 1.0, weights, DEFAULT_TOL, slope=True)
    assert np.array_equal(pair[0], vals) and np.array_equal(pair[1], est)
    h = 1e-5
    one, two = (transforms._invert_over_delay_rows(ts, lam + k * h, 1.0, weights, DEFAULT_TOL)[0]
                for k in (1, 2))
    assert np.allclose(pair[2], (4.0 * one - two - 3.0 * vals) / (2.0 * h), rtol=1e-6, atol=1e-9)

    rho = np.array([0.3, 0.6, 0.95, 0.8])
    lam1 = rho * np.array([0.5, 0.1, 0.9, 0.3])
    vals, est = transforms._npq_cdf_rows(ts, lam1, rho, 1.0, DEFAULT_TOL)
    pair = transforms._npq_cdf_rows(ts, lam1, rho, 1.0, DEFAULT_TOL, slope=True)
    assert np.array_equal(pair[0], vals) and np.array_equal(pair[1], est)
    one, two = (transforms._npq_cdf_rows(ts, lam1, rho + k * h, 1.0, DEFAULT_TOL)[0]
                for k in (1, 2))
    assert np.allclose(pair[2], (4.0 * one - two - 3.0 * vals) / (2.0 * h), rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("eps", [1e-8, 1e-9, 1e-10])
@pytest.mark.parametrize("lam1, lam2, d, t", [
    (0.9, 0.09, 10.0, 600.0), (0.5, 0.45, 2.0, 200.0), (0.5, 0.3, 3.27, 30.0)])
def test_class2_cdf_is_certified_against_the_first_passage_walk(lam1, lam2, d, t, eps):
    # a reference that is not Euler's: the uniformized first-passage walk,
    # exact to about 1e-14.  The error reaches 1.05e-9 at eps_invert = 1e-8
    # and 1.3e-11 at 1e-10, above the larger of the two parts' estimates
    # plus one exp(-A) at 7 of these points; their sum plus two exp(-A) and
    # the weights' jump cut bounds it at all 9
    cfg = QueueConfig(lam1, lam2, 1.0, b=0.5, d=d)
    curve = class2_cdf_dapq(cfg, np.array([t]), ToleranceConfig(eps_invert=eps))
    error = abs(curve.values[0] - class2_cdf_by_first_passage(cfg, t))
    assert error <= curve.error_estimate <= eps


@pytest.mark.parametrize("cfg, grid", [
    (QueueConfig(0.5, 0.3, 1.0, b=0.55, d=3.27), None),
    (QueueConfig(0.5, 0.45, 1.0, b=0.35, d=2.2), None),
    (QueueConfig(0.9, 0.09, 1.0, b=0.5, d=10.0), np.arange(0.0, 19.6 + 1e-12, 0.4)),
])
def test_kernel_agrees_with_the_two_root_division_kernel(cfg, grid):
    # the one-root eta and t-free Euler weights against the kernel they
    # replaced, which divided fn(s) by s and took two roots per eta
    got = class2_cdf_dapq(cfg, grid)
    old = class2_cdf_by_grid(cfg, grid, eta=eta_by_two_roots, invert=euler_invert_by_division)
    assert np.max(np.abs(got.values - old.values)) <= 1e-11
    assert abs(got.error_estimate - old.error_estimate) <= 1e-11
    assert got.head_states == old.head_states


def test_a_transform_may_compute_in_place_on_its_s():
    # s is the transform's own: G(s) = mu/(mu + s) computed over s inverts
    # to the same values and estimates as the same G in a fresh array
    mu, ts = 1.0, np.array([0.5, 1.0, 2.0, 4.0])

    def in_place(s):
        np.add(s, mu, out=s)
        np.divide(mu, s, out=s)
        return s[None]

    fresh = transforms._euler_invert(lambda s: (mu / (mu + s))[None], ts, DEFAULT_TOL)
    spent = transforms._euler_invert(in_place, ts, DEFAULT_TOL)
    assert np.array_equal(spent[0], fresh[0]) and np.array_equal(spent[1], fresh[1])
    assert np.max(np.abs(fresh[0] - (1.0 - np.exp(-mu * ts)))) < DEFAULT_TOL.eps_invert
    assert np.max(fresh[1]) < 1e-15


def test_inversion_refuses_non_finite_values():
    # at t = 1e-310 the contour nodes (A/2 + i k pi)/t overflow: a class-2
    # curve refuses the abscissa before inverting, and the NaN that a bare
    # inversion produces must fail the accuracy gate, not be returned as a value
    cfg = QueueConfig(0.25, 0.5, 1.0, b=0.5, d=1.0, service=EXP)
    with pytest.raises(OutOfRange, match="abscissa 1e-310 lies below the smallest invertible t"):
        class2_cdf_dapq(cfg, np.array([0.0, 1e-310, 0.5, 2.0]))
    with np.errstate(all="ignore"), pytest.raises(AccuracyNotMet):
        invert_to_cdf(fcfs_lst(0.5, 1.0), np.array([1e-310]))


def test_class2_cdf_names_the_smallest_invertible_abscissa():
    # the bound is the largest contour node over the largest float: there the
    # inversion runs without an overflow, one float below it the curve refuses
    # its d, a point in (0, d] or a t - d beyond d, whichever is too small
    a = _euler_params(DEFAULT_TOL.eps_invert)
    t_min = abs(a / 2.0 + 1j * math.pi * (_N_BURN + _N_AVG)) / sys.float_info.max
    below = np.nextafter(t_min, 0.0)
    cfg = QueueConfig(0.25, 0.25, 1.0, b=0.5, d=0.0, service=EXP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert class2_cdf_dapq(cfg.replace(d=t_min), [t_min, 2.0 * t_min, 1.0]).values[0] >= 0.5
    for d, grid in ((below, [1.0]), (1e-308, [1.0]), (1.0, [below, 1.0]),
                    (1e-300, [1e-300 + 1e-310])):
        with pytest.raises(OutOfRange, match=f"smallest invertible t = {t_min:.6g},"):
            class2_cdf_dapq(cfg.replace(d=d), grid)


@pytest.mark.parametrize("d", [0.0, 2.0])
def test_class2_cdf_on_an_empty_grid_is_an_empty_curve(d):
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=d, service=EXP)
    curve = class2_cdf_dapq(cfg, np.zeros(0))
    assert curve.ts.shape == curve.values.shape == (0,)
    assert curve.max_adjustment == 0.0
    assert 0.0 < curve.error_estimate <= DEFAULT_TOL.eps_invert


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_class2_cdf_rejects_non_finite_abscissae(bad):
    # NaN compares false with 0 and d, so it would land in no part of the
    # curve and read F = 0
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.0, service=EXP)
    with pytest.raises(OutOfRange, match="finite"):
        class2_cdf_dapq(cfg, np.array([0.0, 1.0, bad, 3.0]))


def test_class2_cdf_rejects_out_of_order_abscissae():
    # the clamp runs in array order, so [5, 1] would read F(5) at t = 1
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.0, service=EXP)
    with pytest.raises(OutOfRange, match="nondecreasing"):
        class2_cdf_dapq(cfg, np.array([5.0, 1.0]))
    # equal abscissae stay valid and read the same value
    repeated = class2_cdf_dapq(cfg, np.array([1.0, 1.0, 5.0, 5.0]))
    once = class2_cdf_dapq(cfg, np.array([1.0, 5.0]))
    assert np.array_equal(repeated.values, np.repeat(once.values, 2))


def test_accuracy_gate_is_one_for_curves_and_rows():
    # the curve path and the KPI rows certify through the same gate: the
    # worst estimate plus exp(-A) against eps_invert, NaN failing
    tol = DEFAULT_TOL
    floor = math.exp(-transforms._euler_params(tol.eps_invert))
    worst = np.array([0.0, tol.eps_invert - floor, tol.eps_invert, math.nan])
    assert np.array_equal(transforms._accuracy_gate(worst[:2], tol), worst[:2] + floor)
    # a batch raises the error of its first failed entry
    with pytest.raises(AccuracyNotMet, match=f"{tol.eps_invert + floor:.3e} exceeds"):
        transforms._accuracy_gate(worst, tol)
    with pytest.raises(AccuracyNotMet, match="nan"):
        transforms._accuracy_gate(worst[3:], tol)
    for w, passes in zip(worst.tolist(), [True, True, False, False]):
        ts, raw = np.array([1.0]), np.array([0.5])
        if passes:
            curve = transforms._certified_curve(ts, raw, w, tol)
            assert curve.error_estimate == w + floor
        else:
            with pytest.raises(AccuracyNotMet):
                transforms._certified_curve(ts, raw, w, tol)


def test_class2_cdf_tiny_abscissae():
    # near 0 the CDF is the atom 1 - rho plus P[one ahead] * mu * t, since a
    # wait that short needs exactly one service to finish; with a tiny
    # accrediting rate the old (z - sqrt(.)) / (2a) form of eta lost every
    # digit at the contour's |s| ~ 1e9 / t
    cfg = QueueConfig(1e-7, 0.5, 1.0, b=0.0, d=1.0, service=EXP)
    ts = np.array([1e-200, 1e-12, 1e-9])
    curve = class2_cdf_dapq(cfg, ts)
    rho = cfg.lambda1 + cfg.lambda2
    assert np.allclose(curve.values - (1 - rho), (1 - rho) * rho * ts, rtol=0, atol=1e-15)


def test_class2_cdf_reports_how_it_was_computed():
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.0, service=EXP)
    curve = class2_cdf_dapq(cfg, np.arange(0.0, 30.0, 0.1))
    assert math.exp(-(-math.log(1e-8) + 2.3)) <= curve.error_estimate <= 1e-8
    assert curve.head_states == len(busy_state_distribution(cfg))


def test_class2_cdf_with_no_point_past_d_builds_no_busy_weights():
    # the head at d = 260 would need 402 states, past max_states = 400; a
    # grid ending before d reads only the strict-priority CDF
    cfg, tol = QueueConfig(0.1, 0.1, 1.0, b=0.5, d=260.0), ToleranceConfig(max_states=400)
    with pytest.raises(TruncationOverflow, match="busy-state head needs 402 states"):
        busy_state_distribution(cfg, tol)
    ts = np.arange(0.0, 100.0)
    curve = class2_cdf_dapq(cfg, ts, tol)
    assert len(curve.values) == 100 and curve.head_states == 0
    longer = np.append(ts, 260.5)
    assert np.array_equal(curve.values, class2_cdf_dapq(cfg, longer).values[:100])
    with pytest.raises(TruncationOverflow, match="402 states"):
        class2_cdf_dapq(cfg, longer, tol)


def test_class2_cdf_heavy_traffic_long_delay_default_grid():
    # 27,611 points; the full-vector scalar path took minutes on this grid
    cfg = QueueConfig(0.9, 0.09, 1.0, b=0.5, d=10.0, service=EXP)
    curve = class2_cdf_dapq(cfg)
    assert len(curve.ts) == 27_611
    assert curve.values[0] == pytest.approx(0.01, abs=1e-8)
    assert np.all(np.diff(curve.values) >= 0)
    assert np.all((curve.values >= 0.0) & (curve.values <= 1.0))
    assert curve.values[-1] > 0.999
    assert curve.error_estimate <= 1e-8
    assert curve.max_adjustment < 1e-7
