import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import poisson

from _oracles import (
    busy_weights_by_loop,
    busy_weights_first_moment,
    class1_mean_from_class2,
    class2_mean_in_b,
    conservation_rhs,
    correction_by_matrix,
    fcfs_mean,
    md1_correction_sum_by_series,
    md1_pi_embedded,
    md1_probempty_by_factorials,
    moment_cut_scalar,
    npq_class2_mean,
    poisson_horizon_scalar,
    x_rows_by_matrix,
)
from dapq.cli import EXIT_NUMERICAL, main
from dapq.core import (
    DEFAULT_TOL,
    AccuracyNotMet,
    InvalidDelay,
    NoClass1,
    OutOfRange,
    QueueConfig,
    ServiceKind,
    ToleranceConfig,
    TruncationOverflow,
    validate,
)
from dapq import mean_wait
from dapq.markov import StationaryDist, _busy_weights_rows, _delay_weights, _jump_cuts
from dapq.mean_wait import (
    _MD1_NODES,
    _log_factorials,
    _md1_correction_sum,
    _md1_probempty_matrix,
    dapq_means,
    md1_dapq_class2_mean,
    mm1_dapq_class2_mean,
)

EXP = ServiceKind.EXPONENTIAL
DET = ServiceKind.DETERMINISTIC


def test_fcfs_mean_values():
    assert fcfs_mean(QueueConfig(0.5, 0.3, 1.0, service=EXP)) == pytest.approx(4.0)
    assert fcfs_mean(QueueConfig(0.5, 0.3, 1.0, service=DET)) == pytest.approx(2.0)
    assert fcfs_mean(QueueConfig(0.0, 0.0, 1.0)) == 0.0


def test_npq_class2_mean_values():
    assert npq_class2_mean(QueueConfig(0.5, 0.3, 1.0, service=EXP)) == pytest.approx(8.0)
    assert npq_class2_mean(QueueConfig(0.5, 0.3, 1.0, service=DET)) == pytest.approx(4.0)
    # single class: reduces to FCFS
    cfg = QueueConfig(0.0, 0.6, 1.0, service=EXP)
    assert npq_class2_mean(cfg) == pytest.approx(fcfs_mean(cfg), abs=1e-14)


def chain_rows(rates, k_max):
    """x rows 1..k_max: (pi_+ P_+^k)_l / (1-rho) for l = 1..k.

    One run of ``markov._busy_weights_rows`` with row k's jump weights the
    unit vector at step k, cut at k: its head is the chain's state after k
    steps, states 1..k, which are exact however many states the run keeps.
    """
    steps = range(1, k_max + 1)
    run, _ = _busy_weights_rows(rates, [np.eye(k + 1)[k] for k in steps], list(steps), k_max)
    return [weights.head / (1.0 - rates.rho) for weights in run]


def drift_moment(cfg, rates, tol):
    """The b-free M/M/1 correction: the one-delay, headless ``_delay_weights``."""
    [(head, moment)], _ = _delay_weights(rates, [cfg.d], tol, [False], [True])
    assert head is None
    if isinstance(moment, TruncationOverflow):
        raise moment
    return moment


def test_x_table_first_entry_and_edge():
    rates = validate(QueueConfig(0.5, 0.3, 1.0, service=EXP))
    rows = chain_rows(rates, 10)
    q, r, p = rates.q_down, rates.r_coef, rates.p_up
    assert rows[0][0] == pytest.approx(q * 0.8**2, abs=1e-15)
    assert rows[0][0] == pytest.approx(r - p, abs=1e-15)
    for k in range(1, 11):
        assert rows[k - 1][-1] == pytest.approx(r**k - p**k, rel=1e-12)


def test_x_table_base_case_follows_matrix_not_typo():
    # the recursion-consistent second-row head is q*rho*r
    rates = validate(QueueConfig(0.5, 0.3, 1.0, service=EXP))
    rows = chain_rows(rates, 3)
    q, r, p = rates.q_down, rates.r_coef, rates.p_up
    assert rows[1][0] == pytest.approx(q * 0.8 * r, rel=1e-14)
    assert rows[1][0] != pytest.approx(q * r * p, rel=1e-3)


@pytest.mark.parametrize("lam1", [0.5, 0.2])
def test_x_table_matches_matrix_oracle(lam1):
    lam2 = 0.3
    rho = lam1 + lam2
    rates = validate(QueueConfig(lam1, lam2, 1.0, service=EXP))
    rows = chain_rows(rates, 25)
    oracle = x_rows_by_matrix(lam1, 1.0, rho, 25)
    for k in range(1, 26):
        assert np.max(np.abs(rows[k - 1] - oracle[k - 1])) < 1e-12


@pytest.mark.parametrize(
    "lam1,lam2,d", [(0.5, 0.3, 2.0), (0.9, 0.09, 0.1), (0.02, 0.97, 0.1), (0.02, 0.97, 0.5)]
)
def test_mm1_correction_sum_within_half_eps_series(lam1, lam2, d):
    # the cut must bound the geometric states of the missed steps too: at
    # occupancy 0.99 and a short delay they dominate the remainder
    cfg = QueueConfig(lam1, lam2, 1.0, d=d, service=EXP)
    want = correction_by_matrix(lam1, 1.0, lam1 + lam2, d, size=6000)
    got = drift_moment(cfg, validate(cfg), DEFAULT_TOL)
    assert abs(got - want) <= 0.5 * DEFAULT_TOL.eps_series


@pytest.mark.parametrize("lam1,lam2,mu,d", [
    (0.5, 0.3, 1.0, 2.0), (0.9, 0.09, 1.0, 10.0), (0.02, 0.97, 1.0, 0.5),
    (0.1, 0.89, 1.0, 300.0), (0.891, 0.099, 1.0, 300.0), (0.05, 0.0, 1.0, 7.0),
    (0.0, 0.6, 1.0, 4.0), (0.02, 0.03, 1.0, 40.0), (3.0, 0.5, 4.0, 263.0),
    (3.5, 0.45, 4.0, 265.0),
])
def test_drift_moment_matches_the_snapshot_and_a_deep_cut(lam1, lam2, mu, d):
    # the correction from the ahead-set walk's drift against the first
    # moment of busy weights whose head is as long as the moment cut, and
    # against those of a jump sum run to the end of the Poisson table; the
    # grid reaches occupancy 0.99, d = 300 and nu d = 2,000
    cfg = QueueConfig(lam1, lam2, mu, d=d, service=EXP)
    rates, tol = validate(cfg), DEFAULT_TOL
    got = drift_moment(cfg, rates, tol)
    pmf, _, cut = _jump_cuts(rates.nu * d, rates.rho, tol)
    snapshot = busy_weights_first_moment(busy_weights_by_loop(rates, pmf[: cut + 1]))
    assert abs(got - snapshot) <= 0.5 * tol.eps_series
    top = int(rates.nu * d + 12.0 * math.sqrt(rates.nu * d + 1.0) + 40.0)
    deep_pmf = poisson.pmf(np.arange(top + 1), rates.nu * d)
    deep = busy_weights_first_moment(busy_weights_by_loop(rates, deep_pmf))
    assert abs(got - deep) <= 0.5 * tol.eps_series


def test_mm1_reduces_to_npq_at_b_zero():
    for d in (0.0, 1.0, 5.0):
        cfg = QueueConfig(0.5, 0.3, 1.0, b=0.0, d=d, service=EXP)
        assert mm1_dapq_class2_mean(cfg) == pytest.approx(npq_class2_mean(cfg), abs=1e-10)


def test_mm1_reduces_to_fcfs_at_b_one_d_zero():
    for lam1, lam2 in [(0.5, 0.3), (0.2, 0.7), (0.05, 0.6)]:
        cfg = QueueConfig(lam1, lam2, 1.0, b=1.0, d=0.0, service=EXP)
        assert mm1_dapq_class2_mean(cfg) == pytest.approx(fcfs_mean(cfg), abs=1e-10)


def test_mm1_mean_against_matrix_oracle():
    for lam1, lam2, b, d in [(0.5, 0.3, 0.5, 2.0), (0.2, 0.7, 0.5, 2.0), (0.5, 0.3, 1.0, 4.0)]:
        cfg = QueueConfig(lam1, lam2, 1.0, b=b, d=d, service=EXP)
        rho = lam1 + lam2
        rho1a = lam1 * (1 - b)
        factor = lam1 * b / ((1 - rho1a) * (1 - lam1))
        expected = npq_class2_mean(cfg) - factor * correction_by_matrix(lam1, 1.0, rho, d)
        assert mm1_dapq_class2_mean(cfg) == pytest.approx(expected, abs=1e-10)


def test_mm1_mean_sits_between_extremes():
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.0, service=EXP)
    val = mm1_dapq_class2_mean(cfg)
    assert fcfs_mean(cfg) < val < npq_class2_mean(cfg)
    assert val == pytest.approx(5.789561362696921, abs=1e-9)  # regression pin


def test_mm1_requires_exponential_service():
    with pytest.raises(OutOfRange):
        mm1_dapq_class2_mean(QueueConfig(0.5, 0.3, 1.0, b=0.5, d=1.0, service=DET))


def test_md1_reduces_to_npq_at_b_zero():
    for d in (0.0, 1.0, 4.0):
        cfg = QueueConfig(0.5, 0.3, 1.0, b=0.0, d=d, service=DET)
        assert md1_dapq_class2_mean(cfg) == pytest.approx(npq_class2_mean(cfg), abs=1e-10)


def test_md1_reduces_to_fcfs_at_b_one_d_zero():
    for lam1, lam2 in [(0.5, 0.3), (0.2, 0.7), (0.05, 0.6)]:
        cfg = QueueConfig(lam1, lam2, 1.0, b=1.0, d=0.0, service=DET)
        assert md1_dapq_class2_mean(cfg) == pytest.approx(fcfs_mean(cfg), abs=1e-10)


def test_md1_rejects_fractional_delay():
    with pytest.raises(InvalidDelay):
        md1_dapq_class2_mean(QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.5, service=DET))


def test_md1_reference_values():
    # values cross-validated against the replicated event simulation
    # (z-scores below 1 at 50 replications); pinned here to full precision
    cases = {
        (0.5, 0.3, 0.5, 2.0): 3.081335068936494,
        (0.2, 0.7, 0.5, 2.0): 5.171442610689,
        (0.5, 0.3, 0.5, 3.0): 3.2302842525415203,
    }
    for (l1, l2, b, d), want in cases.items():
        cfg = QueueConfig(l1, l2, 1.0, b=b, d=d, service=DET)
        got = md1_dapq_class2_mean(cfg)
        assert got == pytest.approx(want, abs=1e-9)
        assert got < npq_class2_mean(cfg)


@settings(max_examples=12, deadline=None)
@given(
    rho=st.floats(min_value=0.05, max_value=0.9),
    share=st.floats(min_value=1e-9, max_value=1.0),
    ell=st.integers(min_value=1, max_value=10),
)
def test_md1_closed_form_matches_series(rho, share, ell):
    # the j-series it replaced, one quadrature node at a time, summed far
    # past its default stopping point
    tol = ToleranceConfig(eps_series=1e-15)
    cfg = QueueConfig(share * rho, (1.0 - share) * rho, 1.0, b=0.5, d=float(ell), service=DET)
    rates = validate(cfg)
    want = md1_correction_sum_by_series(ell, rates.rho1, rates.rho, tol)
    got = _md1_correction_sum(cfg, rates, tol)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("ell", [2, 5, 20])
@pytest.mark.parametrize("lam1", [0.05, 0.5, 0.9])
def test_md1_probempty_matrix_folds_arrival_factor(lam1, ell):
    ms = np.arange(1, ell + 1)
    T = _md1_probempty_matrix(lam1, ms, _log_factorials(ell))
    assert T[0, 0] == 1.0 and not T[0, 1:].any() and not T[1:, 0].any()
    scaled = md1_probempty_by_factorials(ell, lam1) * np.exp(-lam1 * (ms[1:] - 1.0))
    np.testing.assert_allclose(T[1:, 1:], scaled, rtol=1e-13, atol=0.0)


def test_md1_probempty_matrix_bounded_at_long_delays():
    # the unscaled coefficients overflow from about l = 150
    ms = np.arange(1, 1001)
    T = _md1_probempty_matrix(0.9, ms, _log_factorials(1000))
    assert np.all(np.isfinite(T)) and T.min() >= 0.0 and T.max() <= 1.0


def _md1_correction_at_nodes(monkeypatch, nodes, cfg, rates):
    """``_md1_correction_sum`` with a ``nodes``-point residual-service rule."""
    with monkeypatch.context() as patch:
        patch.setattr(mean_wait, "_MD1_NODES", nodes)
        return _md1_correction_sum(cfg, rates, DEFAULT_TOL)


@pytest.mark.parametrize("ell", [1, 8, 30])
@pytest.mark.parametrize("share", [0.05, 0.5, 0.95])
def test_md1_heavy_traffic(share, ell, monkeypatch):
    # at occupancy 0.99 the j-series needed about 80 s for one mean
    cfg = QueueConfig(0.99 * share, 0.99 * (1.0 - share), 1.0, b=0.7, d=float(ell), service=DET)
    rates = validate(cfg)
    start = time.perf_counter()
    mean = md1_dapq_class2_mean(cfg)
    assert time.perf_counter() - start < 0.25
    npq = npq_class2_mean(cfg)
    assert fcfs_mean(cfg) <= mean <= npq * (1.0 + 1e-12)
    coarse = _md1_correction_at_nodes(monkeypatch, 32, cfg, rates)
    fine = _md1_correction_at_nodes(monkeypatch, 64, cfg, rates)
    assert abs(coarse - fine) <= 1e-13 * max(1.0, fine)


@pytest.mark.parametrize("ell", [1, 8, 30, 200, 500])
@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.99])
def test_md1_default_rule_agrees_with_64_nodes(rho, ell, monkeypatch):
    # the default residual-service rule has 32 nodes; the worst measured
    # gap to 64 nodes over these configs is 1.9e-16 relative
    assert _MD1_NODES == 32
    for share in (0.05, 0.5, 0.95):
        cfg = QueueConfig(rho * share, rho * (1.0 - share), 1.0, b=0.5, d=float(ell), service=DET)
        rates = validate(cfg)
        got = _md1_correction_sum(cfg, rates, DEFAULT_TOL)
        fine = _md1_correction_at_nodes(monkeypatch, 64, cfg, rates)
        assert abs(got - fine) <= 1e-14 * max(1.0, abs(fine))


@pytest.mark.parametrize("rho", [0.5, 0.99])
@pytest.mark.parametrize("share", [0.1, 0.9])
def test_md1_long_delays_tend_to_npq(rho, share):
    # l = d*mu from about 150 used to overflow the first-emptying coefficients
    gaps = []
    for ell in (150, 400, 1000):
        cfg = QueueConfig(rho * share, rho * (1.0 - share), 1.0, b=1.0, d=float(ell), service=DET)
        mean = md1_dapq_class2_mean(cfg)
        npq = npq_class2_mean(cfg)
        assert math.isfinite(mean)
        assert fcfs_mean(cfg) <= mean <= npq * (1.0 + 1e-12)
        gaps.append(npq - mean)
    slack = 1e-12 * npq
    assert gaps[0] + slack >= gaps[1] and gaps[1] + slack >= gaps[2]
    assert gaps[2] <= 0.2 * gaps[0] + slack


def test_md1_long_delay_above_state_cap_is_typed():
    cfg = QueueConfig(0.45, 0.05, 1.0, b=1.0, d=200.0, service=DET)
    assert md1_dapq_class2_mean(cfg) <= npq_class2_mean(cfg)
    with pytest.raises(TruncationOverflow):
        md1_dapq_class2_mean(cfg, ToleranceConfig(max_states=150))
    with pytest.raises(TruncationOverflow):
        md1_dapq_class2_mean(cfg.replace(d=7000.0))


def test_md1_heavy_traffic_mean_reads_only_the_pmf_head_it_needs(monkeypatch):
    # at occupancy 0.999 the pmf's tail mass stays above 1e-10 for thousands
    # of terms, but the mean at d = 5 reads pi_0..pi_5
    cfg = QueueConfig(0.5, 0.499, 1.0, b=0.5, d=5.0, service=DET)
    rates = validate(cfg)
    got = dapq_means(cfg)
    assert fcfs_mean(cfg) <= got.mean_w2 <= npq_class2_mean(cfg)
    pi = np.array(md1_pi_embedded(rates.rho, 5)[:6])
    monkeypatch.setattr(mean_wait, "md1_stationary",
                        lambda rho, terms, tol: StationaryDist(probs=pi[: terms + 1],
                                                               truncation_K=terms))
    want = dapq_means(cfg)
    assert abs(got.mean_w2 - want.mean_w2) <= 1e-12 * want.mean_w2
    assert abs(got.mean_w1 - want.mean_w1) <= 1e-12 * want.mean_w1


@pytest.mark.parametrize("lam", [1e-300, 1e-308, 1e-310])
def test_md1_mean_at_vanishing_load(lam):
    # the pmf past pi_1 underflows at these loads (and below about 4e-306 the
    # pgf's pole lies beyond the largest float), so its head is a closed form
    cfg = QueueConfig(lam, lam, 1.0, b=0.5, d=5.0, service=DET)
    mean = md1_dapq_class2_mean(cfg)
    assert fcfs_mean(cfg) <= mean <= npq_class2_mean(cfg)


@pytest.mark.filterwarnings("error")
def test_md1_mean_is_quiet_where_the_poisson_argument_underflows():
    # lambda1 (a - r) underflows to 0 in the upper Poisson moments: log 0 =
    # -inf gives a first term of exactly 0, with no divide-by-zero warning,
    # and the means are those the warning came with
    summary = dapq_means(QueueConfig(5e-324, 5e-324, 1.0, b=0.5, d=5.0, service=DET))
    assert (summary.mean_w1, summary.mean_w2) == (0.0, 5e-324)


# roundings a rescaled mean, slope or rate may differ by
_RESCALE_ULPS = 4


def test_md1_mu_rescaling():
    # the same dimensionless problem at another clock speed, for both
    # service kinds: the mean and its slope in b at (lam1, lam2, mu, b, d)
    # are those at (lam1/mu, lam2/mu, 1, b, d mu) over mu, and the rate
    # giving a mean at mu is the one giving mean*mu at mu = 1, each to a few
    # roundings: of npq (the largest value the mean takes) for the mean, of
    # itself for the slope, and of npq over the slope for the rate
    for service, mu, ell in itertools.product((EXP, DET), (2.0, 0.3), (0, 2)):
        cfg = QueueConfig(0.5 * mu, 0.3 * mu, mu, d=ell / mu, service=service)
        unit = QueueConfig(cfg.lambda1 / mu, cfg.lambda2 / mu, 1.0, d=cfg.d * mu,
                           service=service)
        at_mu, at_one = class2_mean_in_b(cfg), class2_mean_in_b(unit)
        ulp = _RESCALE_ULPS * np.spacing(at_mu(0.0))
        for b in (0.5, 1.0):
            mean, slope = at_mu(b), at_mu.slope(b)
            assert abs(mean - at_one(b) / mu) <= ulp
            assert abs(slope - at_one.slope(b) / mu) <= _RESCALE_ULPS * np.spacing(-slope)
            assert abs(at_mu.rate_for(mean) - at_one.rate_for(mean * mu)) <= ulp / -slope


def test_dapq_means_npq_closed_forms():
    summary = dapq_means(QueueConfig(0.5, 0.3, 1.0, b=0.0, d=3.0, service=EXP))
    assert summary.mean_w1 == pytest.approx(1.6, abs=1e-10)
    assert summary.mean_w2 == pytest.approx(8.0, abs=1e-10)


def test_dapq_means_fcfs_boundary():
    for service in (EXP, DET):
        cfg = QueueConfig(0.5, 0.3, 1.0, b=1.0, d=0.0, service=service)
        summary = dapq_means(cfg)
        assert summary.mean_w1 == pytest.approx(fcfs_mean(cfg), abs=1e-10)
        assert summary.mean_w2 == pytest.approx(fcfs_mean(cfg), abs=1e-10)


def test_dapq_means_surfaces_no_class1():
    with pytest.raises(NoClass1):
        dapq_means(QueueConfig(0.0, 0.5, 1.0, b=0.5, d=1.0, service=EXP))


def test_dapq_means_conservation_grid():
    lam_pairs = [(0.05, 0.05), (0.05, 0.5), (0.25, 0.25), (0.5, 0.3), (0.2, 0.6)]
    for service in (EXP, DET):
        for lam1, lam2 in lam_pairs:
            for b in (0.0, 0.5, 1.0):
                for d in (0.0, 2.0):
                    cfg = QueueConfig(lam1, lam2, 1.0, b=b, d=d, service=service)
                    assert dapq_means(cfg).conservation_residual < 1e-8


def test_mean_monotone_in_b_and_d():
    # class-1 mean rises with b at fixed d and falls with d at fixed b
    w1_by_b = [
        dapq_means(QueueConfig(0.5, 0.3, 1.0, b=b, d=2.0, service=EXP)).mean_w1
        for b in np.linspace(0.0, 1.0, 9)
    ]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(w1_by_b, w1_by_b[1:]))
    w1_by_d = [
        dapq_means(QueueConfig(0.5, 0.3, 1.0, b=0.5, d=d, service=EXP)).mean_w1
        for d in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(w1_by_d, w1_by_d[1:]))
    # class-2 mirrors in the opposite direction
    w2_by_b = [
        dapq_means(QueueConfig(0.5, 0.3, 1.0, b=b, d=2.0, service=EXP)).mean_w2
        for b in np.linspace(0.0, 1.0, 9)
    ]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(w2_by_b, w2_by_b[1:]))


def test_class2_never_favored():
    # class-2 mean is at least the class-1 mean whenever b < 1 or d > 0
    rng = np.random.default_rng(71)
    for _ in range(40):
        lam1 = rng.uniform(0.05, 0.6)
        lam2 = rng.uniform(0.05, min(0.9 - lam1, 0.6))
        b = rng.uniform(0.0, 1.0)
        d = float(rng.integers(0, 5))
        service = EXP if rng.random() < 0.5 else DET
        s = dapq_means(QueueConfig(lam1, lam2, 1.0, b=b, d=d, service=service))
        assert s.mean_w2 >= s.mean_w1 - 1e-10
        assert s.mean_w1 >= 0.0


def test_md1_below_mm1_at_equal_parameters():
    for b in (0.0, 0.5, 1.0):
        for d in (0.0, 1.0, 3.0):
            exp_cfg = QueueConfig(0.5, 0.3, 1.0, b=b, d=d, service=EXP)
            det_cfg = QueueConfig(0.5, 0.3, 1.0, b=b, d=d, service=DET)
            assert dapq_means(det_cfg).mean_w2 <= dapq_means(exp_cfg).mean_w2 + 1e-12
            assert dapq_means(det_cfg).mean_w1 <= dapq_means(exp_cfg).mean_w1 + 1e-12


@pytest.mark.parametrize("eps", [1e-17, 1e-12, 5e-11, 1e-8, 1e-6])
@pytest.mark.parametrize("rho", [0.1, 0.8, 0.99])
def test_poisson_ksum_cutoff_matches_scalar_loop(rho, eps):
    # both cuts of one Poisson table by one rule: the mass cut, and the
    # moment cut as the mass cut at eps (1-rho)/rho
    tol = ToleranceConfig(eps_series=2.0 * eps)
    for nu_d in list(np.geomspace(1e-9, 2000.0, 30)) + [0.0, 1.0, 6.3, 20.0, 2047.5]:
        _, mass, moment = _jump_cuts(nu_d, rho, tol)
        assert moment == moment_cut_scalar(nu_d, rho, eps, 6000)
        if rho == 0.8:
            assert mass == poisson_horizon_scalar(nu_d, eps)


def _moment_cut(nu_d, rho, eps, max_states):
    tol = ToleranceConfig(eps_series=2.0 * eps, max_states=max_states)
    cut = _jump_cuts(nu_d, rho, tol)[2]
    if isinstance(cut, TruncationOverflow):
        raise cut
    return cut


@pytest.mark.parametrize("nu_d,max_states", [(50.0, 5), (20.0, 30), (2000.0, 2100), (6.3, 1)])
def test_poisson_ksum_cutoff_overflow_matches_scalar_loop(nu_d, max_states):
    with pytest.raises(TruncationOverflow) as want:
        moment_cut_scalar(nu_d, 0.8, 5e-11, max_states)
    with pytest.raises(TruncationOverflow) as got:
        _moment_cut(nu_d, 0.8, 5e-11, max_states)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("rho", [0.1, 0.8, 0.99])
def test_moment_cut_below_the_table_end_matches_scalar_loop(rho):
    # max_states below the end of the Poisson table: the cut stops there,
    # and reads the table the mass cut reads
    for nu_d in (1.0, 6.3, 20.0, 55.0, 140.0):
        top = int(nu_d + 12.0 * math.sqrt(nu_d + 1.0) + 40.0)
        for max_states in range(int(nu_d) + 1, top + 1, 3):
            outcomes = []
            for cut in (moment_cut_scalar, _moment_cut):
                try:
                    outcomes.append(cut(nu_d, rho, 5e-11, max_states))
                except TruncationOverflow as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]


@settings(max_examples=60, deadline=None)
@given(
    rho=st.floats(min_value=0.01, max_value=0.98),
    share=st.floats(min_value=0.0, max_value=1.0),
    det=st.booleans(),
    b=st.floats(min_value=0.0, max_value=1.0),
    ell=st.sampled_from([0, 1, 3, 8]),
)
def test_means_validate_once_and_equal_the_public_pieces(rho, share, det, b, ell):
    # dapq_means and the class-2 means validate the config once and work
    # from its rates; every value equals the one built from functions that
    # each validate for themselves, bit for bit (at mu = 1 Cobham's form of
    # the strict-priority mean rounds as the package's does)
    cfg = QueueConfig(share * rho, (1.0 - share) * rho, 1.0, b=b, d=float(ell),
                      service=DET if det else EXP)
    one_shot = md1_dapq_class2_mean if det else mm1_dapq_class2_mean
    w2 = one_shot(cfg)
    try:
        w1 = class1_mean_from_class2(cfg, w2)
    except NoClass1:
        w1 = None
    npq = npq_class2_mean(cfg)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mean_wait, "validate",
                      lambda config: calls.append(config) or validate(config))
        assert one_shot(cfg) == w2 and len(calls) == 1
        calls.clear()
        in_b = class2_mean_in_b(cfg.replace(b=0.5))
        assert [in_b(x) for x in (b, 0.0, b)] == [w2, npq, w2]
        assert len(calls) == 1
        calls.clear()
        if w1 is None:
            with pytest.raises(NoClass1):
                dapq_means(cfg)
            return
        summary = dapq_means(cfg)
    assert len(calls) == 1
    assert (summary.mean_w1, summary.mean_w2) == (w1, w2)
    assert summary.conservation_residual == abs(
        cfg.lambda1 * w1 + cfg.lambda2 * w2 - conservation_rhs(cfg))


@pytest.mark.parametrize("b", [-0.1, 1.5, math.nan])
def test_mean_in_b_keeps_the_rate_check(b):
    in_b = class2_mean_in_b(QueueConfig(0.5, 0.3, 1.0, d=2.0))
    with pytest.raises(OutOfRange, match="accumulation ratio b"):
        in_b(b)
    with pytest.raises(OutOfRange):
        class2_mean_in_b(QueueConfig(0.5, 0.3, 1.0, d=-1.0))


@pytest.mark.parametrize("service", [EXP, DET])
def test_an_eps_series_below_the_means_resolution_fails_loudly(service, monkeypatch, capsys,
                                                                tmp_path):
    # an eps_series below the float spacing of npq (in mu = 1 units) cannot
    # be met by a correction summed in those units; it used to return a
    # mean silently, and now raises naming that bound, whether the mean
    # computes its correction or a sweep supplies it
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=10.0, service=service)
    tight = ToleranceConfig(eps_series=1e-18)
    floor = f"{np.spacing(npq_class2_mean(cfg)):.3g}"
    with pytest.raises(AccuracyNotMet, match=f"below {floor}, the float spacing"):
        dapq_means(cfg, tight)
    with pytest.raises(AccuracyNotMet, match=f"below {floor}"):
        mean_wait._b_free_rows([cfg], tight, [False])[1][0](0.5)
    assert dapq_means(cfg.replace(b=0.0), tight).mean_w2 == npq_class2_mean(cfg)
    assert dapq_means(cfg).mean_w2 < npq_class2_mean(cfg)
    monkeypatch.setenv("DAPQ_EPS_SERIES", "1e-18")
    code = main(["mean", "--lam1", "0.5", "--lam2", "0.3", "--b", "0.5", "--d", "10",
                 "--service", service.value, "--out", str(tmp_path / "mean.csv")])
    assert code == EXIT_NUMERICAL
    assert "AccuracyNotMet" in capsys.readouterr().err
