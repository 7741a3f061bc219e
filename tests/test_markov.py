import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import poisson

import _oracles
from _oracles import md1_pi_embedded, md1_pi_exact, poisson_by_mpmath, survival_transition
from dapq.core import OutOfRange, QueueConfig, ServiceKind, ToleranceConfig, TruncationOverflow
from dapq.markov import (
    _poisson_table,
    busy_state_distribution,
    md1_stationary,
    md1_tail_ratio,
    mm1_stationary,
)

EXP = ServiceKind.EXPONENTIAL


def _dense(weights, size):
    """w_1 .. w_size from a head-plus-geometric-tail weight record."""
    n = len(weights)
    tail = weights.tail_next * weights.rho ** np.arange(max(size - n, 0))
    return np.concatenate([weights.head, tail])[:size]


def test_mm1_stationary_geometric_values():
    dist = mm1_stationary(0.8)
    assert dist.pmf(0) == pytest.approx(0.2, abs=1e-15)
    assert dist.pmf(1) == pytest.approx(0.16, abs=1e-15)
    assert dist.pmf(2) == pytest.approx(0.128, abs=1e-15)
    assert dist.tail_ratio == 0.8


def test_mm1_stationary_empty_system():
    dist = mm1_stationary(0.0)
    assert dist.pmf(0) == 1.0
    assert dist.pmf(3) == 0.0


def test_mm1_truncation_meets_tail_bound():
    # smallest K with 0.8^(K+1) < 1e-5 is K = 51
    dist = mm1_stationary(0.8, ToleranceConfig(eps_series=1e-5))
    assert dist.truncation_K == 51
    assert 0.8 ** (dist.truncation_K + 1) < 1e-5
    assert 0.8**dist.truncation_K >= 1e-5


def test_mm1_mass_and_head():
    for rho in (0.3, 0.8, 0.93):
        dist = mm1_stationary(rho)
        assert dist.pmf(0) == pytest.approx(1 - rho, abs=1e-15)
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-10)


def test_md1_pi_low_order_closed_forms():
    rho = 0.8
    assert md1_pi_exact(rho, 0) == pytest.approx(0.2, abs=1e-14)
    assert md1_pi_exact(rho, 1) == pytest.approx(0.2 * (math.exp(0.8) - 1), rel=1e-13)


@pytest.mark.parametrize("rho", [0.5, 0.8, 0.9])
def test_md1_pi_matches_embedded_chain(rho):
    oracle = md1_pi_embedded(rho, 40)
    for i in range(0, 41, 4):
        assert md1_pi_exact(rho, i) == pytest.approx(oracle[i], rel=1e-10, abs=1e-18)


@pytest.mark.parametrize("rho", [0.5, 0.8, 0.9])
def test_md1_stationary_mass(rho):
    dist = md1_stationary(rho)
    assert dist.pmf(0) == pytest.approx(1 - rho, abs=1e-15)
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-8)
    assert np.all(dist.probs >= 0)


@pytest.mark.parametrize("rho", [0.5, 0.8, 0.9])
def test_md1_exact_ratios_match_tail_ratio(rho):
    g = md1_tail_ratio(rho)
    for i in range(15, 26):
        ratio = md1_pi_exact(rho, i + 1) / md1_pi_exact(rho, i)
        assert ratio == pytest.approx(g, abs=1e-4)


@settings(max_examples=40, deadline=None)
@given(rho=st.floats(min_value=0.05, max_value=0.99))
def test_md1_stationary_fft_matches_embedded_chain(rho):
    oracle = np.array(md1_pi_embedded(rho, 60)[:61])
    assert np.max(np.abs(md1_stationary(rho).pmf_array(60) - oracle)) <= 1e-13


@pytest.mark.parametrize("rho", [1e-9, 1e-6, 1e-3])
def test_md1_stationary_light_traffic(rho):
    # the pole residue c grows like 1/rho here, so any cancellation against
    # it would show at the 1e-16 * c level
    dist = md1_stationary(rho)
    oracle = np.array(md1_pi_embedded(rho, 20)[:21])
    assert np.max(np.abs(dist.pmf_array(20) - oracle)) <= 1e-15
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-14)


# stopping indices of the term-by-term extended-precision pmf (md1_pi_exact)
# under the same absolute-mass rule, at the criterion-01 occupancies and 0.95
@pytest.mark.parametrize(
    "rho,K",
    [(0.1, 8), (0.5, 19), (0.55, 22), (0.8, 55), (0.85, 75), (0.9, 115), (0.95, 233)],
)
def test_md1_stationary_truncation_matches_exact_terms(rho, K):
    assert md1_stationary(rho).truncation_K == K


def test_md1_stationary_state_cap_raises():
    with pytest.raises(TruncationOverflow):
        md1_stationary(0.9, ToleranceConfig(max_states=100))
    assert md1_stationary(0.9, ToleranceConfig(max_states=115)).truncation_K == 115


def test_md1_tail_ratio_reference_value():
    # root of exp(0.8 s)/s = exp(0.8) above 1/0.8, located by direct scan
    g = md1_tail_ratio(0.8)
    sigma = 1.0 / g
    assert sigma == pytest.approx(1.5386, abs=5e-4)
    assert sigma > 1.25
    assert math.exp(0.8 * sigma) / sigma == pytest.approx(math.exp(0.8), rel=1e-9)


def test_md1_tail_ratio_rejects_trivial_root():
    for rho in (0.3, 0.6, 0.9):
        g = md1_tail_ratio(rho)
        assert 0.0 < g < 1.0
        assert abs(1.0 / g - 1.0) > 1e-3  # sigma = 1 is always a root; must not return it


def test_md1_tail_ratio_heavy_traffic_limit():
    assert md1_tail_ratio(0.995) > 0.98


def test_md1_stationary_geometric_continuation_consistency():
    dist = md1_stationary(0.8)
    K = dist.truncation_K
    arr = dist.pmf_array(K + 10)
    assert arr[K + 5] == pytest.approx(dist.probs[K] * dist.tail_ratio**5, rel=1e-12)


# ----- busy-horizon transition law -----

def test_survival_transition_identity_at_zero_delay():
    cfg = QueueConfig(0.5, 0.3, 1.0, d=0.0, service=EXP)
    st = survival_transition(cfg, max_initial=6)
    for i in range(1, 7):
        for j in range(1, 7):
            assert st.prob(i, j) == (1.0 if i == j else 0.0)


def test_survival_transition_rows_are_subprobabilities():
    cfg = QueueConfig(0.5, 0.3, 1.0, d=2.0, service=EXP)
    st = survival_transition(cfg, max_initial=8)
    for i in range(1, 9):
        s = st.row_sum(i)
        assert 0.0 < s < 1.0
        for j in range(1, st.max_final + 1):
            assert 0.0 <= st.prob(i, j) <= 1.0


def test_survival_row_sums_nonincreasing_in_horizon():
    sums = []
    for d in (0.0, 1.0, 2.0, 4.0):
        cfg = QueueConfig(0.5, 0.3, 1.0, d=d, service=EXP)
        st = survival_transition(cfg, max_initial=4)
        sums.append([st.row_sum(i) for i in range(1, 5)])
    for prev, nxt in zip(sums, sums[1:]):
        for a, b in zip(prev, nxt):
            assert b <= a + 1e-12


def test_survival_transition_requires_exponential_service():
    cfg = QueueConfig(0.5, 0.3, 1.0, d=1.0, service=ServiceKind.DETERMINISTIC)
    with pytest.raises(OutOfRange):
        survival_transition(cfg)


def _mc_survival_block(lam1, mu, d, n_runs, seed):
    """Direct Monte Carlo of the birth-death path, 5x5 block of (i, j)."""
    rng = np.random.default_rng(seed)
    counts = np.zeros((5, 5))
    for i in range(1, 6):
        for _ in range(n_runs):
            n, t = i, 0.0
            alive = True
            while True:
                t += rng.exponential(1.0 / (lam1 + mu))
                if t >= d:
                    break
                n += 1 if rng.random() < lam1 / (lam1 + mu) else -1
                if n == 0:
                    alive = False
                    break
            if alive and 1 <= n <= 5:
                counts[i - 1, n - 1] += 1
    return counts / n_runs


@pytest.mark.parametrize("lam1,mu,d", [(0.5, 1.0, 1.0), (0.2, 1.0, 4.0)])
def test_survival_transition_matches_monte_carlo(lam1, mu, d):
    cfg = QueueConfig(lam1, 0.2, mu, d=d, service=EXP)
    st = survival_transition(cfg, max_initial=5)
    n_runs = 40_000
    block = _mc_survival_block(lam1, mu, d, n_runs, seed=20240617)
    for i in range(1, 6):
        for j in range(1, 6):
            p_hat = block[i - 1, j - 1]
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-9) / n_runs)
            assert abs(st.prob(i, j) - p_hat) < 3.0 * se + 1e-4


def test_busy_state_distribution_is_weighted_rows():
    cfg = QueueConfig(0.5, 0.3, 1.0, d=1.0, service=EXP)
    st = survival_transition(cfg, max_initial=200)
    w = _dense(busy_state_distribution(cfg), st.max_final)
    rho = 0.8
    pi = (1 - rho) * rho ** np.arange(1, st.max_initial + 1)
    direct = pi @ st.probs
    assert np.allclose(direct[: len(w)], w[: len(direct)], atol=1e-10)


def test_busy_state_distribution_zero_delay_is_busy_find():
    cfg = QueueConfig(0.5, 0.3, 1.0, d=0.0, service=EXP)
    w = _dense(busy_state_distribution(cfg), 4000)
    assert w.sum() == pytest.approx(0.8, abs=1e-9)  # P[arrival finds system busy]
    assert w[0] == pytest.approx(0.2 * 0.8, abs=1e-12)


def test_busy_state_distribution_tight_tolerance_keeps_mass():
    # a Poisson tail taken as 1 - cumsum floors near 1e-16, which once cut
    # the jump sum at 0 terms here and returned mass 0.00198
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=4.0, service=EXP)
    loose = busy_state_distribution(cfg).total_mass()
    tight = busy_state_distribution(cfg, ToleranceConfig(eps_series=1e-17)).total_mass()
    assert loose == pytest.approx(0.478445816, abs=1e-9)
    assert tight == pytest.approx(loose, abs=1e-10)


def test_busy_state_distribution_unreachable_tolerance_raises():
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=4.0, service=EXP)
    with pytest.raises(TruncationOverflow):
        busy_state_distribution(cfg, ToleranceConfig(eps_series=1e-300))


@pytest.mark.parametrize(
    "lam1,lam2,b,d",
    [(0.5, 0.3, 0.5, 2.0), (0.5, 0.45, 0.3, 3.0), (0.9, 0.09, 0.5, 10.0),
     (0.1, 0.89, 0.9, 0.0), (0.05, 0.0, 0.9, 7.0), (0.0, 0.6, 0.2, 4.0)],
)
def test_busy_state_head_and_tail_match_full_vector(lam1, lam2, b, d):
    cfg = QueueConfig(lam1, lam2, 1.0, b=b, d=d, service=EXP)
    w = busy_state_distribution(cfg)
    full = _oracles.busy_state_distribution(cfg)
    # the oracle drops the flow into its last state, which after n jumps has
    # corrupted its top n entries; every entry below them is exact
    exact = len(full) - len(w)
    assert np.max(np.abs(_dense(w, exact) - full[:exact])) <= 1e-15
    assert w.total_mass() == pytest.approx(full.sum(), abs=1e-10)


def test_busy_state_head_size_does_not_grow_with_rho():
    sizes = {
        len(busy_state_distribution(QueueConfig(0.5, lam2, 1.0, b=0.5, d=2.0, service=EXP)))
        for lam2 in (0.1, 0.3, 0.45, 0.49)
    }
    assert len(sizes) == 1
    # a vector reaching rho^S < eps_series would need 2,292 states at rho = 0.99
    assert sizes.pop() < 30


def test_busy_state_head_overflow_raises():
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.0, service=EXP)
    n = len(busy_state_distribution(cfg))
    with pytest.raises(TruncationOverflow):
        busy_state_distribution(cfg, ToleranceConfig(max_states=n - 1))
    assert len(busy_state_distribution(cfg, ToleranceConfig(max_states=n))) == n


def test_busy_state_head_overflow_is_rejected_before_the_poisson_table():
    # nu*d = 1.5e6: the head cannot fit max_states, and the check comes
    # before any array of about nu*d entries is built
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=1e6, service=EXP)
    tracemalloc.start()
    t0 = time.perf_counter()
    with pytest.raises(TruncationOverflow):
        busy_state_distribution(cfg)
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert elapsed < 0.010
    assert peak < 2**20


@pytest.mark.parametrize("lam1", [0.05, 0.5, 0.9])
def test_busy_state_head_is_at_least_the_early_bound(lam1):
    # the early rejection rests on n >= nu*d - ln 2 for the Poisson cut n
    for d in np.geomspace(1e-3, 2000.0, 40):
        cfg = QueueConfig(lam1, 0.05, 1.0, b=0.5, d=float(d), service=EXP)
        assert len(busy_state_distribution(cfg)) >= (1.0 + lam1) * d - math.log(2.0)


def test_md1_stationary_matches_pasta_simulation():
    # queue length seen by arrivals in a deterministic-service queue; the
    # number-in-system process is discipline-free, so plain FIFO suffices
    rho = 0.8
    rng = np.random.default_rng(61)
    n_reps, n_arrivals = 24, 6000
    counts = np.zeros((n_reps, 8))
    for r in range(n_reps):
        t, n = 0.0, 0
        departures = []
        seen = []
        while len(seen) < n_arrivals:
            t += rng.exponential(1.0 / rho)
            while departures and departures[0] <= t:
                departures.pop(0)
                n -= 1
            seen.append(n)
            start = departures[-1] if departures else t
            departures.append(start + 1.0)
            n += 1
        seen = np.array(seen[1000:])
        for i in range(8):
            counts[r, i] = np.mean(seen == i)
    dist = md1_stationary(rho)
    for i in range(8):
        p_hat = counts[:, i].mean()
        se = counts[:, i].std(ddof=1) / math.sqrt(n_reps)
        assert abs(dist.pmf(i) - p_hat) < 3.0 * se


def _worst_tail_error(values, exact, above):
    # largest relative error over the tail points, where the cuts compare
    return float(np.max(np.abs(values[above] - exact[above]) / exact[above]))


@pytest.mark.parametrize("m", list(np.geomspace(1e-9, 2000.0, 25)) + [0.5, 6.3, 40.0])
def test_poisson_helpers_equal_scipy_stats(m):
    # the helpers agree with scipy.stats.poisson to its own accuracy, and
    # against a 50-digit oracle they are at least as accurate as scipy in
    # the tails the Poisson cuts use: above the mean, values >= 1e-300
    ks = np.arange(int(m + 12.0 * math.sqrt(m + 1.0) + 60.0))
    pmf, sf = poisson_by_mpmath(m, int(ks[-1]))
    ours_pmf, ours_sf = _poisson_table(m, int(ks[-1]))
    np.testing.assert_allclose(ours_sf, poisson.sf(ks, m), rtol=1e-11, atol=1e-300)
    np.testing.assert_allclose(ours_pmf, poisson.pmf(ks, m), rtol=1e-11, atol=1e-300)
    for exact, ours, theirs in ((sf, ours_sf, poisson.sf(ks, m)),
                                (pmf, ours_pmf, poisson.pmf(ks, m))):
        above = (ks > m) & (exact >= 1e-300)
        assert above.sum() >= 10
        assert _worst_tail_error(ours, exact, above) <= _worst_tail_error(theirs, exact, above)
