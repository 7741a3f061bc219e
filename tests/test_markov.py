import math
import time
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import poisson

import _oracles
from _oracles import (
    md1_pi_embedded,
    md1_pi_exact,
    md1_tail_ratio_by_bracket,
    md1_tail_ratio_by_lambert_w,
    mm1_stationary,
    poisson_by_mpmath,
    stationary_mass,
    stationary_pmf,
    survival_transition,
)
from dapq.core import (
    OutOfRange,
    QueueConfig,
    ServiceKind,
    ToleranceConfig,
    TruncationOverflow,
    validate,
)
from dapq.markov import (
    _CHAIN_BLOCK_FLOATS,
    _busy_weights_rows,
    _delay_weights,
    _jump_cuts,
    _md1_pmf_fft,
    _poisson_pmf,
    _poisson_table,
    busy_state_distribution,
    md1_stationary,
    md1_tail_ratio,
)

EXP = ServiceKind.EXPONENTIAL


def _dense(weights, size):
    """w_1 .. w_size from a head-plus-geometric-tail weight record."""
    n = len(weights)
    tail = weights.tail_next * weights.rho ** np.arange(max(size - n, 0))
    return np.concatenate([weights.head, tail])[:size]


def test_mm1_stationary_geometric_values():
    dist = mm1_stationary(0.8)
    assert stationary_pmf(dist, 0) == pytest.approx(0.2, abs=1e-15)
    assert stationary_pmf(dist, 1) == pytest.approx(0.16, abs=1e-15)
    assert stationary_pmf(dist, 2) == pytest.approx(0.128, abs=1e-15)
    np.testing.assert_allclose(dist.probs[1:] / dist.probs[:-1], 0.8, rtol=1e-14, atol=0.0)


def test_mm1_stationary_empty_system():
    dist = mm1_stationary(0.0)
    assert stationary_pmf(dist, 0) == 1.0
    assert stationary_pmf(dist, 3) == 0.0


def test_mm1_truncation_meets_tail_bound():
    # smallest K with 0.8^(K+1) < 1e-5 is K = 51
    dist = mm1_stationary(0.8, ToleranceConfig(eps_series=1e-5))
    assert dist.truncation_K == 51
    assert 0.8 ** (dist.truncation_K + 1) < 1e-5
    assert 0.8**dist.truncation_K >= 1e-5


def test_mm1_mass_and_head():
    for rho in (0.3, 0.8, 0.93):
        dist = mm1_stationary(rho)
        assert stationary_pmf(dist, 0) == pytest.approx(1 - rho, abs=1e-15)
        assert stationary_mass(dist) == pytest.approx(1.0, abs=1e-10)


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
    # pi_i ~ c g^i with c < 2 and g < 0.82 here, so 400 terms leave a tail below 1e-30
    dist = md1_stationary(rho, 400)
    assert stationary_pmf(dist, 0) == pytest.approx(1 - rho, abs=1e-15)
    assert stationary_mass(dist) == pytest.approx(1.0, abs=1e-8)
    assert np.all(dist.probs >= 0)


@pytest.mark.parametrize("rho", [0.5, 0.8, 0.9])
def test_md1_exact_ratios_match_tail_ratio(rho):
    g = md1_tail_ratio(rho)
    for i in range(15, 26):
        ratio = md1_pi_exact(rho, i + 1) / md1_pi_exact(rho, i)
        assert ratio == pytest.approx(g, abs=1e-4)


@settings(max_examples=40, deadline=None)
@given(rho=st.floats(min_value=0.05, max_value=0.999), terms=st.integers(0, 60))
@example(rho=0.999, terms=60)
@example(rho=0.9989999999999999, terms=1)
def test_md1_stationary_fft_matches_embedded_chain(rho, terms):
    # to roundoff: one ulp below 0.999, a 64-point FFT erred by 5e-15, as the
    # rounding of the pole's residue aliased back undamped (g^64 = 0.88)
    oracle = np.array(md1_pi_embedded(rho, 60)[: terms + 1])
    assert np.max(np.abs(md1_stationary(rho, terms).probs - oracle)) <= 1e-15


@pytest.mark.parametrize("rho", [1e-9, 1e-6, 1e-3])
def test_md1_stationary_light_traffic(rho):
    # the pole residue c grows like 1/rho here, so any cancellation against
    # it would show at the 1e-16 * c level
    dist = md1_stationary(rho, 20)
    oracle = np.array(md1_pi_embedded(rho, 20)[:21])
    assert np.max(np.abs(dist.probs - oracle)) <= 1e-15
    assert stationary_mass(dist) == pytest.approx(1.0, abs=1e-14)


def test_md1_stationary_light_traffic_closed_form():
    # below rho ~ 2e-154 the mass past pi_1 underflows; the FFT, whose pole
    # lies beyond the largest float from rho ~ 4e-306, is not run
    for rho in (1e-160, 1e-300, 1e-310, 5e-324, 0.0):
        probs = md1_stationary(rho, 4).probs
        assert list(probs) == [1.0 - rho, (1.0 - rho) * math.expm1(rho), 0.0, 0.0, 0.0]
    assert len(md1_stationary(0.0, 0).probs) == 1


# the sizing rule's grid: occupancies from light to heavy traffic, and heads
# on both sides of the 64-point floor and up to max_states
@pytest.mark.parametrize("rho", [1e-9, 1e-3, 0.5, 0.9, 0.99, 0.999])
def test_md1_stationary_sized_to_its_terms_matches_a_long_fft(rho):
    reference = _md1_pmf_fft(rho, md1_tail_ratio(rho), 2**16)
    for terms in (0, 8, 63, 64, 200, 1000, 6000):
        dist = md1_stationary(rho, terms)
        assert dist.truncation_K == terms and len(dist.probs) == terms + 1
        assert np.max(np.abs(dist.probs - reference[: terms + 1])) <= 5e-16


def test_md1_pgf_next_root_lies_beyond_8():
    # with the pole subtracted, the remainder is analytic out to the next root
    # of z = exp(rho (z - 1)), z = -W_k(-rho e^-rho)/rho with k = 0 giving
    # z = 1 and k = -1 the pole; the others come in conjugate pairs, nearest
    # at k = 1, -2, and the sizing rule rests on |z| >= 8 for all of them
    with mp.workdps(30):
        for rho in np.concatenate([np.geomspace(1e-9, 0.5, 40), np.linspace(0.5, 0.999, 60)]):
            r = mp.mpf(float(rho))
            for k in (1, -2, 2, -3):
                z = -mp.lambertw(-r * mp.exp(-r), k) / r
                assert abs(z - mp.exp(r * (z - 1))) <= 1e-20 * abs(z)
                assert abs(z) >= 8.0


# stopping indices of the term-by-term extended-precision pmf (md1_pi_exact)
# under the absolute-mass rule the package once cut its head by, the least
# K >= 8 with pi_K g/(1-g) < eps_series/2, at the criterion-01 occupancies
# and 0.95: the sized pmf's terms cross that level at the same index
@pytest.mark.parametrize(
    "rho,K",
    [(0.1, 8), (0.5, 19), (0.55, 22), (0.8, 55), (0.85, 75), (0.9, 115), (0.95, 233)],
)
def test_md1_stationary_truncation_matches_exact_terms(rho, K):
    g = md1_tail_ratio(rho)
    tail = md1_stationary(rho, 300).probs[8:] * g / (1.0 - g)
    assert 8 + int(np.argmax(tail < 0.5 * ToleranceConfig().eps_series)) == K


def test_md1_stationary_state_cap_raises():
    with pytest.raises(TruncationOverflow):
        md1_stationary(0.9, 101, ToleranceConfig(max_states=100))
    assert md1_stationary(0.9, 100, ToleranceConfig(max_states=100)).truncation_K == 100
    with pytest.raises(OutOfRange):
        md1_stationary(0.9, -1)
    # the FFT damps the pole's alias with n >= 2/(1 - g) points, capped the same way
    assert len(md1_stationary(0.9999, 5).probs) == 6
    with pytest.raises(TruncationOverflow):
        md1_stationary(0.99995, 5)


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


_TAIL_RATIO_RHOS = np.concatenate([np.linspace(0.001, 0.999, 999), [1e-9, 0.9999, 0.99999]])


def test_md1_tail_ratio_matches_lambert_w():
    # Newton's method runs to the floating-point root, heavy traffic included
    for rho in _TAIL_RATIO_RHOS:
        want = md1_tail_ratio_by_lambert_w(rho)
        assert abs(md1_tail_ratio(float(rho)) - want) <= 1e-15 * want


def test_md1_tail_ratio_bracket_moves_no_bit():
    # doubling from 2/rho while g <= 0 is the former search from 1/rho, which
    # doubled before its first test, and 2/rho rounds to twice 1/rho
    for rho in map(float, _TAIL_RATIO_RHOS):
        assert md1_tail_ratio(rho) == md1_tail_ratio_by_bracket(rho)


def test_md1_tail_ratio_heavy_traffic_limit():
    assert md1_tail_ratio(0.995) > 0.98


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
    loose = _oracles.busy_weights_total_mass(busy_state_distribution(cfg))
    tight = _oracles.busy_weights_total_mass(
        busy_state_distribution(cfg, ToleranceConfig(eps_series=1e-17)))
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
    assert _oracles.busy_weights_total_mass(w) == pytest.approx(full.sum(), abs=1e-10)


def _row_cuts(rates, ds, tol):
    """Each delay's jump pmf and mass cut (None where it overflows), and the run's length."""
    pmfs, heads, steps = [], [], 0
    for d in ds:
        pmf, *cuts = _jump_cuts(rates.nu * d, rates.rho, tol)
        pmfs.append(pmf)
        heads.append(cuts[0] if isinstance(cuts[0], int) else None)
        steps = max([steps] + [n for n in cuts if isinstance(n, int)])
    return pmfs, heads, steps


def _equal_the_loop(rates, pmfs, heads, steps):
    """The run's heads and tails equal the one-row loop's, and its state-1
    masses those of a run of each row alone, bit for bit."""
    run, s1 = _busy_weights_rows(rates, pmfs, heads, steps)
    assert len(run) == len(heads) and len(s1) == steps + 1
    for pmf, n, got in zip(pmfs, heads, run):
        if n is None:
            assert got is None
            continue
        want = _oracles.busy_weights_by_loop(rates, pmf[: n + 1])
        assert np.array_equal(got.head, want.head)
        assert got.tail_next == want.tail_next and got.rho == want.rho
        alone, alone_s1 = _busy_weights_rows(rates, [pmf], [n], n)
        assert np.array_equal(alone[0].head, got.head)
        assert np.array_equal(alone_s1, s1[: n + 1])


@settings(max_examples=60, deadline=None)
@given(
    lam1=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=0.9)),
    lam2=st.floats(min_value=0.0, max_value=0.9),
    ds=st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.5, 4.0, 8.0, 20.0]), min_size=1, max_size=6),
    max_states=st.one_of(st.just(6000), st.integers(min_value=8, max_value=90)),
)
def test_busy_weights_rows_equal_the_one_row_loop_bit_for_bit(lam1, lam2, ds, max_states):
    # one config's rates at every delay, as in a sweep; d = 0, lambda1 = 0
    # and repeated delays are drawn, and a small max_states drops a cut
    tol = ToleranceConfig(max_states=max_states)
    if lam1 + lam2 >= 0.99:
        lam2 = 0.98 - lam1
    rates = validate(QueueConfig(lam1, lam2, 1.0, service=EXP))
    pmfs, heads, steps = _row_cuts(rates, ds, tol)
    _equal_the_loop(rates, pmfs, heads, steps)


def test_busy_weights_rows_over_many_blocks_equal_the_loop_in_bounded_memory():
    # twelve delays with head cuts up to H = 2242 and a run of 2252 steps: a
    # block holds 7 steps, so the sums cross 322 blocks; summing every step
    # of every row at once would take (H+1) x 12 x H floats, 460 MiB
    rates = validate(QueueConfig(0.5, 0.3, 1.0))
    ds = [0.5, 3.0, 40.0, 300.0, 700.0, 1000.0, 1300.0, 1300.0, 200.0, 900.0, 1100.0, 60.0]
    pmfs, heads, steps = _row_cuts(rates, ds, ToleranceConfig())
    H = max(heads)
    assert (H, steps) == (2242, 2252)
    tracemalloc.start()
    _busy_weights_rows(rates, pmfs, heads, steps)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 3 * 8 * _CHAIN_BLOCK_FLOATS < (H + 1) * len(ds) * H * 8 / 50
    _equal_the_loop(rates, pmfs, heads, steps)


_DELAYS = [0.0, 3.0, 1.0, 8.0, 0.5, 3.0]


@pytest.mark.parametrize("heads,moments", [
    pytest.param([True] * 6, True, id="True-True"),
    pytest.param([True] * 6, False, id="True-False"),
    pytest.param([False] * 6, True, id="False-True"),
    # as a class-2 sweep at w = 3 asks
    pytest.param([d < 3.0 for d in _DELAYS], True, id="below-w"),
    pytest.param([True, False, False, True, True, False], False, id="mixed"),
])
@pytest.mark.parametrize("max_states", [6000, 15, 9])
def test_delay_weights_of_a_list_equal_one_delay_calls(heads, moments, max_states):
    # a list call raises what the first delay whose asked-for head overflows
    # raises alone; otherwise every delay's weights, moment or moment error
    # is that of a call for it alone, and each delay gets only the parts it
    # asks for: one that asks for no head never fails on it, and at
    # occupancy 0.95 and max_states 15 the head of d = 1 fits where its
    # moment cut does not
    tol = ToleranceConfig(max_states=max_states)
    rates = validate(QueueConfig(0.4, 0.55, 1.0))
    singles = []
    for d, head in zip(_DELAYS, heads):
        try:
            singles.append(_delay_weights(rates, [d], tol, [head], moments))
        except TruncationOverflow as exc:
            singles.append(exc)
    failed = [s for s in singles if isinstance(s, TruncationOverflow)]
    if failed:
        with pytest.raises(TruncationOverflow) as raised:
            _delay_weights(rates, _DELAYS, tol, heads, moments)
        assert str(raised.value) == str(failed[0])
        return
    rows, steps = _delay_weights(rates, _DELAYS, tol, heads, moments)
    joined = [s for _, s in singles if s is not None]
    assert steps == (max(joined) if joined else None)
    for got, ((want,), _), head in zip(rows, singles, heads):
        for g, w in zip(got, want):
            if isinstance(w, TruncationOverflow):
                assert type(g) is type(w) and str(g) == str(w)
            elif w is None or isinstance(w, float):
                assert g == w
            else:
                assert np.array_equal(g.head, w.head) and g.tail_next == w.tail_next
        assert (got[0] is None) == (not head)
        assert (got[1] is None) == (not moments)


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
    dist = md1_stationary(rho, 7)
    for i in range(8):
        p_hat = counts[:, i].mean()
        se = counts[:, i].std(ddof=1) / math.sqrt(n_reps)
        assert abs(stationary_pmf(dist, i) - p_hat) < 3.0 * se


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


@pytest.mark.parametrize("m", [0.0, 1e-9, 0.3, 5.0, 15.5, 16.0, 17.3, 40.0, 100.5, 449.1,
                               740.0, 1000.0, 2000.0])
def test_poisson_pmf_against_mpmath(m):
    # k from 0 past the upper tail: both sides of the mode and across k = 16,
    # where the kernel turns from exp(-m) m^k / k! to Loader's saddle point.
    # Down to 1e-300 the error is within 5 eps max(1, |log pmf|), about the
    # cost of rounding the exponent, and within 2 eps next to the mode
    eps = np.finfo(float).eps
    ks = np.arange(int(m + 40.0 * math.sqrt(m) + 200.0))
    exact = poisson_by_mpmath(m, int(ks[-1]))[0] if m > 0 else (ks == 0).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _poisson_pmf(ks, m)
    assert got.shape == ks.shape
    if m == 0.0:
        assert got[0] == 1.0 and not got[1:].any()
        return
    kept = exact >= 1e-300
    rel = np.abs(got[kept] - exact[kept]) / exact[kept]
    assert np.all(rel <= 5.0 * eps * np.maximum(1.0, -np.log(exact[kept])))
    assert np.all(rel[np.abs(ks[kept] - m) <= 1.0] <= 2.0 * eps)


def test_poisson_pmf_broadcasts_and_splits_mixed_arrays():
    # a mixed array gives each entry the value it has alone, scalars included
    ks = np.array([[0, 3, 15, 16, 40, 400]])
    ms = np.array([[0.0], [2.5], [16.0], [390.0]])
    got = _poisson_pmf(ks, ms)
    assert got.shape == (4, 6)
    for (i, j), value in np.ndenumerate(got):
        assert value == _poisson_pmf(ks[0, j], ms[i, 0])
    assert _poisson_pmf(20, 0.0) == 0.0 and _poisson_pmf(0, 0.0) == 1.0
