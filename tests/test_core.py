import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import class1_mean_from_class2, conservation_rhs
from dapq.core import (
    InvalidDelay,
    Kpi,
    NoClass1,
    OutOfRange,
    QueueConfig,
    ServiceKind,
    ToleranceConfig,
    UnstableSystem,
    validate,
)

EXP = ServiceKind.EXPONENTIAL
DET = ServiceKind.DETERMINISTIC


def test_validate_reference_rates():
    rates = validate(QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.0, service=EXP))
    assert rates.rho == pytest.approx(0.8, abs=1e-15)
    assert rates.nu == pytest.approx(1.5, abs=1e-15)
    assert rates.p_up == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rates.q_down == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert rates.p_up + rates.q_down == pytest.approx(1.0, abs=1e-15)
    assert rates.lambda1_acc == pytest.approx(0.25, abs=1e-15)
    assert rates.rho1_acc <= rates.rho1


def test_validate_rejects_unstable():
    with pytest.raises(UnstableSystem):
        validate(QueueConfig(0.5, 0.5, 1.0))


def test_validate_rejects_bad_delay():
    with pytest.raises(InvalidDelay):
        validate(QueueConfig(0.3, 0.3, 1.0, d=1.5, service=DET))
    # integer multiples are fine
    validate(QueueConfig(0.3, 0.3, 1.0, d=3.0, service=DET))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lambda1=-0.1, lambda2=0.3, mu=1.0),
        dict(lambda1=0.1, lambda2=0.3, mu=0.0),
        dict(lambda1=0.1, lambda2=0.3, mu=1.0, b=1.5),
        dict(lambda1=0.1, lambda2=0.3, mu=1.0, d=-1.0),
    ],
)
def test_validate_rejects_out_of_range(kwargs):
    with pytest.raises(OutOfRange):
        validate(QueueConfig(**kwargs))


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["lambda1", "lambda2", "mu", "b", "d"])
def test_validate_rejects_non_finite(name, value):
    cfg = QueueConfig(0.1, 0.3, 1.0, b=0.5, d=1.0).replace(**{name: value})
    what = {"lambda1": "arrival", "lambda2": "arrival", "mu": "service rate",
            "b": "accumulation", "d": "delay"}[name]
    with pytest.raises(OutOfRange, match=what):
        validate(cfg)


@pytest.mark.parametrize("kwargs", [
    dict(target_w=math.nan, compliance_p=0.85), dict(target_w=math.inf, compliance_p=0.85),
    dict(target_w=4.0, compliance_p=math.nan), dict(target_w=4.0, compliance_p=math.inf),
    dict(target_w=-math.inf, compliance_p=0.85),
])
def test_kpi_rejects_non_finite(kwargs):
    with pytest.raises(OutOfRange):
        Kpi(**kwargs)


@pytest.mark.parametrize("value", NON_FINITE + [0.0, -1e-10])
@pytest.mark.parametrize("name", ["eps_series", "eps_root", "eps_invert", "max_states"])
def test_tolerances_reject_non_finite_and_non_positive(name, value):
    with pytest.raises(OutOfRange, match=name):
        ToleranceConfig(**{name: value})


@pytest.mark.parametrize("value", [40.5, 40.0, "40"])
def test_tolerances_reject_a_state_cap_that_is_not_an_integer(value):
    # the truncated sums index arrays by the cap, so a fractional one would
    # fail there with a bare IndexError
    with pytest.raises(OutOfRange, match="max_states must be an integer"):
        ToleranceConfig(max_states=value)


def test_tolerances_store_an_integer_state_cap_as_int():
    tol = ToleranceConfig(max_states=np.int64(40))
    assert tol.max_states == 40 and type(tol.max_states) is int


def test_conservation_rhs_values():
    assert conservation_rhs(QueueConfig(0.5, 0.3, 1.0, service=EXP)) == pytest.approx(3.2)
    assert conservation_rhs(QueueConfig(0.5, 0.3, 1.0, service=DET)) == pytest.approx(1.6)
    assert conservation_rhs(QueueConfig(0.0, 0.5, 1.0, service=EXP)) == pytest.approx(0.5)


def test_conservation_rhs_ignores_discipline_parameters():
    base = conservation_rhs(QueueConfig(0.4, 0.2, 1.0, service=EXP))
    for b, d in [(0.0, 0.0), (0.3, 1.0), (1.0, 7.0)]:
        assert conservation_rhs(QueueConfig(0.4, 0.2, 1.0, b=b, d=d)) == base


def test_deterministic_halves_exponential_rhs():
    for lam1, lam2 in [(0.2, 0.3), (0.5, 0.3), (0.1, 0.7)]:
        rhs_exp = conservation_rhs(QueueConfig(lam1, lam2, 1.0, service=EXP))
        rhs_det = conservation_rhs(QueueConfig(lam1, lam2, 1.0, service=DET))
        assert rhs_det == pytest.approx(0.5 * rhs_exp, rel=1e-14)


def test_class1_mean_from_class2_npq_cross_check():
    # strict-priority class-2 mean 8.0 must recover the textbook class-1 mean
    cfg = QueueConfig(0.5, 0.3, 1.0, service=EXP)
    w1 = class1_mean_from_class2(cfg, 8.0)
    assert w1 == pytest.approx(1.6, abs=1e-12)  # rho/(mu(1-rho1))
    assert w1 == pytest.approx(0.8 / (1.0 * (1.0 - 0.5)), abs=1e-12)


def test_class1_mean_fcfs_fixed_point():
    # when both classes share the FCFS mean, conservation returns it unchanged
    cfg = QueueConfig(0.5, 0.3, 1.0, b=1.0, d=0.0, service=EXP)
    fcfs = 0.8 / (1.0 - 0.8)
    assert class1_mean_from_class2(cfg, fcfs) == pytest.approx(fcfs, abs=1e-12)


def test_class1_mean_requires_class1_load():
    with pytest.raises(NoClass1):
        class1_mean_from_class2(QueueConfig(0.0, 0.5, 1.0), 1.0)


@settings(max_examples=40, deadline=None)
@given(
    lam1=st.floats(0.01, 0.6),
    lam2=st.floats(0.0, 0.6),
    service=st.sampled_from([EXP, DET]),
)
def test_second_moment_consistency(lam1, lam2, service):
    if lam1 + lam2 >= 0.95:
        return
    cfg = QueueConfig(lam1, lam2, 1.0, service=service)
    rates = validate(cfg)
    lam = lam1 + lam2
    es2 = service.second_moment(1.0)
    expected = rates.rho / (1 - rates.rho) * lam * es2 / 2
    assert conservation_rhs(cfg) == pytest.approx(expected, rel=1e-13)


def test_import_leaves_scipy_stats_unloaded():
    # numpy is the only runtime dependency: scipy.special alone was half the
    # import time and memory of a fresh process
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, dapq, dapq.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
