import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import _oracles
from _oracles import (
    columns,
    conservation_rhs,
    csv_payload_by_rows,
    fcfs_mean,
    npq_class2_mean,
    run_single_by_events,
)

from dapq import simulate
from dapq.core import OutOfRange, QueueConfig, ServiceKind, TruncationOverflow
from dapq.simulate import SimConfig, run_replicated, run_single

EXP = ServiceKind.EXPONENTIAL
DET = ServiceKind.DETERMINISTIC

GRID = np.arange(0.0, 30.0, 0.1)


def assert_columns_equal(got, want):
    assert len(got) == len(want) == 3
    assert got[0].dtype == np.uint8 and got[1].dtype == got[2].dtype == np.float64
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def assert_equals_oracle(sim, rep_index):
    assert_columns_equal(run_single(sim, rep_index),
                         columns(run_single_by_events(sim, rep_index)))


def test_sim_config_invariants():
    cfg = QueueConfig(0.5, 0.3, 1.0)
    with pytest.raises(OutOfRange):
        SimConfig(queue=cfg, n_customers=100, burn_in=100)
    with pytest.raises(OutOfRange):
        SimConfig(queue=cfg, replications=0)


@pytest.mark.parametrize("field, value", [
    ("n_customers", math.nan), ("n_customers", 4000.0), ("burn_in", math.nan),
    ("burn_in", 10.0), ("replications", 2.5), ("replications", "3"), ("seed", 1.5),
    ("seed", None), ("seed", -1),
])
def test_sim_config_rejects_non_integer_counts_and_negative_seeds(field, value):
    with pytest.raises(OutOfRange, match=field):
        SimConfig(queue=QueueConfig(0.5, 0.3, 1.0), **{field: value})


def test_sim_config_takes_numpy_integers_as_ints():
    sim = SimConfig(queue=QueueConfig(0.5, 0.3, 1.0), n_customers=np.int64(300),
                    burn_in=np.int32(50), replications=np.uint8(2), seed=np.int64(7))
    counts = (sim.n_customers, sim.burn_in, sim.replications, sim.seed)
    assert counts == (300, 50, 2, 7) and all(type(v) is int for v in counts)
    assert run_replicated(sim, GRID).customers == 2 * 350


def test_determinism_bitwise():
    sim = SimConfig(queue=QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.0), n_customers=500,
                    burn_in=100, replications=3, seed=7)
    assert_columns_equal(run_single(sim, 1), run_single(sim, 1))
    ra = run_replicated(sim, GRID)
    rb = run_replicated(sim, GRID)
    for cls in (1, 2):
        assert np.array_equal(ra.curves[cls].values, rb.curves[cls].values)
        assert ra.means[cls] == rb.means[cls]


def test_replications_are_order_independent_substreams():
    sim = SimConfig(queue=QueueConfig(0.5, 0.3, 1.0), n_customers=300, burn_in=50,
                    replications=4, seed=11)
    r2_first = run_single(sim, 2)
    run_single(sim, 0)  # unrelated draw must not shift substream 2
    assert_columns_equal(run_single(sim, 2), r2_first)


def test_single_class_fcfs_mean():
    # lambda2 = 0: a lone class reduces to plain FCFS
    cfg = QueueConfig(0.8, 0.0, 1.0, b=0.0, d=0.0, service=EXP)
    sim = SimConfig(queue=cfg, n_customers=4000, burn_in=1500, replications=30, seed=3)
    res = run_replicated(sim, GRID)
    want = 0.8 / (1.0 - 0.8)
    assert abs(res.means[1] - want) < 3.0 * res.mean_se[1]
    assert 2 not in res.means


def test_fcfs_order_when_credits_equal():
    # b=1, d=0: both classes accrue identically, so waits follow arrival order
    cfg = QueueConfig(0.5, 0.3, 1.0, b=1.0, d=0.0, service=EXP)
    sim = SimConfig(queue=cfg, n_customers=4000, burn_in=1500, replications=30, seed=5)
    res = run_replicated(sim, GRID)
    want = fcfs_mean(cfg)
    for cls in (1, 2):
        assert abs(res.means[cls] - want) < 3.5 * res.mean_se[cls]


@pytest.mark.parametrize("service", [EXP, DET])
def test_npq_means_both_service_kinds(service):
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.0, d=0.0, service=service)
    sim = SimConfig(queue=cfg, n_customers=4000, burn_in=1500, replications=40, seed=13)
    res = run_replicated(sim, GRID)
    w2 = npq_class2_mean(cfg)
    w1 = (conservation_rhs(cfg) - 0.3 * w2) / 0.5
    assert abs(res.means[2] - w2) < 3.0 * res.mean_se[2]
    assert abs(res.means[1] - w1) < 3.0 * res.mean_se[1]


def test_work_conservation_within_noise():
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.0, service=EXP)
    sim = SimConfig(queue=cfg, n_customers=4000, burn_in=1500, replications=40, seed=17)
    res = run_replicated(sim, GRID)
    lhs = 0.5 * res.means[1] + 0.3 * res.means[2]
    se = math.sqrt((0.5 * res.mean_se[1]) ** 2 + (0.3 * res.mean_se[2]) ** 2)
    assert abs(lhs - conservation_rhs(cfg)) < 3.0 * se


def test_class2_waits_match_npq_inside_delay_window():
    d = 2.0
    base = SimConfig(queue=QueueConfig(0.5, 0.3, 1.0, b=0.0, d=d), n_customers=4000,
                     burn_in=1500, replications=30, seed=23)
    apq = SimConfig(queue=QueueConfig(0.5, 0.3, 1.0, b=0.8, d=d), n_customers=4000,
                    burn_in=1500, replications=30, seed=23)
    res_npq = run_replicated(base, GRID)
    res_apq = run_replicated(apq, GRID)
    inside = GRID <= d
    diff = np.abs(res_npq.curves[2].values[inside] - res_apq.curves[2].values[inside])
    se = np.sqrt(res_npq.curve_se[2][inside] ** 2 + res_apq.curve_se[2][inside] ** 2)
    assert np.all(diff <= 2.0 * se + 5e-3)


def test_se_shrinks_with_replications():
    cfg = QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.0)
    few = run_replicated(SimConfig(queue=cfg, n_customers=2000, burn_in=500,
                                   replications=5, seed=29), GRID)
    many = run_replicated(SimConfig(queue=cfg, n_customers=2000, burn_in=500,
                                    replications=80, seed=29), GRID)
    # ~ 1/sqrt(R) scaling, within loose stochastic bounds
    ratio = few.mean_se[2] / many.mean_se[2]
    assert 1.5 < ratio < 12.0


def test_burn_in_counts_served_customers():
    sim = SimConfig(queue=QueueConfig(0.5, 0.3, 1.0), n_customers=100, burn_in=50,
                    replications=1, seed=31)
    # recorded services, burn-in excluded
    assert [len(column) for column in run_single(sim, 0)] == [100, 100, 100]


def test_raw_dump_format(tmp_path):
    sim = SimConfig(queue=QueueConfig(0.5, 0.3, 1.0, b=0.5, d=1.0), n_customers=50,
                    burn_in=10, replications=2, seed=37)
    path = tmp_path / "raw.csv"
    run_replicated(sim, GRID, raw_path=str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rep,class,arrival,wait"
    assert len(lines) == 1 + 2 * 50
    rep, cls, arrival, wait = lines[1].split(",")
    assert rep == "0"
    assert cls in ("1", "2")
    assert float(wait) >= 0.0


def test_empty_queue_rejected_before_simulating():
    # with no arrivals the event loop could never record a service
    with pytest.raises(OutOfRange):
        SimConfig(queue=QueueConfig(0.0, 0.0, 1.0))


# configs for the chunked-draw loop against the per-draw oracle
ORACLE_CASES = [
    (QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.0, service=EXP), 200),
    (QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.0, service=DET), 200),
    (QueueConfig(0.0, 0.8, 1.0, b=0.5, d=1.0, service=EXP), 200),
    (QueueConfig(0.8, 0.0, 1.0, b=0.5, d=1.0, service=DET), 200),
    (QueueConfig(0.5, 0.3, 1.0, b=0.0, d=0.0, service=EXP), 200),
    (QueueConfig(0.5, 0.3, 1.0, b=1.0, d=0.0, service=EXP), 200),
    (QueueConfig(0.5, 0.3, 1.0, b=1.0, d=0.0, service=DET), 200),
    (QueueConfig(0.5, 0.49, 1.0, b=0.5, d=2.0, service=EXP), 200),
    (QueueConfig(0.5, 0.49, 1.0, b=0.5, d=2.0, service=DET), 200),
    (QueueConfig(0.4, 0.4, 2.0, b=0.25, d=3.0, service=EXP), 0),
    (QueueConfig(0.4, 0.4, 2.0, b=0.25, d=3.0, service=DET), 0),
]


@pytest.mark.parametrize("cfg,burn_in", ORACLE_CASES)
def test_run_single_equals_per_draw_oracle(cfg, burn_in):
    # 3,000 services draw about 6,000 exponentials: several 1,024-value refills
    sim = SimConfig(queue=cfg, n_customers=3000, burn_in=burn_in, replications=2, seed=41)
    for r in range(2):
        assert_equals_oracle(sim, r)


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_run_single_equals_oracle_across_refills(monkeypatch, chunk):
    monkeypatch.setattr(simulate, "_CHUNK", chunk)
    for cfg, _ in ORACLE_CASES[:2]:
        sim = SimConfig(queue=cfg, n_customers=500, burn_in=0, replications=1, seed=43)
        assert_equals_oracle(sim, 0)


class _LatticeRng:
    """Unit "exponentials" from {0.5, 1, 1.5}: event times and credits tie exactly."""

    def __init__(self, seed, rep_index):
        self._ints = np.random.default_rng([seed, rep_index])

    def _unit(self):
        return 0.5 * float(self._ints.integers(1, 4))

    def exponential(self, scale):
        return scale * self._unit()

    def standard_exponential(self, size):
        return np.array([self._unit() for _ in range(size)])


@pytest.mark.parametrize("b,d", [(1.0, 0.0), (0.5, 1.0), (0.0, 0.0)])
@pytest.mark.parametrize("service", [EXP, DET])
def test_run_single_equals_oracle_on_ties(monkeypatch, b, d, service):
    # equal completion and arrival times, equal arrival times and equal
    # credits all occur, so every tie-breaking rule is exercised
    monkeypatch.setattr(simulate, "_rng_for", _LatticeRng)
    monkeypatch.setattr(_oracles, "_rng_for", _LatticeRng)
    sim = SimConfig(queue=QueueConfig(0.5, 0.25, 1.0, b=b, d=d, service=service),
                    n_customers=2000, burn_in=0, replications=1, seed=59)
    assert_equals_oracle(sim, 0)


def test_run_replicated_equals_oracle_records(monkeypatch):
    sim = SimConfig(queue=QueueConfig(0.5, 0.3, 1.0, b=0.5, d=2.0), n_customers=1000,
                    burn_in=200, replications=4, seed=47)
    fast = run_replicated(sim, GRID)
    monkeypatch.setattr(simulate, "run_single",
                        lambda sim_, r: columns(run_single_by_events(sim_, r)))
    slow = run_replicated(sim, GRID)
    assert fast.means == slow.means and fast.mean_se == slow.mean_se
    for cls in (1, 2):
        assert np.array_equal(fast.curves[cls].values, slow.curves[cls].values)
        assert np.array_equal(fast.curve_se[cls], slow.curve_se[cls])
    assert fast.customers == slow.customers == 4 * 1200
    assert fast.wall_s > 0.0


@pytest.mark.parametrize("lam1, lam2, service", [
    (0.5, 0.3, EXP), (0.4, 0.4, DET), (0.0, 0.8, EXP), (0.7, 0.0, DET),
])
def test_run_replicated_splits_classes_as_the_comprehension_did(lam1, lam2, service):
    sim = SimConfig(queue=QueueConfig(lam1, lam2, 1.0, b=0.5, d=1.0, service=service),
                    n_customers=900, burn_in=100, replications=3, seed=61)
    curves, means = _oracles.run_replicated_by_comprehension(sim, GRID)
    result = run_replicated(sim, GRID)
    assert result.means == means
    assert sorted(result.curves) == sorted(curves)
    for cls, curve in curves.items():
        assert np.array_equal(result.curves[cls].values, curve)


def test_run_replicated_writes_raw_from_the_same_replications(tmp_path, monkeypatch):
    sim = SimConfig(queue=QueueConfig(0.5, 0.3, 1.0, b=0.5, d=1.0), n_customers=300,
                    burn_in=50, replications=3, seed=53)
    calls = []

    def counted(sim_, r):
        calls.append(r)
        return run_single(sim_, r)

    monkeypatch.setattr(simulate, "run_single", counted)
    # in one process, so that this process makes every run_single call
    monkeypatch.setattr(simulate, "_workers", lambda reps: 1)
    raw = tmp_path / "raw.csv"
    with_raw = run_replicated(sim, GRID, raw_path=str(raw))
    assert calls == [0, 1, 2]  # each replication simulated once
    want = csv_payload_by_rows(["rep", "class", "arrival", "wait"], [
        [r, c, a, w] for r in range(3) for c, a, w in run_single_by_events(sim, r)
    ])
    assert raw.read_bytes() == want.encode()  # "\n" line ends, no "\r"
    plain = run_replicated(sim, GRID)
    assert with_raw.means == plain.means and with_raw.mean_se == plain.mean_se


# --------------------------------------------------------------------------
# replications in forked processes: at most three processes at a time
# --------------------------------------------------------------------------

def in_processes(monkeypatch, k):
    # k processes where there are k CPUs: the caller and k - 1 forked children
    monkeypatch.setattr(simulate, "_workers", lambda reps: min(k, reps))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_count_is_the_usable_cpus_up_to_one_per_replication(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert [simulate._workers(reps) for reps in (1, 2, 3, 50)] == [1, 2, 3, 3]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert [simulate._workers(reps) for reps in (1, 50)] == [1, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one
    assert simulate._workers(50) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    # forking a process with other live threads is unsafe: run in this one
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert simulate._workers(50) == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and simulate._workers(50) == 4
    monkeypatch.delattr(os, "fork")  # as on Windows
    assert simulate._workers(50) == 1


@pytest.mark.parametrize("reps", [1, 2, 5])
@pytest.mark.parametrize("service", [EXP, DET])
def test_run_replicated_is_bit_identical_in_any_number_of_processes(tmp_path, monkeypatch,
                                                                    service, reps):
    sim = SimConfig(queue=QueueConfig(0.5, 0.3, 1.0, b=0.5, d=1.0, service=service),
                    n_customers=300, burn_in=50, replications=reps, seed=67)
    results, raws = [], []
    for k in (1, 2, 3):
        in_processes(monkeypatch, k)
        for raw in (None, tmp_path / f"raw-{k}.csv"):
            results.append(run_replicated(sim, GRID, raw_path=raw and str(raw)))
            assert results[-1].workers == min(k, reps)
            assert_no_child_left()
        raws.append(raw.read_bytes())
    want = results[0]
    for got in results:
        assert got.means == want.means and got.mean_se == want.mean_se
        assert got.customers == want.customers == reps * 350
        assert sorted(got.curves) == sorted(want.curves) == [1, 2]
        for cls in (1, 2):
            assert np.array_equal(got.curves[cls].values, want.curves[cls].values)
            assert np.array_equal(got.curve_se[cls], want.curve_se[cls])
    assert raws[0] == raws[1] == raws[2]
    assert raws[0].count(b"\n") == 1 + reps * 300


def failing_at(errors):
    """``run_single`` that raises ``errors[r]`` at each replication r listed there."""
    def run(sim, r):
        if r in errors:
            raise errors[r](f"replication {r} failed")
        return run_single(sim, r)
    return run


SIM5 = SimConfig(queue=QueueConfig(0.5, 0.3, 1.0, b=0.5, d=1.0), n_customers=200, burn_in=20,
                 replications=5, seed=71)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("errors, first", [
    ({0: OutOfRange}, 0),  # in the caller's own range
    ({4: TruncationOverflow}, 4),  # in the last child's range
    ({1: OutOfRange, 3: TruncationOverflow, 4: ValueError}, 1),  # in two or three ranges
])
def test_run_replicated_raises_the_serial_error_and_leaves_no_child(monkeypatch, k, errors,
                                                                    first):
    in_processes(monkeypatch, k)
    monkeypatch.setattr(simulate, "run_single", failing_at(errors))
    with pytest.raises(Exception) as raised:
        run_replicated(SIM5, GRID)
    # the lowest failing replication's error, type and message, as one loop raises it
    assert raised.type is errors[first] and str(raised.value) == f"replication {first} failed"
    assert_no_child_left()


def test_an_interrupted_caller_stops_its_children(monkeypatch):
    # the child's range would take a minute; the caller's range is interrupted
    def run(sim, r):
        if r >= 2:
            time.sleep(60)
        if r == 0:
            raise KeyboardInterrupt
        return run_single(sim, r)

    in_processes(monkeypatch, 2)
    monkeypatch.setattr(simulate, "run_single", run)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_replicated(SIM5, GRID)
    assert time.monotonic() - t0 < 30.0
    assert_no_child_left()


def test_a_child_that_dies_without_a_result_is_an_error(monkeypatch):
    def run(sim, r):
        if r == 4:
            os._exit(3)  # runs only in the forked child, which has replications 2..4
        return run_single(sim, r)

    in_processes(monkeypatch, 2)
    monkeypatch.setattr(simulate, "run_single", run)
    with pytest.raises(ChildProcessError, match="exited without a result"):
        run_replicated(SIM5, GRID)
    assert_no_child_left()


def test_text_printed_before_a_forked_run_appears_once():
    # stdout is a pipe, so block-buffered: the children must not write the
    # caller's unflushed text again
    script = "\n".join([
        "import numpy as np",
        "from dapq import simulate",
        "from dapq.core import QueueConfig",
        "simulate._workers = lambda reps: min(3, reps)",
        "print('before')",
        "sim = simulate.SimConfig(queue=QueueConfig(0.5, 0.3, 1.0), n_customers=100,"
        " burn_in=10, replications=3)",
        "print('after', simulate.run_replicated(sim, np.arange(0.0, 5.0, 0.5)).workers)",
    ])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(simulate.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "before\nafter 3\n", "")
