"""Discrete-event simulation of the two-class delayed APQ.

Brute-force oracle for the analytic machinery: every customer is generated
and moved through the queue explicitly.  At each service start the waiting
customer with the most accumulated credit is chosen, where class-1 credit
grows at rate 1 from arrival and class-2 credit at rate b starting d time
units after arrival.  Credit order within a class is arrival order, so the
selection reduces to comparing the two queue heads.

The loop takes one step per service.  Two facts make that exact.  Within a
class customers are served in arrival order (Stanford, Taylor & Ziedins
2014), so a class's queue is a head index into the list of its arrival
times, and the wait of a customer is its service start minus the arrival at
that index.  And the server is work-conserving with i.i.d. service times,
so the timeline of arrivals, starts and completions, and the order in which
its times are drawn, do not depend on which class is served: a step admits
the arrivals that come before the server frees, picks a class and draws
one service time.  Each step records only the start time, negated for
class 2; the class, arrival and wait columns are built from those starts
and the arrival lists afterwards.

Replications draw from independent substreams spawned off one root seed
(SeedSequence spawn keys), so results are deterministic given the seed and
independent of execution order.  Within a replication every inter-arrival
and service time comes from its substream in event order.  The unit
exponentials are drawn in chunks and scaled one at a time, which gives
exactly the values of one ``exponential(scale)`` call per event.  The
replications run in k processes, k the usable CPUs but at most one per
replication (1 without ``os.fork`` or while other threads run): the caller
runs the first contiguous range and k - 1 forked children the others, and
the summaries are combined in replication order, so every result, and the
error raised, is that of one loop for any k: the caller's error propagates
in place, and a child's as its pipe is read, in range order.
``RUSAGE_SELF`` counts only the caller's range.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .core import OutOfRange, QueueConfig, ServiceKind, validate
from .transforms import CdfCurve

# Unit exponentials drawn per refill of a replication's buffer.
_CHUNK = 1024

# One line of the ``--raw`` dump: rep and class through ``str``, floats to 12 digits.
_RAW_LINE = "{},{},{:.12g},{:.12g}\n"


@dataclass(frozen=True)
class SimConfig:
    """Replicated-run protocol: who to simulate, how long, and the seed.

    ``n_customers`` services are recorded per replication after the first
    ``burn_in`` services are discarded.  The four counts must be integers
    (anything ``operator.index`` accepts, stored as ``int``) and the seed
    nonnegative.
    """

    queue: QueueConfig
    n_customers: int = 4000
    burn_in: int = 1500
    replications: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("n_customers", "burn_in", "replications", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise OutOfRange(f"{name} must be an integer, got {value!r}") from None
        if self.burn_in < 0 or self.n_customers <= self.burn_in:
            raise OutOfRange("need n_customers > burn_in >= 0")
        if self.replications < 1:
            raise OutOfRange("replications must be >= 1")
        if self.seed < 0:
            raise OutOfRange("seed must be >= 0")
        if not (self.queue.lambda1 > 0 or self.queue.lambda2 > 0):
            # nobody would ever arrive, so no service could be recorded
            raise OutOfRange("simulation needs lambda1 > 0 or lambda2 > 0")


@dataclass(frozen=True)
class EmpiricalCdf:
    """Replication-averaged empirical CDFs and means, one entry per class.

    ``customers`` counts every simulated service, burn-in included, ``wall_s``
    is the wall time of the replicated run and ``workers`` the number of
    processes it ran in; these three take no part in comparisons.
    """

    grid: np.ndarray
    curves: Dict[int, CdfCurve]
    curve_se: Dict[int, np.ndarray]
    means: Dict[int, float]
    mean_se: Dict[int, float]
    replications: int
    customers: int = field(default=0, compare=False)
    wall_s: float = field(default=0.0, compare=False)
    workers: int = field(default=1, compare=False)


def _rng_for(seed: int, rep_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(rep_index,))
    return np.random.Generator(np.random.Philox(ss))


def _exponentials(rng: np.random.Generator) -> Callable[[], float]:
    """Unit exponentials from ``rng`` in draw order, one per call.

    The values come in chunks of ``standard_exponential(_CHUNK)``.  numpy's
    ``exponential(scale)`` is ``scale * standard_exponential()`` from the
    same ziggurat, so a value from here times ``scale`` equals the scalar
    call that would have drawn it.
    """
    chunks = iter(lambda: rng.standard_exponential(_CHUNK).tolist(), None)
    return chain.from_iterable(chunks).__next__


def run_single(sim: SimConfig, rep_index: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate one replication; returns the post-burn-in columns (class, arrival, wait).

    The columns are in service order: class as ``uint8`` (1 or 2), arrival
    time and wait as float64.  Events at equal times: a completion goes
    before an arrival, and a class-1 arrival before a class-2 one.  At
    equal credit the earlier arrival is served first, then class 1.  An
    arrival that finds the server idle draws its service time before its
    class's next inter-arrival time.
    """
    cfg = sim.queue
    validate(cfg)
    lam1, lam2, b, d = cfg.lambda1, cfg.lambda2, cfg.b, cfg.d
    svc_mean = 1.0 / cfg.mu
    exp_service = cfg.service is not ServiceKind.DETERMINISTIC
    draw = _exponentials(_rng_for(sim.seed, rep_index))
    inf = math.inf
    scale1 = 1.0 / lam1 if lam1 > 0 else 0.0
    scale2 = 1.0 / lam2 if lam2 > 0 else 0.0
    next1 = draw() * scale1 if lam1 > 0 else inf
    next2 = draw() * scale2 if lam2 > 0 else inf
    # every arrival drawn so far; the last entry is the one still to come
    a1, a2 = [next1], [next2]
    push1, push2 = a1.append, a2.append
    i1 = i2 = 0  # queue heads: the first unserved arrival of each class
    starts: list = []  # service start times, negated for class 2
    record = starts.append
    free = 0.0  # when the server finishes its current service

    for _ in range(sim.burn_in + sim.n_customers):
        while next1 < free or next2 < free:
            if next1 <= next2:
                next1 += draw() * scale1
                push1(next1)
            else:
                next2 += draw() * scale2
                push2(next2)
        h1, h2 = a1[i1], a2[i2]
        if h1 < free:
            if h2 < free:
                c1 = free - h1
                late = free - h2 - d
                c2 = b * late if late > 0.0 else 0.0
                if c1 > c2 or (c1 == c2 and h1 <= h2):
                    i1 += 1
                    record(free)
                else:
                    i2 += 1
                    record(-free)
            else:
                i1 += 1
                record(free)
        elif h2 < free:
            i2 += 1
            record(-free)
        elif next1 <= next2:
            # nobody waits: serve the next arrival at once, service time first
            i1 += 1
            free = next1
            record(free)
            free = free + draw() * svc_mean if exp_service else free + svc_mean
            next1 += draw() * scale1
            push1(next1)
            continue
        else:
            i2 += 1
            free = next2
            record(-free)
            free = free + draw() * svc_mean if exp_service else free + svc_mean
            next2 += draw() * scale2
            push2(next2)
            continue
        free = free + draw() * svc_mean if exp_service else free + svc_mean

    # the recorded services' class-k arrivals are the last ones served of
    # class k; |start| - arrival is the subtraction an event loop makes
    n = sim.n_customers
    start = np.fromiter(islice(starts, sim.burn_in, None), np.float64, n)
    second = np.signbit(start)
    k2 = int(np.count_nonzero(second))
    arrival = np.empty(n)
    arrival[~second] = a1[i1 - (n - k2):i1]
    arrival[second] = a2[i2 - k2:i2]
    wait = np.abs(start) - arrival
    return np.where(second, np.uint8(2), np.uint8(1)), arrival, wait


def _summaries(sim: SimConfig, grid: np.ndarray, reps: range, raw: bool) -> list:
    """Per replication in ``reps``: its {class: (CDF row on ``grid``, mean wait)} and raw text."""
    out = []
    for r in reps:
        classes, arrival, wait = run_single(sim, r)
        rows = {}
        for cls in (1, 2):
            waits = wait[classes == cls]
            if len(waits):
                waits.sort()
                rows[cls] = (np.searchsorted(waits, grid, side="right") / len(waits), waits.mean())
        out.append((rows, "".join(map(_RAW_LINE.format, repeat(r), classes.tolist(),
                                        arrival.tolist(), wait.tolist())) if raw else ""))
    return out


def _workers(reps: int) -> int:
    """Processes to run ``reps`` replications in (see the module docstring)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    return min(cpus or 1, reps) if forkable else 1


def _run_ranges(sim: SimConfig, grid: np.ndarray, cuts: list, raw: bool) -> list:
    """``_summaries`` of the ranges between ``cuts``, forked but the first; errors as in one loop.

    A child pickles its summaries or its range's exception, raised as its pipe is read."""
    children = {}  # pid -> read end of its pipe, for each child not yet reaped
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            sys.stdout.flush()  # or the child would hold a copy of unwritten text
            sys.stderr.flush()
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # leave only through os._exit: no inherited buffer, atexit
                try:  # handler or caller's finally may run twice
                    with os.fdopen(write_fd, "wb") as pipe:
                        try:
                            pickle.dump(_summaries(sim, grid, range(lo, hi), raw), pipe)
                        except Exception as exc:  # raised when the caller reads it
                            pickle.dump(exc, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
        summaries = _summaries(sim, grid, range(cuts[0], cuts[1]), raw)
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status:
                raise ChildProcessError(f"simulation worker {pid} exited without a result")
            result = pickle.loads(data)
            if isinstance(result, Exception):
                raise result
            summaries += result
    finally:
        for pid, pipe in children.items():  # on an error or interrupt, stop every child
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    return summaries


def run_replicated(
    sim: SimConfig, grid: np.ndarray, raw_path: Optional[str] = None
) -> EmpiricalCdf:
    """Averaged per-class empirical CDFs on ``grid`` with replication SEs.

    With ``raw_path``, the columns each replication is summarised from are
    also written there as CSV: header ``rep,class,arrival,wait``, floats
    with 12 significant digits, lines ended by ``\\n``.
    """
    t0 = time.perf_counter()
    grid = np.asarray(grid, dtype=float)
    reps = sim.replications
    workers = _workers(reps)
    # opened before any fork, so that a bad path fails before a child exists
    with open(raw_path, "w", newline="") if raw_path else nullcontext() as fh:
        summaries = _run_ranges(sim, grid, [reps * i // workers for i in range(workers + 1)],
                                fh is not None)
        if fh is not None:
            fh.write("rep,class,arrival,wait\n")
            fh.writelines(text for _, text in summaries)
    curves, curve_se, means, mean_se = {}, {}, {}, {}
    for cls in (1, 2):
        got = [rows[cls] for rows, _ in summaries if cls in rows]
        if not got:
            continue
        stack = np.vstack([row for row, _ in got])
        n = stack.shape[0]
        avg = stack.mean(axis=0)
        curves[cls] = CdfCurve(ts=grid, values=avg, provenance="empirical")
        curve_se[cls] = (
            stack.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(avg)
        )
        marr = np.array([mean for _, mean in got])
        means[cls] = float(marr.mean())
        mean_se[cls] = float(marr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return EmpiricalCdf(
        grid=grid,
        curves=curves,
        curve_se=curve_se,
        means=means,
        mean_se=mean_se,
        replications=reps,
        customers=reps * (sim.burn_in + sim.n_customers),
        wall_s=time.perf_counter() - t0,
        workers=workers,
    )
