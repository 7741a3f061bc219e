"""Discrete-event simulation of the two-class delayed APQ.

Brute-force oracle for the analytic machinery: every customer is generated
and moved through the queue explicitly.  At each service start the waiting
customer with the most accumulated credit is chosen, where class-1 credit
grows at rate 1 from arrival and class-2 credit at rate b starting d time
units after arrival.  Credit order within a class is arrival order, so the
selection reduces to comparing the two queue heads.

Replications draw from independent substreams spawned off one root seed
(SeedSequence spawn keys), so results are deterministic given the seed and
independent of execution order.  Within a replication every inter-arrival
and service time comes from its substream in event order.  The unit
exponentials are drawn in chunks and scaled one at a time, which gives
exactly the values of one ``exponential(scale)`` call per event; the event
loop is a flat comparison of the next arrival and completion times.
"""

from __future__ import annotations

import csv
import math
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .core import OutOfRange, QueueConfig, ServiceKind, validate
from .transforms import CdfCurve

# Unit exponentials drawn per refill of a replication's buffer.
_CHUNK = 1024

# Fields of a WaitRecord, read with C-level ``map`` when records are split by class.
_CLASS, _WAIT = itemgetter(0), itemgetter(2)


@dataclass(frozen=True)
class SimConfig:
    """Replicated-run protocol: who to simulate, how long, and the seed.

    ``n_customers`` services are recorded per replication after the first
    ``burn_in`` services are discarded.
    """

    queue: QueueConfig
    n_customers: int = 4000
    burn_in: int = 1500
    replications: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.burn_in < 0 or self.n_customers <= self.burn_in:
            raise OutOfRange("need n_customers > burn_in >= 0")
        if self.replications < 1:
            raise OutOfRange("replications must be >= 1")
        if not (self.queue.lambda1 > 0 or self.queue.lambda2 > 0):
            # nobody would ever arrive, so no service could be recorded
            raise OutOfRange("simulation needs lambda1 > 0 or lambda2 > 0")


@dataclass(frozen=True)
class EmpiricalCdf:
    """Replication-averaged empirical CDFs and means, one entry per class.

    ``customers`` counts every simulated service, burn-in included, and
    ``wall_s`` is the wall time of the whole replicated run.
    """

    grid: np.ndarray
    curves: Dict[int, CdfCurve]
    curve_se: Dict[int, np.ndarray]
    means: Dict[int, float]
    mean_se: Dict[int, float]
    replications: int
    customers: int = 0
    wall_s: float = 0.0


WaitRecord = Tuple[int, float, float]  # (class, arrival time, wait)


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


def run_single(sim: SimConfig, rep_index: int) -> List[WaitRecord]:
    """Simulate one replication; returns post-burn-in (class, arrival, wait).

    Events at equal times: a completion goes before an arrival, and a
    class-1 arrival before a class-2 one.  At equal credit the earlier
    arrival is served first, then class 1.  An arrival that finds the
    server idle draws its service time before its class's next
    inter-arrival time.
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
    q1: deque = deque()
    q2: deque = deque()
    push1, pop1, push2, pop2 = q1.append, q1.popleft, q2.append, q2.popleft
    records: List[WaitRecord] = []
    record = records.append
    burn_in = sim.burn_in
    need = burn_in + sim.n_customers
    served = 0
    completion = inf  # inf exactly when the server is idle

    while served < need:
        if completion <= next1 and completion <= next2:
            t = completion
            if q1 and q2:
                h1, h2 = q1[0], q2[0]
                c1 = t - h1
                late = t - h2 - d
                c2 = b * late if late > 0.0 else 0.0
                if c1 > c2 or (c1 == c2 and h1 <= h2):
                    cls, arr = 1, pop1()
                else:
                    cls, arr = 2, pop2()
            elif q1:
                cls, arr = 1, pop1()
            elif q2:
                cls, arr = 2, pop2()
            else:
                completion = inf
                continue
            served += 1
            if served > burn_in:
                record((cls, arr, t - arr))
            completion = t + draw() * svc_mean if exp_service else t + svc_mean
        elif next1 <= next2:
            t = next1
            if completion == inf:
                served += 1
                if served > burn_in:
                    record((1, t, 0.0))
                completion = t + draw() * svc_mean if exp_service else t + svc_mean
            else:
                push1(t)
            next1 = t + draw() * scale1
        else:
            t = next2
            if completion == inf:
                served += 1
                if served > burn_in:
                    record((2, t, 0.0))
                completion = t + draw() * svc_mean if exp_service else t + svc_mean
            else:
                push2(t)
            next2 = t + draw() * scale2
    return records


def run_replicated(
    sim: SimConfig, grid: np.ndarray, raw_path: Optional[str] = None
) -> EmpiricalCdf:
    """Averaged per-class empirical CDFs on ``grid`` with replication SEs.

    With ``raw_path``, the records each replication is summarised from are
    also written there as CSV: header ``rep,class,arrival,wait``, floats
    with 12 significant digits.
    """
    t0 = time.perf_counter()
    grid = np.asarray(grid, dtype=float)
    reps = sim.replications
    cdf_acc = {1: [], 2: []}
    mean_acc = {1: [], 2: []}
    with open(raw_path, "w", newline="") if raw_path else nullcontext() as fh:
        raw = csv.writer(fh) if fh is not None else None
        if raw is not None:
            raw.writerow(["rep", "class", "arrival", "wait"])
        for r in range(reps):
            records = run_single(sim, r)
            if raw is not None:
                raw.writerows([r, c, f"{a:.12g}", f"{w:.12g}"] for c, a, w in records)
            classes = np.frombuffer(bytes(map(_CLASS, records)), np.uint8)
            every_wait = np.fromiter(map(_WAIT, records), float, len(records))
            for cls in (1, 2):
                waits = every_wait[classes == cls]
                if len(waits) == 0:
                    continue
                waits.sort()
                cdf_acc[cls].append(np.searchsorted(waits, grid, side="right") / len(waits))
                mean_acc[cls].append(waits.mean())
    curves, curve_se, means, mean_se = {}, {}, {}, {}
    for cls in (1, 2):
        if not cdf_acc[cls]:
            continue
        stack = np.vstack(cdf_acc[cls])
        n = stack.shape[0]
        avg = stack.mean(axis=0)
        curves[cls] = CdfCurve(ts=grid, values=avg, provenance="empirical")
        curve_se[cls] = (
            stack.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(avg)
        )
        marr = np.array(mean_acc[cls])
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
    )
