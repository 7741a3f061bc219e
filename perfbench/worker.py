"""One benchmark workload in one fresh process; started by ``run.py``.

Imports ``dapq`` from the checkout's ``src/``, builds the workload's
inputs from the seed, makes one warm-up call and reports the set-up time
since ``--spawned-at`` (the parent's monotonic clock just before it
started this process).  With ``--setup-only`` it stops there.  Otherwise it
runs whole passes over the inputs for the time budget: with ``--trace 0``
untraced; with ``--trace 1`` untraced for half the budget, then one traced
pass.  The last line of its output is one JSON object of raw results.

The speed of the machine this was built on drifts by up to half within
seconds (other tenants share its cores), so during set-up and the
untraced passes a ``SpeedSampler`` times a short calibration loop every
20 ms, and each time is rescaled to the speed at which that loop takes
``CAL_REF_S``.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fastest time of calibrate() on the machine the baseline was recorded on
# (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6); scaled times are
# seconds at that speed.
CAL_REF_S = 0.0003
SAMPLE_EVERY_S = 0.02


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spawned-at", type=float, required=True, dest="spawned_at")
    p.add_argument("--setup-only", action="store_true", dest="setup_only")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--outdir", required=True)
    return p.parse_args(argv)


def _branch(x: float, y: float) -> float:
    return x + y if x > y else y - x


def calibrate(rng) -> float:
    """Seconds taken by a fixed mix of the work the dapq code paths do.

    Interpreter control flow with small containers and calls (the
    simulator's event loop, mpmath, the contour sums), then scalar numpy
    calls (the simulator's draws); ``rng`` is a numpy Generator.
    """
    t0 = time.perf_counter()
    queue, slots, s = deque(), {}, 0.0
    for i in range(700):
        x = (i * 7919) % 1013
        if x & 1:
            queue.append(x)
        elif queue:
            slots[x % 61] = queue.popleft()
        s = _branch(s, x * 0.5)
    t = 0.0
    for _ in range(250):
        t = min(t + rng.exponential(1.0), 1e9)
    return time.perf_counter() - t0


class SpeedSampler:
    """Times ``calibrate()`` on every SIGALRM of an interval timer while active.

    The samples run inside the measured ops (between bytecodes of the main
    thread); ``scale`` takes their time back out of an interval.
    """

    def __init__(self):
        import numpy as np

        self.starts, self.ends, self.cals = [], [], []
        self._busy = False
        self._rng = np.random.Generator(np.random.Philox(0))

    def _sample(self, signum=None, frame=None):
        if self._busy:  # a late timer tick inside a sample: skip it, keep starts sorted
            return
        self._busy = True
        t0 = time.perf_counter()
        cal = calibrate(self._rng)
        self.starts.append(t0)
        self.cals.append(cal)
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self, t0: float, t1: float):
        """Seconds of [t0, t1] not spent sampling, raw and at reference speed.

        The speed is the mean of the samples inside the interval and the
        nearest one on each side.
        """
        a = bisect.bisect_left(self.starts, t0)
        b = bisect.bisect_right(self.starts, t1)
        net = (t1 - t0) - sum(self.ends[k] - self.starts[k] for k in range(a, b))
        near = self.cals[max(0, a - 1):b + 1]
        return net, net * CAL_REF_S / statistics.fmean(near)


def execute(wl, specs, outdir: Path):
    """Run every op once; return each op's (start, end) and output (or exception)."""
    times, outputs = [], []
    for i, spec in enumerate(specs):
        t0 = time.perf_counter()
        try:
            out = wl.run(spec, outdir / f"op{i}.csv")
        except Exception as exc:  # a failing op is counted, not fatal
            out = exc
        times.append((t0, time.perf_counter()))
        outputs.append(out)
    return times, outputs


def evaluate(wl, specs, outputs, refs, ctxs, outdir: Path, tally: dict) -> None:
    """Record and check each output, adding the outcome to ``tally``."""
    for i, (spec, out, ref, ctx) in enumerate(zip(specs, outputs, refs, ctxs)):
        weight = wl.weight(spec)
        tally["attempted"] += weight
        if isinstance(out, Exception):
            tally["failed"] += weight
            tally["notes"].append(f"op {i} raised " + "".join(
                traceback.format_exception_only(type(out), out)).strip())
            continue
        record = wl.record(spec, out, outdir / f"op{i}.csv")
        check = wl.check(spec, record, ref, ctx)
        tally["max_abs_dev"] = max(tally["max_abs_dev"], check.max_abs_dev)
        if "sha256" in record:
            tally["csv_sha256"][f"op{i}"] = record["sha256"]
            tally["csv_bytes"][f"op{i}"] = record["bytes"]
            if ref is not None and ref.get("sha256") != record["sha256"]:
                tally["sha256_changed"].add(f"op{i}")
        if not check.ok:
            tally["failed"] += weight
            tally["notes"].extend(f"op {i}: {f}" for f in check.failures)


def _tail(times_ms):
    """Highest percentile with at least ten ops beyond it (the maximum below 20 ops)."""
    ranked = sorted(times_ms)
    n = len(ranked)
    if n < 20:
        return ranked[-1], f"max of {n} ops"
    return ranked[n - 11], f"p{100 * (n - 10) / n:.0f} of {n} ops"


def _versions():
    import mpmath
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


def _threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def main(argv=None) -> int:
    args = _parse(argv)
    with SpeedSampler() as setup_speed:
        sys.path.insert(0, str(ROOT / "src"))
        import dapq  # noqa: F401  (the import is part of set-up)

        import spans
        import workloads

        wl = workloads.WORKLOADS[args.workload]
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        specs = wl.specs(args.seed, args.tiny)
        wl.warm_up(outdir)
        setup_raw_s = time.monotonic() - args.spawned_at
    setup_raw_s -= sum(e - s for s, e in zip(setup_speed.starts, setup_speed.ends))
    setup = {"setup_s": setup_raw_s * CAL_REF_S / statistics.fmean(setup_speed.cals),
             "setup_raw_s": setup_raw_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    inputs_match = None
    refs = [None] * len(specs)
    if args.seed == workloads.DEFAULT_SEED and not args.tiny:
        reference = workloads.load_reference(args.workload)
        inputs_match = reference["specs"] == specs
        if inputs_match:
            refs = reference["records"]
    ctxs = wl.context(specs)

    tally = {"attempted": 0, "failed": 0, "max_abs_dev": 0.0, "notes": [],
             "csv_sha256": {}, "csv_bytes": {}, "sha256_changed": set()}
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = []
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        while True:
            times, outputs = execute(wl, specs, outdir)
            passes.append(times)
            evaluate(wl, specs, outputs, refs, ctxs, outdir, tally)
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > budget:
                break
    net, scaled = [], []
    for times in passes:
        net_pass, scaled_pass = zip(*(sampler.scale(*t) for t in times))
        net.append(list(net_pass))
        scaled.append(list(scaled_pass))

    result = {
        **setup,
        # sum over ops of each op's median over the passes
        "wall_s": sum(statistics.median(op) for op in zip(*scaled)),
        "raw_pass_s": [sum(p) for p in net], "scaled_pass_s": [sum(p) for p in scaled],
        "op_durations": net,
        "speed_samples": len(sampler.cals),
        "inputs_match_reference": inputs_match, "versions": _versions(),
    }
    if args.trace:
        tracer = spans.Tracer()
        with spans.traced_layers(tracer):
            times, outputs = execute(wl, specs, outdir)
        durations = [t1 - t0 for t0, t1 in times]
        traced_wall = sum(durations)
        evaluate(wl, specs, outputs, refs, ctxs, outdir, tally)
        layers = spans.layer_metrics(tracer, traced_wall)
        if wl.ops_from_span:
            op_times = [end - s for name, s, end, _ in tracer.spans if name == wl.ops_from_span]
        else:
            op_times = durations
        op_ms = [1e3 * t for t in op_times]
        tail, tail_label = _tail(op_ms)
        untraced = sum(statistics.median(op) for op in zip(*net))
        layers.update({
            "op_count": (len(op_ms), "count"),
            "op_p50_ms": (statistics.median(op_ms), "ms"),
            "op_tail_ms": (tail, "ms"),
            "trace.overhead_frac": (traced_wall / untraced - 1.0, "ratio"),
            "check.max_abs_dev": (tally["max_abs_dev"], "abs"),
            "cli.csv_bytes": (sum(tally["csv_bytes"].values()), "bytes"),
        })
        result["layers"] = layers
        result["op_tail_label"] = tail_label
        tracer.write(outdir / "spans.json")

    result.update(
        attempted=tally["attempted"], failed=tally["failed"], notes=tally["notes"][:20],
        csv_sha256=tally["csv_sha256"], sha256_changed=sorted(tally["sha256_changed"]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        threads=_threads(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
