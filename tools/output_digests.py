"""Digests of the benchmark's outputs, to show that a change moves no output bit.

    python3 tools/output_digests.py TREE [--seeds 0 1 2 3] > digests.txt
    python3 tools/output_digests.py TREE --compare OTHER [--seeds 0 1 2 3]

TREE is the root of a checkout, say a ``git archive`` export of a commit.
The script first prints, on lines that start with ``#``, the facts the
digests depend on: the Python and numpy versions, numpy's BLAS and the
SIMD extensions it found, and the thread counts, which it pins to one for
BLAS and OpenMP before numpy is imported, as ``perfbench/run.py`` does for
its workers.  ``tests/output_digests.txt`` is this output for the
checkout it is committed in, at the default seeds, and a tier-1 test
recomputes it.  It then runs the ``means``, ``cdf`` and ``kpi`` specs of
``TREE/perfbench/workloads.py`` on each seed with TREE's ``dapq`` and
prints one line per output: for ``means`` the float hex of both means, for
``cdf`` and ``kpi`` the exit code, the CSV's sha256 and the manifest
without ``duration_s`` and the output path.  It then prints the exit
code, the CSV sha256 (``none`` when no CSV was written) and the sha256 of
the standard error of one fixed ``dapq mean`` sweep over b and d per
service kind (``MEAN_SWEEP``), which covers the command line's mean path,
of one exponential sweep out to d = 300 (``LONG_SWEEP``), of one
deterministic sweep at occupancy 0.999 (``HEAVY_SWEEP``), of one sweep at
mu = 2 per service kind (``MU_SWEEP``, the only lines off mu = 1), of a
class-2 ``dapq kpi`` sweep and region at a target wait too small to
invert (``TINY_TARGET``), of a class-2 ``dapq kpi`` sweep whose class-1
mean falls with d (``TREND_SWEEP``), of a class-2 ``dapq kpi`` sweep
out to d = 1000, far past its target wait (``LONG_CLASS2_SWEEP``), of a
class-2 ``dapq kpi`` sweep whose first delay is too small to invert and whose second cannot be
truncated (``FIRST_FAILURE``: the first delay's OutOfRange, exit 2, is
what a loop over the delays raises), of a class-2 ``dapq cdf`` curve
with a 286-state busy-weight head and 300 points past d over three
blocks (``LONG_HEAD_CDF``), of a class-2 ``dapq kpi`` sweep whose six
delays have heads of different lengths in one lockstep search
(``LONG_HEAD_SWEEP``), and of one small seeded ``dapq simulate`` run
(``SIMULATE``).  After each fixed ``dapq mean`` line it prints the sha256
of the float hex of both means, from TREE's ``dapq_means``, at each (b, d)
point of that command line, and after the ``dapq cdf`` line the sha256 of
the float hex of the curve's values and ``error_estimate``, from TREE's
``class2_cdf_dapq``, since the CSV's 12 significant digits hide a move of
a few ulps.
CSVs go to a temporary directory and no bytecode is written, so nothing
is written inside TREE.  Diffing the output for two trees shows whether any output
changed.

With ``--compare OTHER`` the script runs both trees, each in its own
process, and prints instead, per ``cdf`` and ``kpi`` output and per
fixed command line, the largest absolute difference over the CSV's
numeric cells between TREE and OTHER: 0.0 for equal CSVs (or none on
either side), inf when a text cell differs or the CSVs differ in shape
or presence.  That is the tolerance a change that moves outputs
states.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("means", "cdf", "kpi")
MEAN_SWEEP = ["--lam1", "0.5", "--lam2", "0.3", "--b", "0:1:0.25", "--d", "0:8:2"]
LONG_SWEEP = ["--lam1", "0.5", "--lam2", "0.3", "--b", "0:1:0.5", "--d", "0:300:100"]
HEAVY_SWEEP = ["--lam1", "0.5", "--lam2", "0.499", "--b", "0:1:0.5", "--d", "0:5"]
# every d mu an integer, as deterministic service needs
MU_SWEEP = ["--lam1", "1.0", "--lam2", "0.6", "--mu", "2", "--b", "0:1:0.5", "--d", "0:2:1"]
TINY_TARGET = ["kpi", "--class", "2", "--w", "1e-310", "--p", "0.5"]
TREND_SWEEP = ["kpi", "--class", "2", "--w", "8", "--p", "0.95", "--lam1", "0.35",
               "--lam2", "0.25", "--sweep-d", "0:2:0.5"]
LONG_CLASS2_SWEEP = ["kpi", "--class", "2", "--w", "4", "--p", "0.85", "--lam1", "0.4",
                     "--lam2", "0.18", "--sweep-d", "0:1000:100"]
FIRST_FAILURE = ["kpi", "--class", "2", "--w", "4", "--p", "0.85", "--lam1", "0.4",
                 "--lam2", "0.18", "--sweep-d", "1e-310:5000:5000"]
LONG_HEAD_CDF = ["cdf", "--kind", "dapq2", "--lam1", "0.9", "--lam2", "0.09", "--b", "0.5",
                 "--d", "100", "--t-max", "400", "--dt", "1"]
LONG_HEAD_SWEEP = ["kpi", "--class", "2", "--w", "30", "--p", "0.99", "--lam1", "0.5",
                   "--lam2", "0.3", "--sweep-d", "0:25:5"]
SIMULATE = ["simulate", "--lam1", "0.5", "--lam2", "0.3", "--b", "0.5", "--d", "2",
            "--n", "400", "--burn-in", "100", "--reps", "3", "--seed", "7",
            "--t-max", "10", "--dt", "0.5"]
# BLAS and OpenMP pools would otherwise start a thread per core
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# (label, argv) of the fixed command lines, whose CSVs are cli-<index>.csv
COMMANDS = [(f"{label} service={service}", ["mean", *sweep, "--service", service])
            for label, sweep, service in (("mean", MEAN_SWEEP, "exp"),
                                          ("mean", MEAN_SWEEP, "det"),
                                          ("mean long", LONG_SWEEP, "exp"),
                                          ("mean heavy", HEAVY_SWEEP, "det"),
                                          ("mean mu=2", MU_SWEEP, "exp"),
                                          ("mean mu=2", MU_SWEEP, "det"))]
COMMANDS += [("kpi tiny-w sweep",
              [*TINY_TARGET, "--lam1", "0.4", "--lam2", "0.18", "--sweep-d", "1:2"]),
             ("kpi tiny-w region", [*TINY_TARGET, "--region", "--resolution", "0.1"]),
             ("kpi trend sweep", TREND_SWEEP),
             ("kpi long class-2 sweep", LONG_CLASS2_SWEEP),
             ("kpi first-failure sweep", FIRST_FAILURE),
             ("cdf long head", LONG_HEAD_CDF),
             ("kpi long-head sweep", LONG_HEAD_SWEEP),
             ("simulate", SIMULATE)]


def _facts() -> list:
    """The header lines: the facts of this process that the digests depend on."""
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas, simd = f"{blas['name']} {blas['version']}", config["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only as text
        blas, simd = "unknown", ["unknown"]
    return [f"# python {platform.python_version()} {platform.machine()}",
            f"# numpy {numpy.__version__}",
            f"# blas {blas}",
            "# simd " + " ".join(simd),
            "# threads " + " ".join(f"{k}={os.environ[k]}" for k in THREAD_PINS)]


def _digest(name: str, raw, path: Path) -> str:
    if name == "means":
        return f"mean_w1={float(raw.mean_w1).hex()} mean_w2={float(raw.mean_w2).hex()}"
    line = f"exit={raw}"
    if path.exists():
        line += f" sha256={hashlib.sha256(path.read_bytes()).hexdigest()}"
    manifest_path = Path(str(path) + ".manifest.json")
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        del manifest["duration_s"]
        del manifest["parameters"]["out"]
        line += " manifest=" + json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return line


def _mean_floats(dapq, argv) -> str:
    """sha256 of the float hex of both means at each (b, d) point of a ``dapq mean`` line."""
    args = dapq.cli._build_parser().parse_args(argv)
    base = dapq.QueueConfig(args.lam1, args.lam2, args.mu, service=dapq.ServiceKind(args.service))
    lines = []
    for d in dapq.cli._parse_sweep(args.d):
        for b in dapq.cli._parse_sweep(args.b):
            means = dapq.dapq_means(base.replace(b=b, d=d))
            lines.append(f"{means.mean_w1.hex()} {means.mean_w2.hex()}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _cdf_floats(dapq, argv) -> str:
    """sha256 of the float hex of the values and error estimate of a ``dapq cdf`` dapq2 line."""
    args = dapq.cli._build_parser().parse_args(argv)
    config = dapq.cli._queue_config(args)
    curve = dapq.class2_cdf_dapq(config, dapq.cli._cdf_grid(args, config))
    lines = [f"{v.hex()}\n" for v in map(float, curve.values)]
    lines.append(f"{float(curve.error_estimate).hex()}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _cells(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def max_abs_diff(path: Path, other: Path) -> float:
    """The largest |a - b| over the numeric cells of two CSVs, inf if they cannot be matched."""
    if not (path.exists() and other.exists()):
        return 0.0 if path.exists() == other.exists() else math.inf
    rows, other_rows = _cells(path), _cells(other)
    if [len(r) for r in rows] != [len(r) for r in other_rows]:
        return math.inf
    worst = 0.0
    for row, other_row in zip(rows, other_rows):
        for a, b in zip(row, other_row):
            if a == b:
                continue
            try:
                worst = max(worst, abs(float(a) - float(b)))
            except ValueError:
                return math.inf
    return worst


def _compare(tree: Path, other: Path, seeds) -> int:
    """Run both trees into scratch directories and print each CSV's largest numeric change."""
    with tempfile.TemporaryDirectory() as scratch:
        dirs = [Path(scratch) / "tree", Path(scratch) / "other"]
        for root, out in zip((tree, other), dirs):
            out.mkdir()
            subprocess.run([sys.executable, "-B", __file__, str(root), "--csv-dir", str(out),
                            "--seeds", *map(str, seeds)], check=True, stdout=subprocess.DEVNULL)
        for seed in seeds:
            for name in ("cdf", "kpi"):
                count = max(len(list(out.glob(f"{name}-{seed}-*.csv"))) for out in dirs)
                for i in range(count):
                    file = f"{name}-{seed}-{i}.csv"
                    print(f"{name} seed={seed} op={i} "
                          f"max_abs_diff={max_abs_diff(dirs[0] / file, dirs[1] / file)!r}",
                          flush=True)
        for i, (label, _) in enumerate(COMMANDS):
            file = f"cli-{i}.csv"
            print(f"{label} max_abs_diff={max_abs_diff(dirs[0] / file, dirs[1] / file)!r}",
                  flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="root of the checkout to run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--compare", type=Path, metavar="OTHER",
                        help="print each CSV's largest numeric change from TREE to OTHER")
    parser.add_argument("--csv-dir", type=Path, help=argparse.SUPPRESS)  # keep the CSVs here
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    os.environ.update(THREAD_PINS)
    if args.compare is not None:
        return _compare(tree, args.compare.resolve(), args.seeds)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import dapq
    import dapq.cli
    import workloads

    for module in (dapq, workloads):
        if tree not in Path(module.__file__).resolve().parents:
            raise SystemExit(f"{module.__name__} was imported from {module.__file__}, not {tree}")
    print("\n".join(_facts()), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        scratch = args.csv_dir or tmp
        for seed in args.seeds:
            for name in WORKLOADS:
                workload = workloads.WORKLOADS[name]
                for i, spec in enumerate(workload.specs(seed)):
                    path = Path(scratch) / f"{name}-{seed}-{i}.csv"
                    print(f"{name} seed={seed} op={i} {_digest(name, workload.run(spec, path), path)}",
                          flush=True)
        for i, (label, argv) in enumerate(COMMANDS):
            path = Path(scratch) / f"cli-{i}.csv"
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = dapq.cli.main([*argv, "--out", str(path)])
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "none"
            stderr = hashlib.sha256(err.getvalue().encode()).hexdigest()
            print(f"{label} exit={code} sha256={digest} stderr={stderr}", flush=True)
            if argv[0] == "mean":
                print(f"{label} floats sha256={_mean_floats(dapq, argv)}", flush=True)
            elif argv[0] == "cdf":
                print(f"{label} floats sha256={_cdf_floats(dapq, argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
