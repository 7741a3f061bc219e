"""Digests of the benchmark's outputs, to show that a change moves no output bit.

    python3 tools/output_digests.py TREE [--seeds 0 1 2 3] > digests.txt
    python3 tools/output_digests.py TREE --compare OTHER [--seeds 0 1 2 3]

TREE is the root of a checkout, say a ``git archive`` export of a commit.
The script runs the ``means``, ``cdf`` and ``kpi`` specs of
``TREE/perfbench/workloads.py`` on each seed with TREE's ``dapq`` and
prints one line per output: for ``means`` the float hex of both means, for
``cdf`` and ``kpi`` the exit code, the CSV's sha256 and the manifest
without ``duration_s`` and the output path.  It then prints the exit code
and CSV sha256 (``none`` when no CSV was written) of one fixed ``dapq
mean`` sweep over b and d per service kind (``MEAN_SWEEP``), which covers
the command line's mean path, of one deterministic sweep at occupancy
0.999 (``HEAVY_SWEEP``), and of a class-2 ``dapq kpi`` sweep and region
at a target wait too small to invert (``TINY_TARGET``).  CSVs go to a temporary directory and no
bytecode is written, so nothing is written inside TREE.
Diffing the output for two trees shows whether any output changed.

With ``--compare OTHER`` the script runs both trees, each in its own
process, and prints instead, per ``cdf`` and ``kpi`` output, the largest
absolute difference over the CSV's numeric cells between TREE and OTHER:
0.0 for equal CSVs, inf when a text cell differs or the CSVs differ in
shape or presence.  That is the tolerance a change that moves outputs
states.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("means", "cdf", "kpi")
MEAN_SWEEP = ["--lam1", "0.5", "--lam2", "0.3", "--b", "0:1:0.25", "--d", "0:8:2"]
HEAVY_SWEEP = ["--lam1", "0.5", "--lam2", "0.499", "--b", "0:1:0.5", "--d", "0:5"]
TINY_TARGET = ["kpi", "--class", "2", "--w", "1e-310", "--p", "0.5"]


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
    with tempfile.TemporaryDirectory() as tmp:
        scratch = args.csv_dir or tmp
        for seed in args.seeds:
            for name in WORKLOADS:
                workload = workloads.WORKLOADS[name]
                for i, spec in enumerate(workload.specs(seed)):
                    path = Path(scratch) / f"{name}-{seed}-{i}.csv"
                    print(f"{name} seed={seed} op={i} {_digest(name, workload.run(spec, path), path)}",
                          flush=True)
        commands = [(f"{label} service={service}", ["mean", *sweep, "--service", service])
                    for label, sweep, service in (("mean", MEAN_SWEEP, "exp"),
                                                  ("mean", MEAN_SWEEP, "det"),
                                                  ("mean heavy", HEAVY_SWEEP, "det"))]
        commands += [("kpi tiny-w sweep",
                      [*TINY_TARGET, "--lam1", "0.4", "--lam2", "0.18", "--sweep-d", "1:2"]),
                     ("kpi tiny-w region", [*TINY_TARGET, "--region", "--resolution", "0.1"])]
        for i, (label, argv) in enumerate(commands):
            path = Path(scratch) / f"cli-{i}.csv"
            code = dapq.cli.main([*argv, "--out", str(path)])
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "none"
            print(f"{label} exit={code} sha256={digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
