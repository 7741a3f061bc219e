"""Digests of the benchmark's outputs, to show that a change moves no output bit.

    python3 tools/output_digests.py TREE [--seeds 0 1 2 3] > digests.txt

TREE is the root of a checkout, say a ``git archive`` export of a commit.
The script runs the ``means``, ``cdf`` and ``kpi`` specs of
``TREE/perfbench/workloads.py`` on each seed with TREE's ``dapq`` and
prints one line per output: for ``means`` the float hex of both means, for
``cdf`` and ``kpi`` the exit code, the CSV's sha256 and the manifest
without ``duration_s`` and the output path.  It then prints the exit code
and CSV sha256 of one fixed ``dapq mean`` sweep over b and d per service
kind (``MEAN_SWEEP``), which covers the command line's mean path.  CSVs go
to a temporary directory and no bytecode is written, so nothing is
written inside TREE.
Diffing the output for two trees shows whether any output changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("means", "cdf", "kpi")
MEAN_SWEEP = ["--lam1", "0.5", "--lam2", "0.3", "--b", "0:1:0.25", "--d", "0:8:2"]


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="root of the checkout to run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import dapq
    import dapq.cli
    import workloads

    for module in (dapq, workloads):
        if tree not in Path(module.__file__).resolve().parents:
            raise SystemExit(f"{module.__name__} was imported from {module.__file__}, not {tree}")
    with tempfile.TemporaryDirectory() as scratch:
        for seed in args.seeds:
            for name in WORKLOADS:
                workload = workloads.WORKLOADS[name]
                for i, spec in enumerate(workload.specs(seed)):
                    path = Path(scratch) / f"{name}-{seed}-{i}.csv"
                    print(f"{name} seed={seed} op={i} {_digest(name, workload.run(spec, path), path)}",
                          flush=True)
        for service in ("exp", "det"):
            path = Path(scratch) / f"mean-{service}.csv"
            code = dapq.cli.main(["mean", *MEAN_SWEEP, "--service", service, "--out", str(path)])
            print(f"mean service={service} exit={code} "
                  f"sha256={hashlib.sha256(path.read_bytes()).hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
