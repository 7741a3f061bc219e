"""Benchmark of the ``dapq`` toolkit; see README.md in this directory.

    python3 perfbench/run.py --workload {means,cdf,kpi,sim} --seed N \\
        --seconds S --trace {0,1}

Runs from the root of a checkout.  Each workload runs in a fresh
single-threaded process (``worker.py``) that imports ``dapq`` from the
checkout's ``src/``; further fresh processes only set up, so ``setup_s`` is
a median over several processes.  With ``--trace 0`` the last line of
output is a JSON object holding the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it holds the per-layer metrics.  The lines before it
say the same for a reader, with the machine facts.  Full results go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 2  # set-up-only processes besides the measuring one
DEADLINE_S = 170.0
# BLAS and OpenMP pools would otherwise start a thread per core.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _parse(argv, workload_names):
    p = argparse.ArgumentParser(description="Benchmark of the dapq toolkit.")
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run a few small inputs (for the benchmark's own tests)")
    return p.parse_args(argv)


def _worker(args, outdir: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--outdir", str(outdir)]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, **THREAD_PINS)
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned_at))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dapq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    start = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, [w["name"] for w in spec["workloads"]])
    if not (ROOT / "src" / "dapq" / "__init__.py").is_file():
        print(f"error: no dapq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    outdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = start + DEADLINE_S
    try:
        setups = [_worker(args, outdir, deadline, True) for _ in range(SETUP_PROBES)]
        res = _worker(args, outdir, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    setups.append(res)
    setup_s = [s["setup_s"] for s in setups]
    setup_raw_s = [s["setup_raw_s"] for s in setups]

    walls = res["raw_pass_s"]
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and res["inputs_match_reference"] is not False
    facts = {
        "nproc": os.cpu_count(), "cpu": _cpu_model(), **res["versions"],
        "commit": _git_commit(), "src_sha256": _src_sha256(), "seed": args.seed,
        "worker_threads": res["threads"],
    }
    if args.trace:
        declared = spec["per_layer"]
        values = {name: value for name, (value, _) in res["layers"].items()}
        units = {name: unit for name, (_, unit) in res["layers"].items()}
    else:
        declared = spec["end_to_end"]
        values = {"wall_s": res["wall_s"], "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for m in declared:
        if units[m["name"]] != m["unit"]:
            print(f"error: {m['name']} measured in {units[m['name']]}, declared {m['unit']}",
                  file=sys.stderr)
            return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(walls)}  ops {attempted}  failed {failed}  correct {correct}")
    print(f"  fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    if not args.trace:
        print(f"  wall_s {values['wall_s']:.6g} s (sum of per-op medians over {len(walls)} "
              f"passes at reference speed; raw pass times {min(walls):.4g} to {max(walls):.4g} s)")
        print(f"  setup_s {values['setup_s']:.6g} s (median of {len(setups)} fresh processes at "
              f"reference speed; raw " + ", ".join(f"{s:.4g}" for s in setup_raw_s) + " s)")
        print(f"  peak_rss_mb {values['peak_rss_mb']:.6g} MiB")
    else:
        for m in declared:
            note = {"op_tail_ms": f" ({res['op_tail_label']})",
                    "transforms.contour_evals": " (computed: points x 61)"}.get(m["name"], "")
            print(f"  {m['name']} {values[m['name']]:.6g} {m['unit']}{note}")
    if res["inputs_match_reference"] is False:
        print("  inputs differ from the seed-commit reference inputs of this seed")
    if res["inputs_match_reference"]:
        print(f"  csv sha256 changed from the seed commit: {len(res['sha256_changed'])} of "
              f"{len(res['csv_sha256'])} ({', '.join(res['sha256_changed']) or 'none'})")
    for note in res["notes"]:
        print(f"  failure: {note}")
    print("  machine " + " ".join(f"{k}={v}" for k, v in facts.items()))

    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "facts": facts, "setup_samples_s": setup_s,
            "setup_raw_samples_s": setup_raw_s, **res}
    (outdir / "result.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
