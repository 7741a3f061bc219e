"""Command-line surface: plot-ready CSV output for every computation.

Subcommands
-----------
mean      expected waits over single points or (b, d) sweeps
cdf       waiting-time CDFs (closed form, inverted, approximate, simulated)
simulate  replicated discrete-event runs with averaged empirical CDFs
kpi       optimal accumulation rates, delay sweeps, feasible regions
rerun     re-execute a previously written run manifest

Every file output is accompanied by a ``<out>.manifest.json`` manifest
recording the resolved parameters and how the result was computed;
analytic subcommands are bit-reproducible from their manifests, simulation
subcommands statistically reproducible given the recorded seed
(bit-identical for an identical seed).

Exit codes: 0 success, 2 invalid input, 3 infeasible KPI, 4 numerical
accuracy failure.

Default tolerances can be overridden with the environment variables
DAPQ_EPS_SERIES, DAPQ_EPS_ROOT, DAPQ_EPS_INVERT, and DAPQ_MAX_STATES.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import time
from typing import List, Optional

import numpy as np

from . import __version__, approx, kpi as kpi_mod, mean_wait, simulate, transforms
from .core import (
    AccuracyNotMet,
    DapqError,
    Kpi,
    OutOfRange,
    QueueConfig,
    ServiceKind,
    ToleranceConfig,
    TruncationOverflow,
    _check_count,
    _first_failure,
    validate,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

_NUMERICAL_ERRORS = (AccuracyNotMet, TruncationOverflow)


def _tol_from_env() -> ToleranceConfig:
    kwargs = {}
    for env, field, conv in (
        ("DAPQ_EPS_SERIES", "eps_series", float),
        ("DAPQ_EPS_ROOT", "eps_root", float),
        ("DAPQ_EPS_INVERT", "eps_invert", float),
        ("DAPQ_MAX_STATES", "max_states", int),
    ):
        raw = os.environ.get(env)
        if raw is not None:
            try:
                kwargs[field] = conv(raw)
            except ValueError:
                raise OutOfRange(f"cannot parse {env}={raw!r} as {conv.__name__}") from None
    return ToleranceConfig(**kwargs)


def _parse_sweep(text: str) -> List[float]:
    """'a:b[:step]' inclusive sweep, or a single value; every number finite."""
    parts = text.split(":")
    try:
        values = [float(part) for part in parts]
    except ValueError:
        raise OutOfRange(f"cannot parse sweep {text!r}") from None
    if len(parts) > 3 or not all(math.isfinite(v) for v in values):
        raise OutOfRange(f"cannot parse sweep {text!r}: want finite a or a:b[:step]")
    if len(parts) == 1:
        return values
    lo, hi, step = values if len(parts) == 3 else values + [1.0]
    if step <= 0 or hi < lo:
        raise OutOfRange(f"cannot parse sweep {text!r}")
    _check_count((hi - lo) / step + 1.0, f"sweep {text!r}")
    n = int(round((hi - lo) / step))
    vals = [lo + i * step for i in range(n + 1)]
    if vals[-1] > hi + 1e-12:
        vals.pop()
    return vals


def _csv_text(header: List[str], columns: list) -> str:
    """CSV text of ``header`` and one line per row of the equal-length ``columns``, all rows
    in one ``%`` format: floats (``np.float64`` included) with 12 significant digits,
    anything else through ``str``, which a column not all floats (an ndarray by its dtype,
    a list by its cells) takes per cell."""
    cells, fields = [], []
    for column in columns:
        array = isinstance(column, np.ndarray)
        values = column.tolist() if array else column
        floats = column.dtype.kind == "f" if array else all(isinstance(v, float) for v in values)
        fields.append("%.12g" if floats else "%s")
        cells.append(values if floats else
                     [format(v, ".12g") if isinstance(v, float) else str(v) for v in values])
    line = ",".join(fields) + "\n"
    return ",".join(header) + "\n" + line * len(cells[0]) % tuple(
        itertools.chain.from_iterable(zip(*cells)))


def _write_output(header: List[str], columns: list, args, tol: ToleranceConfig, t0: float,
                  result=None) -> None:
    manifest = _manifest(args, tol, t0, result)
    payload = _csv_text(header, columns)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(payload)
        manifest_path = getattr(args, "manifest", None) or out + ".manifest.json"
    else:
        sys.stdout.write(payload)
        manifest_path = getattr(args, "manifest", None)
    if manifest_path:
        with open(manifest_path, "w") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _provenance(result) -> dict:
    """How ``result`` was computed: its dataclass fields declared ``compare=False``.  A
    ``kpi.PolicySweep`` gives its counts and, under ``points``, each point's fields."""
    if isinstance(result, kpi_mod.PolicySweep):
        return {**vars(result), "points": [_provenance(point) for point in result]}
    return {f.name: getattr(result, f.name) for f in dataclasses.fields(result) if not f.compare}


def _manifest(args, tol: ToleranceConfig, t0: float, result=None) -> dict:
    """Run record: the parsed flags of ``args`` but the manifest path, which
    ``rerun`` replays, the tolerances and, under ``provenance``, how
    ``result`` was computed (``_provenance``), when there is one."""
    manifest = {
        "subcommand": args.subcommand,
        "parameters": {k: v for k, v in vars(args).items()
                       if k not in ("subcommand", "manifest")},
        "tolerances": dict(vars(tol)),
        "version": __version__,
        "duration_s": round(time.monotonic() - t0, 6),
    }
    if result is not None:
        manifest["provenance"] = _provenance(result)
    return manifest


def _queue_config(args) -> QueueConfig:
    return QueueConfig(args.lam1, args.lam2, args.mu, b=args.b, d=args.d,
                       service=ServiceKind(args.service))


def _sim_config(args, cfg: QueueConfig) -> simulate.SimConfig:
    return simulate.SimConfig(queue=cfg, n_customers=args.n, burn_in=args.burn_in,
                              replications=args.reps, seed=args.seed)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_mean(args, tol: ToleranceConfig) -> int:
    t0 = time.monotonic()
    service = ServiceKind(args.service)
    bs = _parse_sweep(args.b)
    ds = _parse_sweep(args.d)
    _check_count(len(bs) * len(ds), "the b x d grid")
    b_col = bs * len(ds)
    d_col = [d for d in ds for _ in bs]
    base = QueueConfig(args.lam1, args.lam2, args.mu, service=service)
    points = [base.replace(b=b, d=d) for b, d in zip(b_col, d_col)]

    def batch():
        # one class-2 mean function of b per delay, as a KPI sweep builds them:
        # every exponential-service correction comes from one chain run
        configs = [base.replace(d=d) for d in ds]
        means = mean_wait._b_free_rows(configs, tol, [False] * len(ds))[1]
        return [mean_wait._wait_summary(point, validate(point), means[i // len(bs)](point.b))
                for i, point in enumerate(points)]

    # a failure is the first point's that fails alone, as in a dapq_means loop
    summaries = _first_failure(batch, lambda i: mean_wait.dapq_means(points[i], tol), len(points))
    n = len(summaries)
    _write_output(
        ["lambda1", "lambda2", "mu", "service", "b", "d",
         "mean_w1", "mean_w2", "conservation_residual"],
        [[args.lam1] * n, [args.lam2] * n, [args.mu] * n, [service.value] * n, b_col, d_col,
         [s.mean_w1 for s in summaries], [s.mean_w2 for s in summaries],
         [s.conservation_residual for s in summaries]],
        args, tol, t0,
    )
    return EXIT_OK


def _cdf_grid(args, cfg: QueueConfig) -> np.ndarray:
    if args.t_max is not None:
        if not (0.0 <= args.t_max < math.inf and 0.0 < args.dt < math.inf):
            raise OutOfRange(f"want finite --t-max >= 0 and --dt > 0, got "
                             f"{args.t_max} and {args.dt}")
        _check_count((args.t_max + 1e-12) / args.dt, "the --t-max/--dt grid")
        return np.arange(0.0, args.t_max + 1e-12, args.dt)
    return transforms.default_grid(cfg)


def cmd_cdf(args, tol: ToleranceConfig) -> int:
    t0 = time.monotonic()
    cfg = _queue_config(args)
    rates = validate(cfg)
    kind = args.kind
    grid = _cdf_grid(args, cfg)
    analytic_kinds = {"fcfs", "npq1", "npq2", "dapq2", "zexp1"}
    if kind in analytic_kinds and cfg.service is not ServiceKind.EXPONENTIAL:
        raise OutOfRange(f"analytic curve {kind!r} requires exponential service")

    if kind in ("fcfs", "npq1"):  # both laws are zero-inflated exponential, exactly
        lam = cfg.lambda1 + cfg.lambda2 if kind == "fcfs" else cfg.lambda1
        result = dataclasses.replace(approx.ZExp(rates.rho, cfg.mu - lam).curve(grid),
                                     provenance="exact")
    elif kind in ("npq2", "dapq2"):
        curve_cfg = cfg.replace(b=0.0, d=0.0) if kind == "npq2" else cfg
        result = transforms.class2_cdf_dapq(curve_cfg, grid, tol)
    elif kind == "zexp1":
        summary = mean_wait.dapq_means(cfg, tol)
        result = approx.zexp_from_mean(rates.rho, summary.mean_w1).curve(grid)
    elif kind in ("sim1", "sim2"):
        cls = 1 if kind == "sim1" else 2
        if not (cfg.lambda1, cfg.lambda2)[cls - 1] > 0:
            raise OutOfRange(f"{kind} needs class-{cls} arrivals: lambda{cls} > 0")
        result = simulate.run_replicated(_sim_config(args, cfg), grid)
    else:
        raise OutOfRange(f"unknown curve kind {kind!r}")

    values = result.curves[cls].values if kind in ("sim1", "sim2") else result.values
    _write_output(["t", "F"], [grid, values], args, tol, t0, result)
    return EXIT_OK


def cmd_simulate(args, tol: ToleranceConfig) -> int:
    t0 = time.monotonic()
    cfg = _queue_config(args)
    sim = _sim_config(args, cfg)  # a bad run is reported before a bad grid
    grid = _cdf_grid(args, cfg)
    result = simulate.run_replicated(sim, grid, raw_path=args.raw)
    columns = [grid]
    for cls in (1, 2):
        if cls in result.curves:
            columns += [result.curves[cls].values, result.curve_se[cls]]
        else:
            columns += [[math.nan] * len(grid)] * 2
    _write_output(["t", "cdf1", "se1", "cdf2", "se2"], columns, args, tol, t0, result)
    if args.summary_out:
        summary = _csv_text(
            ["class", "mean", "se", "replications"],
            [[1, 2],
             [result.means.get(cls, math.nan) for cls in (1, 2)],
             [result.mean_se.get(cls, math.nan) for cls in (1, 2)],
             [result.replications] * 2],
        )
        with open(args.summary_out, "w", newline="") as fh:
            fh.write(summary)
    return EXIT_OK


def cmd_kpi(args, tol: ToleranceConfig) -> int:
    t0 = time.monotonic()
    target = Kpi(target_w=args.w, compliance_p=args.p, class_index=args.cls)

    if args.region:
        region = kpi_mod.feasible_region(target, mu=args.mu, resolution=args.resolution, tol=tol)
        lower, upper = region.lower_boundary, region.upper_boundary
        columns = [["lower"] * len(lower) + ["upper"] * len(upper),
                   lower[:, 0].tolist() + upper[:, 0].tolist(),
                   lower[:, 1].tolist() + upper[:, 1].tolist()]
        _write_output(["boundary", "lambda1", "lambda2"], columns, args, tol, t0, region)
        return EXIT_OK

    if args.lam1 is None or args.lam2 is None:
        raise OutOfRange("--lam1 and --lam2 are required outside --region mode")
    cfg = QueueConfig(args.lam1, args.lam2, args.mu)
    d_values = _parse_sweep(args.sweep_d) if args.sweep_d else [args.d]
    points = kpi_mod.policy_sweep(cfg, target, d_values, tol)
    columns = [[pt.d for pt in points], [pt.b_star for pt in points],
               [pt.mean_w1 for pt in points], [pt.mean_w2 for pt in points],
               [int(pt.feasible) for pt in points]]
    _write_output(["d", "b_star", "mean_w1", "mean_w2", "feasible"], columns, args, tol, t0, points)
    return EXIT_OK if any(pt.feasible for pt in points) else EXIT_INFEASIBLE


def cmd_rerun(args, _env_tol: ToleranceConfig) -> int:
    with open(args.manifest_file) as fh:
        manifest = json.load(fh)
    sub = manifest["subcommand"]
    params = manifest["parameters"]
    tol = ToleranceConfig(**manifest["tolerances"])  # recorded set, not the env
    argv = [sub]
    for key, val in params.items():
        # a rerun writes only its own CSV and manifest: the first run's
        # simulation dump and summary file are not replayed
        if val is None or key in ("out", "raw", "summary_out"):
            continue
        if isinstance(val, bool):
            if val:
                argv.append(f"--{key.replace('_', '-')}")
            continue
        flag = "--class" if key == "cls" else "--" + key.replace("_", "-")
        argv += [flag, str(val)]
    if args.out:
        argv += ["--out", args.out]
    ns = _build_parser().parse_args(argv)
    return _DISPATCH[sub](ns, tol)


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_queue_flags(p: argparse.ArgumentParser, need_b: bool = True) -> None:
    p.add_argument("--lam1", type=float, required=True, help="class-1 arrival rate")
    p.add_argument("--lam2", type=float, required=True, help="class-2 arrival rate")
    p.add_argument("--mu", type=float, default=1.0, help="service rate (default 1)")
    p.add_argument("--service", choices=["exp", "det"], default="exp",
                   help="service-time law (default exp)")
    if need_b:
        p.add_argument("--b", type=float, default=0.0,
                       help="class-2 accumulation-rate ratio in [0,1]")
        p.add_argument("--d", type=float, default=0.0,
                       help="class-2 accumulation delay")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=4000,
                   help="recorded services per replication (default 4000)")
    p.add_argument("--burn-in", type=int, default=1500, dest="burn_in",
                   help="services discarded before recording (default 1500)")
    p.add_argument("--reps", type=int, default=50,
                   help="independent replications (default 50)")
    p.add_argument("--seed", type=int, default=0, help="root RNG seed")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-max", type=float, default=None, dest="t_max",
                   help="grid endpoint (default: auto from occupancy)")
    p.add_argument("--dt", type=float, default=0.05, help="grid spacing (default 0.05)")


def _add_out_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=str, default=None,
                   help="CSV output path (default stdout)")
    p.add_argument("--manifest", type=str, default=None,
                   help="manifest path (default <out>.manifest.json)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``dapq`` argument parser, built once per process: parsing leaves
    it unchanged, so ``main`` and ``rerun`` share it."""
    parser = argparse.ArgumentParser(
        prog="dapq",
        description="Waiting times and KPI optimization for two-class delayed "
                    "accumulating priority queues.",
        epilog="Tolerance overrides: DAPQ_EPS_SERIES, DAPQ_EPS_ROOT, "
               "DAPQ_EPS_INVERT, DAPQ_MAX_STATES environment variables.",
    )
    parser.add_argument("--version", action="version", version=f"dapq {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("mean", help="expected waiting times (sweepable over b and d)")
    _add_queue_flags(p, need_b=False)
    p.add_argument("--b", type=str, default="0", help="value or sweep a:b:step")
    p.add_argument("--d", type=str, default="0", help="value or sweep a:b:step")
    _add_out_flags(p)

    p = sub.add_parser("cdf", help="waiting-time CDF curves")
    p.add_argument("--kind", required=True,
                   choices=["fcfs", "npq1", "npq2", "dapq2", "zexp1", "sim1", "sim2"])
    _add_queue_flags(p)
    _add_grid_flags(p)
    _add_sim_flags(p)
    _add_out_flags(p)

    p = sub.add_parser("simulate", help="replicated discrete-event simulation")
    _add_queue_flags(p)
    _add_grid_flags(p)
    _add_sim_flags(p)
    p.add_argument("--raw", type=str, default=None,
                   help="also dump per-customer records to this CSV")
    p.add_argument("--summary-out", type=str, default=None, dest="summary_out",
                   help="write per-class mean/SE CSV here")
    _add_out_flags(p)

    p = sub.add_parser("kpi", help="KPI optimization, sweeps, and regions")
    p.add_argument("--class", type=int, required=True, dest="cls", choices=[1, 2])
    p.add_argument("--w", type=float, required=True, help="waiting-time target")
    p.add_argument("--p", type=float, required=True, help="compliance probability")
    p.add_argument("--lam1", type=float, default=None)
    p.add_argument("--lam2", type=float, default=None)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--d", type=float, default=0.0, help="single delay level")
    p.add_argument("--sweep-d", type=str, default=None, dest="sweep_d",
                   help="delay sweep a:b[:step]")
    p.add_argument("--region", action="store_true",
                   help="emit feasible-region boundaries instead of policy points")
    p.add_argument("--resolution", type=float, default=0.02,
                   help="lambda1 grid step for --region (default 0.02)")
    _add_out_flags(p)

    p = sub.add_parser("rerun", help="re-execute a run manifest")
    p.add_argument("manifest_file", type=str)
    p.add_argument("--out", type=str, default=None, required=True)

    return parser


_DISPATCH = {
    "mean": cmd_mean,
    "cdf": cmd_cdf,
    "simulate": cmd_simulate,
    "kpi": cmd_kpi,
    "rerun": cmd_rerun,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        tol = _tol_from_env()
        return _DISPATCH[args.subcommand](args, tol)
    except DapqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, _NUMERICAL_ERRORS) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
