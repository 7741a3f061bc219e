"""Seeded inputs, operations and output checks of the benchmark workloads.

Every workload is a fixed list of operation specs drawn from the seed with
``random.Random`` (so the inputs do not depend on the numpy version).  A
spec is JSON data; ``run`` performs it through the public ``dapq`` API or
``dapq.cli.main``, ``record`` turns the raw output into JSON data, and
``check`` compares that record with checks that need no reference value
and, for the default seed, with the value recorded at the seed commit in
``reference.json``.

Every library function is looked up through its module at call time, so
the wrappers that ``spans.traced_layers`` binds see each call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

import numpy as np

import dapq
from dapq import cli, kpi, mean_wait, simulate

DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Band, in replication standard errors, for simulated against exact means.
# At 4 SE the seed commit failed on 1 of 80 seeds (deterministic service,
# seed 8: |z| = 4.11; over those seeds z had sd 1.13 and mean -0.25), so a
# correct program would fail the benchmark now and then.
SIM_SE_BAND = 5.0

# Region frontiers come from a bisection in lambda2 stopped at this width.
REGION_STEP = 1e-4

# Ends of dapq.transforms.default_grid at the seed commit (0.05 spacing):
# 1,360 points at occupancy 0.8, 5,506 at 0.95, 27,611 at (0.9, 0.09).
GRID_END_080 = 67.95
GRID_END_095 = 275.25


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _cli_record(exit_code: int, path: Path) -> dict:
    record = {"exit": exit_code}
    if path.exists():
        header, rows = _read_csv(path)
        record.update(
            header=header, rows=rows, sha256=_sha256(path), bytes=path.stat().st_size,
            manifest=Path(str(path) + ".manifest.json").exists(),
        )
    return record


class Workload:
    """Defaults shared by the workloads."""

    # span whose durations are the op times of a traced pass (None: time each spec)
    ops_from_span = None

    @staticmethod
    def weight(spec) -> int:
        """Ops one spec counts for."""
        return 1

    @staticmethod
    def context(specs) -> list:
        """Per-spec check targets computed by the library, outside any timing."""
        return [None] * len(specs)


class Check:
    """Outcome of the checks on one op: failures and the largest deviation."""

    def __init__(self):
        self.failures = []
        self.max_abs_dev = 0.0

    def close(self, what: str, value: float, target: float, tol: float) -> None:
        dev = abs(value - target)
        self.max_abs_dev = max(self.max_abs_dev, dev)
        if not dev <= tol:
            self.failures.append(f"{what}: {value!r} vs {target!r} (tol {tol:.1e})")

    def require(self, what: str, ok: bool) -> None:
        if not ok:
            self.failures.append(what)

    @property
    def ok(self) -> bool:
        return not self.failures


# --------------------------------------------------------------------------
# means: exact mean waits over a (service, occupancy, b, d) grid
# --------------------------------------------------------------------------

class Means(Workload):
    """``dapq_means`` on the criterion-01 occupancies; one op is one point."""

    # Criterion-01 (lambda1, lambda2) pairs: occupancies 0.1 to 0.9.  The
    # seed redraws each pair's class-1 share within +-20% at its occupancy.
    PAIRS = ((0.05, 0.05), (0.05, 0.5), (0.05, 0.85), (0.25, 0.25),
             (0.25, 0.6), (0.4, 0.4), (0.5, 0.3), (0.6, 0.3))
    B = (0.0, 1.0)
    D = (0.0, 8.0)

    @classmethod
    def specs(cls, seed: int, tiny: bool = False) -> list:
        rng = random.Random(seed)
        pairs = cls.PAIRS[:2] if tiny else cls.PAIRS
        out = []
        for lam1, lam2 in pairs:
            rho = lam1 + lam2
            l1 = round(lam1 * rng.uniform(0.8, 1.2), 6)
            l2 = round(rho - l1, 9)
            for service in ("exp", "det"):
                for d in cls.D:
                    for b in cls.B:
                        out.append({"service": service, "lam1": l1, "lam2": l2, "b": b, "d": d})
        return out

    @staticmethod
    def _config(spec):
        return dapq.QueueConfig(spec["lam1"], spec["lam2"], 1.0, b=spec["b"], d=spec["d"],
                                service=dapq.ServiceKind(spec["service"]))

    @staticmethod
    def warm_up(outdir: Path) -> None:
        for service in ("exp", "det"):
            Means.run({"service": service, "lam1": 0.05, "lam2": 0.05, "b": 0.5, "d": 1.0},
                      outdir / "warmup.csv")

    @staticmethod
    def run(spec, path: Path):
        return mean_wait.dapq_means(Means._config(spec))

    @staticmethod
    def record(spec, raw, path: Path) -> dict:
        return {"mean_w1": raw.mean_w1, "mean_w2": raw.mean_w2}

    @staticmethod
    def check(spec, record, ref, ctx) -> Check:
        c = Check()
        eps = dapq.DEFAULT_TOL.eps_series
        rho1, rho2 = spec["lam1"], spec["lam2"]
        rho = rho1 + rho2
        half = 0.5 if spec["service"] == "det" else 1.0
        fcfs = half * rho / (1.0 - rho)
        npq = half * rho / ((1.0 - rho1) * (1.0 - rho))
        w1, w2 = record["mean_w1"], record["mean_w2"]
        tol = eps * max(1.0, npq)
        if spec["b"] == 0.0:
            c.close("b=0 class-2 mean vs npq", w2, npq, tol)
        if spec["b"] == 1.0 and spec["d"] == 0.0:
            c.close("(b=1, d=0) class-2 mean vs fcfs", w2, fcfs, tol)
            c.close("(b=1, d=0) class-1 mean vs fcfs", w1, fcfs, tol)
        c.require(f"class-2 mean {w2!r} outside [fcfs, npq] = [{fcfs!r}, {npq!r}]",
                  fcfs - tol <= w2 <= npq + tol)
        if ref is not None:
            c.close("class-2 mean vs seed commit", w2, ref["mean_w2"], eps)
            # the class-1 mean is derived from the class-2 one via conservation
            c.close("class-1 mean vs seed commit", w1, ref["mean_w1"],
                    eps * max(1.0, rho2 / rho1))
        return c


# --------------------------------------------------------------------------
# cdf: class-2 CDF curves through the command line
# --------------------------------------------------------------------------

class Cdf(Workload):
    """``dapq cdf --kind dapq2`` through ``cli.main``; one op is one curve."""

    @classmethod
    def specs(cls, seed: int, tiny: bool = False) -> list:
        rng = random.Random(seed)
        # (lambda1, lambda2, d or None to draw it, grid end, spacing)
        if tiny:
            plan = ((0.5, 0.3, None, 1.0, 0.05), (0.5, 0.45, None, 5.0, 0.5),
                    (0.9, 0.09, 10.0, 12.0, 1.0))
        else:
            # occupancy 0.8 on its full default grid; occupancy 0.95 over its
            # full default range at 20x the spacing; the heavy-traffic case on
            # 50 points either side of d (its default grid has 27,611).
            plan = ((0.5, 0.3, None, GRID_END_080, 0.05), (0.5, 0.45, None, GRID_END_095, 1.0),
                    (0.9, 0.09, 10.0, 19.6, 0.4))
        out = []
        for lam1, lam2, d, t_max, dt in plan:
            b = round(rng.uniform(0.1, 0.9), 6)
            if d is None:
                d = round(rng.uniform(1.0, 4.0), 6)
            out.append({"lam1": lam1, "lam2": lam2, "b": b, "d": d, "t_max": t_max, "dt": dt,
                        "points": len(np.arange(0.0, t_max + 1e-12, dt))})
        return out

    @staticmethod
    def argv(spec, path: Path) -> list:
        return ["cdf", "--kind", "dapq2", "--lam1", repr(spec["lam1"]),
                "--lam2", repr(spec["lam2"]), "--b", repr(spec["b"]), "--d", repr(spec["d"]),
                "--t-max", repr(spec["t_max"]), "--dt", repr(spec["dt"]), "--out", str(path)]

    @staticmethod
    def warm_up(outdir: Path) -> None:
        Cdf.run({"lam1": 0.25, "lam2": 0.25, "b": 0.5, "d": 1.0, "t_max": 2.0, "dt": 0.5},
                outdir / "warmup.csv")

    @staticmethod
    def run(spec, path: Path):
        return cli.main(Cdf.argv(spec, path))

    @staticmethod
    def record(spec, raw, path: Path) -> dict:
        return _cli_record(raw, path)

    @staticmethod
    def check(spec, record, ref, ctx) -> Check:
        c = Check()
        eps = dapq.DEFAULT_TOL.eps_invert
        c.require(f"exit code {record['exit']}", record["exit"] == 0)
        if "rows" not in record:
            c.require("no CSV written", False)
            return c
        c.require("no manifest written", record["manifest"])
        values = np.array([float(f) for _, f in record["rows"]])
        c.require(f"{len(values)} points, expected {spec['points']}",
                  len(values) == spec["points"])
        if len(values) == 0:
            return c
        c.require("CDF outside [0, 1]", bool(np.all((values >= 0.0) & (values <= 1.0))))
        c.require("CDF decreasing", bool(np.all(np.diff(values) >= 0.0)))
        c.close("F(0) vs 1 - rho", values[0], 1.0 - spec["lam1"] - spec["lam2"], eps)
        if ref is not None:
            expected = np.array([float(f) for _, f in ref["rows"]])
            if len(expected) == len(values):
                i = int(np.argmax(np.abs(values - expected)))
                c.close(f"F at point {i} vs seed commit", values[i], expected[i], eps)
        return c


# --------------------------------------------------------------------------
# kpi: optimal accumulation rates and tuning regions through the command line
# --------------------------------------------------------------------------

class KpiWorkload(Workload):
    """``dapq kpi`` delay sweeps and a region through ``cli.main``; one op is one call."""

    # (kind, class, w, p, lambda1, lambda2, sweep) at the seed's centre
    PLAN = (("sweep", 2, 4.0, 0.85, 0.4, 0.18, "0:8"),
            ("sweep", 1, 2.0, 0.9, 0.05, 0.6, "0:6"),
            ("region", 2, 4.0, 0.85, None, None, None))

    @classmethod
    def specs(cls, seed: int, tiny: bool = False) -> list:
        rng = random.Random(seed)
        out = []
        for kind, cls_index, w, p, lam1, lam2, sweep in cls.PLAN:
            spec = {"kind": kind, "class": cls_index, "w": w, "p": p}
            if kind == "region":
                spec["resolution"] = 0.2 if tiny else 0.02
            else:
                target = dapq.Kpi(target_w=w, compliance_p=p, class_index=cls_index)
                for _ in range(100):
                    l1 = round(lam1 * rng.uniform(0.97, 1.03), 6)
                    l2 = round(lam2 * rng.uniform(0.97, 1.03), 6)
                    if kpi.in_tuning_region(l1, l2, 1.0, target):
                        break
                else:
                    raise RuntimeError(f"no tuning-region point near ({lam1}, {lam2})")
                spec.update(lam1=l1, lam2=l2, sweep_d="0:1" if tiny else sweep)
            out.append(spec)
        return out

    @staticmethod
    def argv(spec, path: Path) -> list:
        argv = ["kpi", "--class", str(spec["class"]), "--w", repr(spec["w"]),
                "--p", repr(spec["p"])]
        if spec["kind"] == "region":
            argv += ["--region", "--resolution", repr(spec["resolution"])]
        else:
            argv += ["--lam1", repr(spec["lam1"]), "--lam2", repr(spec["lam2"]),
                     "--sweep-d", spec["sweep_d"]]
        return argv + ["--out", str(path)]

    @staticmethod
    def warm_up(outdir: Path) -> None:
        cli.main(["kpi", "--class", "2", "--w", "4", "--p", "0.85", "--lam1", "0.4",
                  "--lam2", "0.18", "--d", "0", "--out", str(outdir / "warmup.csv")])

    @staticmethod
    def run(spec, path: Path):
        return cli.main(KpiWorkload.argv(spec, path))

    @staticmethod
    def record(spec, raw, path: Path) -> dict:
        return _cli_record(raw, path)

    @staticmethod
    def check(spec, record, ref, ctx) -> Check:
        c = Check()
        c.require(f"exit code {record['exit']}", record["exit"] == 0)
        if "rows" not in record:
            c.require("no CSV written", False)
            return c
        c.require("no manifest written", record["manifest"])
        rows = record["rows"]
        c.require("no rows", len(rows) > 0)
        if spec["kind"] == "region":
            for label, l1, l2 in rows:
                l1, l2 = float(l1), float(l2)
                c.require(f"bad region row {label},{l1},{l2}",
                          label in ("lower", "upper") and 0.0 < l1 < 1.0
                          and 0.0 <= l2 and l1 + l2 < 1.0)
            if ref is not None:
                expected = ref["rows"]
                c.require(f"{len(rows)} region rows, seed commit had {len(expected)}",
                          len(rows) == len(expected))
                for (label, l1, l2), (label_r, l1_r, l2_r) in zip(rows, expected):
                    c.require(f"region row label {label} vs {label_r}", label == label_r)
                    c.close("region lambda1 vs seed commit", float(l1), float(l1_r), 1e-9)
                    c.close(f"{label} frontier lambda2 vs seed commit", float(l2), float(l2_r),
                            REGION_STEP)
            return c
        lo, hi = spec["sweep_d"].split(":")
        c.require(f"{len(rows)} sweep rows, expected {int(hi) - int(lo) + 1}",
                  len(rows) == int(hi) - int(lo) + 1)
        for d, b_star, _, _, feasible in rows:
            c.require(f"b* = {b_star} outside [0, 1] at d = {d}", 0.0 <= float(b_star) <= 1.0)
            c.require(f"feasible flag {feasible!r} at d = {d}", feasible in ("0", "1"))
        if ref is not None:
            expected = ref["rows"]
            c.require(f"{len(rows)} sweep rows, seed commit had {len(expected)}",
                      len(rows) == len(expected))
            for row, row_r in zip(rows, expected):
                c.close(f"b* at d = {row[0]} vs seed commit", float(row[1]), float(row_r[1]),
                        dapq.DEFAULT_TOL.eps_root)
                c.require(f"feasible flag at d = {row[0]}: {row[4]} vs {row_r[4]}",
                          row[4] == row_r[4])
        return c


# --------------------------------------------------------------------------
# sim: replicated simulation; one op is one replication
# --------------------------------------------------------------------------

class Sim(Workload):
    """``run_replicated`` at (0.5, 0.3, b=0.5, d=2) with both service kinds."""

    GRID = (0.0, 30.0, 0.05)
    ops_from_span = "simulate.run_single"

    @classmethod
    def specs(cls, seed: int, tiny: bool = False) -> list:
        size = {"reps": 10, "n": 800, "burn_in": 200} if tiny else \
            {"reps": 50, "n": 4000, "burn_in": 1500}
        return [{"service": service, "lam1": 0.5, "lam2": 0.3, "b": 0.5, "d": 2.0,
                 "seed": seed, **size} for service in ("exp", "det")]


    @staticmethod
    def weight(spec) -> int:
        return spec["reps"]

    @staticmethod
    def warm_up(outdir: Path) -> None:
        spec = Sim.specs(DEFAULT_SEED, tiny=True)[0]
        Sim.run({**spec, "reps": 1, "n": 200, "burn_in": 50}, outdir / "warmup.csv")

    @staticmethod
    def context(specs) -> list:
        """Exact class means for each spec, the target of the simulated ones."""
        return [mean_wait.dapq_means(Means._config(spec)) for spec in specs]

    @staticmethod
    def run(spec, path: Path):
        sim = simulate.SimConfig(queue=Means._config(spec), n_customers=spec["n"],
                                 burn_in=spec["burn_in"], replications=spec["reps"],
                                 seed=spec["seed"])
        return simulate.run_replicated(sim, np.arange(*Sim.GRID))

    @staticmethod
    def record(spec, raw, path: Path) -> dict:
        return {"mean": [raw.means[1], raw.means[2]], "se": [raw.mean_se[1], raw.mean_se[2]]}

    @staticmethod
    def check(spec, record, ref, ctx) -> Check:
        c = Check()
        for k, target in enumerate((ctx.mean_w1, ctx.mean_w2)):
            mean, se = record["mean"][k], record["se"][k]
            z = (mean - target) / se
            c.require(f"class-{k + 1} simulated mean {mean!r} is {z:.2f} SE from "
                      f"exact {target!r}", abs(z) <= SIM_SE_BAND)
            if ref is not None:
                c.close(f"class-{k + 1} simulated mean vs seed commit", mean,
                        ref["mean"][k], 1e-9 * max(1.0, abs(mean)))
        return c


WORKLOADS = {"means": Means, "cdf": Cdf, "kpi": KpiWorkload, "sim": Sim}


def load_reference(name: str):
    """Specs and records of ``name`` at the default seed, from the seed commit."""
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["workloads"][name]
