"""Where is zero delay best for class 1 under a class-2 KPI?

The paper finds that for certain nontrivial class-2 KPIs a delay of zero
is always preferable: raising d forces b*(d) up so far that class 1 waits
longer.  This script maps where that holds.  For each KPI (w, p) in
{2, 4, 8} x {0.8, 0.85, 0.9, 0.95} it sweeps d over {0, 0.5, 1, 2, 4}
(``policy_sweep``) at every arrival-rate pair of one 0.05 grid that lies
in the KPI's tuning region (``in_tuning_region``), and writes one row per
(w, p, lambda1, lambda2) to demos/output/zero_delay_map.csv:

  feasible_d    the delays at which some b meets the KPI, space-separated
  best_d        the feasible delay with the least class-1 mean at b*(d)
  max_fall      the largest fall of the class-1 mean between consecutive
                feasible delays, 0 where it never falls
  max_fall_rel  that fall over the class-1 mean it falls from
  error         the error's type where the sweep raises (the other
                columns are then empty), else empty

It prints, per KPI, how many pairs it swept, at how many of them zero
delay gives the least class-1 mean, and the largest relative fall.
"""

import csv
import pathlib

import numpy as np

from dapq import DapqError, Kpi, QueueConfig, policy_sweep
from dapq.kpi import in_tuning_region

OUT = pathlib.Path(__file__).parent / "output"
TARGETS = [Kpi(w, p, 2) for w in (2.0, 4.0, 8.0) for p in (0.8, 0.85, 0.9, 0.95)]
DELAYS = [0.0, 0.5, 1.0, 2.0, 4.0]
RATES = np.round(np.arange(0.05, 1.0, 0.05), 2)


def map_row(kpi: Kpi, lam1: float, lam2: float) -> list:
    head = [f"{kpi.target_w:g}", f"{kpi.compliance_p:g}", f"{lam1:.2f}", f"{lam2:.2f}"]
    try:
        points = policy_sweep(QueueConfig(lam1, lam2, 1.0), kpi, DELAYS)
    except DapqError as exc:
        return head + ["", "", "", "", type(exc).__name__]
    feasible = [pt for pt in points if pt.feasible]
    w1 = [pt.mean_w1 for pt in feasible]
    fall, rel = max(((a - b, (a - b) / a) for a, b in zip(w1, w1[1:])), default=(0.0, 0.0))
    fall, rel = max(fall, 0.0), max(rel, 0.0)
    best = f"{min(feasible, key=lambda pt: pt.mean_w1).d:g}" if feasible else ""
    return head + [" ".join(f"{pt.d:g}" for pt in feasible), best, f"{fall:.6g}", f"{rel:.6g}",
                   ""]


def main():
    OUT.mkdir(exist_ok=True)
    rows = [map_row(kpi, lam1, lam2)
            for kpi in TARGETS for lam1 in RATES for lam2 in RATES
            if lam1 + lam2 < 1.0 and in_tuning_region(lam1, lam2, 1.0, kpi)]
    with open(OUT / "zero_delay_map.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["w", "p", "lambda1", "lambda2", "feasible_d", "best_d", "max_fall",
                         "max_fall_rel", "error"])
        writer.writerows(rows)
    print("class-2 KPI (w, p): pairs swept, pairs where d = 0 is best, largest relative fall")
    for kpi in TARGETS:
        mine = [r for r in rows if r[:2] == [f"{kpi.target_w:g}", f"{kpi.compliance_p:g}"]]
        best0 = sum(r[5] == "0" for r in mine)
        fall = max((float(r[7]) for r in mine if r[7]), default=0.0)
        print(f"  ({kpi.target_w:g}, {kpi.compliance_p:g}): {len(mine)}, {best0}, {fall:.2%}")
    print(f"map written to {OUT / 'zero_delay_map.csv'}")


if __name__ == "__main__":
    main()
