"""KPI tuning end to end: feasible regions, optimal accumulation rates,
and the delay question.

For the class-2 target "85% seen within 4 service times" and the class-1
target "90% seen within 2", this script:

  1. traces both tuning regions over arrival-rate pairs and writes them to
     demos/output/region_class{1,2}.csv,
  2. sweeps the delay at an interior point of each region and writes the
     (d, b*, means) trajectories,
  3. locates the arrival-rate sliver where *both* KPIs need tuning.

The sweeps show the punchline: for this class-2 target, raising d forces
b*(d) up so hard that class-1 ends up worse, so zero delay is optimal for
it (demos/zero_delay_map.py maps the KPIs where that holds and where the
class-1 mean falls with d instead); for the class-1 target, the optimized class-1 mean pins to its threshold
and class-2 is indifferent to d.
"""

import csv
import pathlib

import numpy as np

from dapq import Kpi, QueueConfig, feasible_region, policy_sweep
from dapq.kpi import in_tuning_region

OUT = pathlib.Path(__file__).parent / "output"
KPI2 = Kpi(target_w=4.0, compliance_p=0.85, class_index=2)
KPI1 = Kpi(target_w=2.0, compliance_p=0.9, class_index=1)


def write_region(kpi: Kpi, path: pathlib.Path):
    region = feasible_region(kpi, mu=1.0, resolution=0.02)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["boundary", "lambda1", "lambda2"])
        for tag, boundary in (("lower", region.lower_boundary),
                              ("upper", region.upper_boundary)):
            for l1, l2 in boundary:
                w.writerow([tag, f"{l1:.4f}", f"{l2:.6f}"])


def write_sweep(cfg: QueueConfig, kpi: Kpi, d_values, path: pathlib.Path):
    points = policy_sweep(cfg, kpi, d_values)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["d", "b_star", "mean_w1", "mean_w2", "feasible"])
        for pt in points:
            w.writerow([pt.d, f"{pt.b_star:.8f}", f"{pt.mean_w1:.8f}",
                        f"{pt.mean_w2:.8f}", int(pt.feasible)])
    return points


def main():
    OUT.mkdir(exist_ok=True)
    write_region(KPI2, OUT / "region_class2.csv")
    write_region(KPI1, OUT / "region_class1.csv")

    pts2 = write_sweep(QueueConfig(0.3, 0.28, 1.0), KPI2, [0, 1, 2, 3],
                       OUT / "sweep_class2_kpi.csv")
    feas = [p for p in pts2 if p.feasible]
    print("class-2 KPI sweep at (0.30, 0.28):")
    for p in feas:
        print(f"  d={p.d:.0f}: b*={p.b_star:.3f}  class-1 mean {p.mean_w1:.4f}")
    print(f"  -> class-1 does best at d={min(feas, key=lambda p: p.mean_w1).d:.0f}")

    pts1 = write_sweep(QueueConfig(0.05, 0.60, 1.0), KPI1, [0, 1, 2, 4, 6],
                       OUT / "sweep_class1_kpi.csv")
    print("class-1 KPI sweep at (0.05, 0.60):")
    for p in pts1:
        print(f"  d={p.d:.0f}: b*={p.b_star:.4f}  class-1 mean {p.mean_w1:.6f}  "
              f"class-2 mean {p.mean_w2:.6f}")

    hits = [
        (l1, l2)
        for l1 in np.arange(0.01, 0.15, 0.01)
        for l2 in np.arange(0.45, 0.75, 0.01)
        if in_tuning_region(l1, l2, 1.0, KPI1) and in_tuning_region(l1, l2, 1.0, KPI2)
    ]
    if hits:
        l1s, l2s = zip(*hits)
        print(f"both KPIs need tuning on a sliver: lambda1 in "
              f"[{min(l1s):.2f}, {max(l1s):.2f}], lambda2 in "
              f"[{min(l2s):.2f}, {max(l2s):.2f}] ({len(hits)} grid points)")
    print(f"regions and sweeps written under {OUT}/")


if __name__ == "__main__":
    main()
