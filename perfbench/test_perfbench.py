"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _run(tmp_cwd: Path, *args, root: Path = ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=tmp_cwd, capture_output=True, text=True, timeout=170)


def _tally():
    return {"attempted": 0, "failed": 0, "max_abs_dev": 0.0, "notes": [],
            "csv_sha256": {}, "csv_bytes": {}, "sha256_changed": set()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, tmp_path):
    proc = _run(ROOT, "--workload", name, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    human = "\n".join(lines[:-1])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f" {m['name']} " in human and f" {m['unit']}" in human
    assert " fail_frac " in human


def test_same_seed_same_inputs_other_seed_other_inputs():
    for wl in workloads.WORKLOADS.values():
        assert wl.specs(3) == wl.specs(3)
        assert wl.specs(3) != wl.specs(4)


def test_default_seed_reproduces_the_recorded_inputs():
    for name, wl in workloads.WORKLOADS.items():
        assert wl.specs(workloads.DEFAULT_SEED) == workloads.load_reference(name)["specs"]


def test_wrong_mean_is_counted_as_failed(tmp_path):
    wl = workloads.Means
    specs = wl.specs(workloads.DEFAULT_SEED)
    reference = workloads.load_reference("means")
    # an interior point at occupancy 0.1: cheap, and no identity pins its value
    i = next(k for k, s in enumerate(specs) if s["b"] == 1.0 and s["d"] == 8.0)
    raw = wl.run(specs[i], tmp_path / "op.csv")
    wrong = dataclasses.replace(raw, mean_w2=raw.mean_w2 + 1e-7)
    tally = _tally()
    worker.evaluate(wl, [specs[i]] * 2, [raw, wrong], [reference["records"][i]] * 2,
                    [None, None], tmp_path, tally)
    assert (tally["attempted"], tally["failed"]) == (2, 1)


def test_reference_free_checks_catch_a_wrong_mean():
    spec = {"service": "exp", "lam1": 0.3, "lam2": 0.3, "b": 0.0, "d": 2.0}
    good = workloads.Means.run(spec, None)
    record = workloads.Means.record(spec, good, None)
    assert workloads.Means.check(spec, record, None, None).ok
    record["mean_w2"] *= 1.0 + 1e-6
    assert not workloads.Means.check(spec, record, None, None).ok


def _perturb_csv(src: Path, dst: Path, row: int, delta: float) -> None:
    lines = src.read_text().splitlines()
    t, f = lines[row + 1].split(",")
    lines[row + 1] = f"{t},{float(f) + delta:.12g}"
    dst.write_text("\n".join(lines) + "\n")
    shutil.copy(str(src) + ".manifest.json", str(dst) + ".manifest.json")


def test_perturbed_cdf_is_counted_as_failed(tmp_path):
    wl = workloads.Cdf
    spec = wl.specs(5, tiny=True)[0]
    assert wl.run(spec, tmp_path / "op0.csv") == 0
    _perturb_csv(tmp_path / "op0.csv", tmp_path / "op1.csv", 0, 1e-6)  # F(0) != 1 - rho
    _perturb_csv(tmp_path / "op0.csv", tmp_path / "op2.csv", 10, -0.05)  # decreasing
    tally = _tally()
    worker.evaluate(wl, [spec] * 3, [0, 0, 0], [None] * 3, [None] * 3, tmp_path, tally)
    assert (tally["attempted"], tally["failed"]) == (3, 2)
    # against a recorded curve a small shift anywhere is caught
    record = wl.record(spec, 0, tmp_path / "op0.csv")
    shifted = json.loads(json.dumps(record))
    shifted["rows"][5][1] = repr(float(shifted["rows"][5][1]) + 1e-6)
    assert wl.check(spec, record, record, None).ok
    assert not wl.check(spec, shifted, record, None).ok


def test_wrong_simulated_mean_counts_every_replication(tmp_path):
    wl = workloads.Sim
    specs = wl.specs(5, tiny=True)[:1]
    raw = wl.run(specs[0], None)
    exact = wl.context(specs)
    wrong = dataclasses.replace(raw, means={1: raw.means[1] + 10 * raw.mean_se[1],
                                            2: raw.means[2]})
    tally = _tally()
    worker.evaluate(wl, specs * 2, [raw, wrong], [None] * 2, exact * 2, tmp_path, tally)
    reps = specs[0]["reps"]
    assert (tally["attempted"], tally["failed"]) == (2 * reps, reps)


def test_bad_kpi_rows_are_caught():
    spec = workloads.KpiWorkload.specs(5, tiny=True)[0]
    record = {"exit": 0, "manifest": True, "rows": [["0", "0.4", "1.2", "1.7", "1"],
                                                    ["1", "0.7", "1.2", "1.7", "1"]]}
    assert workloads.KpiWorkload.check(spec, record, None, None).ok
    record["rows"][1][1] = "1.5"
    assert not workloads.KpiWorkload.check(spec, record, None, None).ok
    assert not workloads.KpiWorkload.check(spec, {"exit": 3}, None, None).ok


def test_traced_self_times_and_remainder_add_up_to_the_traced_wall(tmp_path):
    import dapq
    from dapq import mean_wait

    original = mean_wait.md1_stationary
    wl = workloads.Means
    specs = wl.specs(5, tiny=True)
    tracer = spans.Tracer()
    with spans.traced_layers(tracer):
        assert mean_wait.md1_stationary is not original
        times, outputs = worker.execute(wl, specs, tmp_path)
    assert mean_wait.md1_stationary is original and dapq.md1_stationary is original
    metrics = spans.layer_metrics(tracer, sum(t1 - t0 for t0, t1 in times))
    own = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    total = own + metrics["trace.remainder_s"][0]
    assert total == pytest.approx(metrics["trace.wall_s"][0], rel=1e-9)
    # calls made inside the package, through names bound in other modules
    assert metrics["markov.md1_stationary.calls"][0] > 0
    assert metrics["core.validate.calls"][0] > metrics["mean_wait.dapq_means.calls"][0]
    assert metrics["mean_wait.dapq_means.calls"][0] == len(specs)


def test_speed_samples_are_taken_out_of_the_op_time():
    with worker.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    net, scaled = sampler.scale(t0, t1)
    inside = [s for s in sampler.starts if t0 <= s <= t1]
    assert len(inside) >= 5
    assert 0.0 < net < t1 - t0 and scaled > 0.0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "sim", "--seed", "1", "--seconds", "1",
                "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
