import json
import math

import pytest

from dapq import simulate
from dapq.cli import EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_mean_single_point(capsys):
    code, out, _ = run_cli(
        capsys, "mean", "--lam1", "0.5", "--lam2", "0.3", "--mu", "1",
        "--service", "exp", "--b", "0", "--d", "0",
    )
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["lambda1", "lambda2", "mu", "service", "b", "d",
                      "mean_w1", "mean_w2", "conservation_residual"]
    assert float(rows[0][6]) == pytest.approx(1.6, abs=1e-9)
    assert float(rows[0][7]) == pytest.approx(8.0, abs=1e-9)


def test_mean_sweep_shape(capsys):
    code, out, _ = run_cli(
        capsys, "mean", "--lam1", "0.5", "--lam2", "0.3",
        "--b", "0:1:0.05", "--d", "2",
    )
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert len(rows) == 21
    w1 = [float(r[6]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(w1, w1[1:]))


def test_mean_rejects_invalid_delay(capsys):
    code, _, err = run_cli(
        capsys, "mean", "--lam1", "0.3", "--lam2", "0.3", "--mu", "1",
        "--service", "det", "--d", "1.5",
    )
    assert code == EXIT_INVALID
    assert "InvalidDelay" in err


def test_mean_rejects_unstable(capsys):
    code, _, err = run_cli(capsys, "mean", "--lam1", "0.6", "--lam2", "0.5")
    assert code == EXIT_INVALID
    assert "UnstableSystem" in err


def test_cdf_fcfs_matches_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "cdf", "--kind", "fcfs", "--lam1", "0.5", "--lam2", "0.3",
        "--t-max", "10", "--dt", "0.5",
    )
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["t", "F"]
    for t_s, f_s in rows:
        t, f = float(t_s), float(f_s)
        assert f == pytest.approx(1 - 0.8 * math.exp(-0.2 * t), abs=1e-9)


def test_cdf_zexp_starts_at_atom(capsys):
    code, out, _ = run_cli(
        capsys, "cdf", "--kind", "zexp1", "--lam1", "0.5", "--lam2", "0.3",
        "--b", "0.5", "--d", "2", "--t-max", "1", "--dt", "0.5",
    )
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(0.2, abs=1e-12)


def test_cdf_dapq2_monotone_and_proper(capsys):
    code, out, _ = run_cli(
        capsys, "cdf", "--kind", "dapq2", "--lam1", "0.5", "--lam2", "0.3",
        "--b", "0.5", "--d", "2",
    )
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    fs = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(fs, fs[1:]))
    assert fs[-1] >= 1 - 1e-4


def test_cdf_rejects_analytic_det_combination(capsys):
    code, _, err = run_cli(
        capsys, "cdf", "--kind", "dapq2", "--lam1", "0.5", "--lam2", "0.3",
        "--service", "det", "--b", "0.5", "--d", "2",
    )
    assert code == EXIT_INVALID


def test_simulate_deterministic_bytes(tmp_path, capsys):
    args = ["simulate", "--lam1", "0.5", "--lam2", "0.3", "--b", "0.5", "--d", "2",
            "--n", "400", "--burn-in", "100", "--reps", "2", "--seed", "7",
            "--t-max", "10", "--dt", "0.5"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["parameters"]["seed"] == 7
    assert manifest["simulation"]["customers"] == 2 * (400 + 100)
    assert 0.0 < manifest["simulation"]["wall_s"] <= manifest["duration_s"]


def test_simulate_summary_and_raw(tmp_path):
    out = tmp_path / "cdf.csv"
    summary = tmp_path / "summary.csv"
    raw = tmp_path / "raw.csv"
    code = main([
        "simulate", "--lam1", "0.0", "--lam2", "0.8", "--n", "2000",
        "--burn-in", "500", "--reps", "8", "--seed", "1", "--t-max", "20",
        "--out", str(out), "--summary-out", str(summary), "--raw", str(raw),
    ])
    assert code == EXIT_OK
    lines = summary.read_text().strip().splitlines()
    assert lines[0] == "class,mean,se,replications"
    cls2 = lines[2].split(",")
    assert float(cls2[1]) == pytest.approx(4.0, abs=4 * float(cls2[2]))
    assert raw.read_text().splitlines()[0] == "rep,class,arrival,wait"


def test_simulate_raw_simulates_each_replication_once(tmp_path, monkeypatch):
    args = ["simulate", "--lam1", "0.5", "--lam2", "0.3", "--b", "0.5", "--d", "1",
            "--n", "300", "--burn-in", "50", "--reps", "3", "--seed", "5",
            "--t-max", "10", "--dt", "0.5"]
    plain = tmp_path / "plain.csv"
    assert main(args + ["--out", str(plain)]) == EXIT_OK
    real = simulate.run_single
    calls = []

    def counted(sim, r):
        calls.append(r)
        return real(sim, r)

    monkeypatch.setattr(simulate, "run_single", counted)
    out, raw = tmp_path / "cdf.csv", tmp_path / "raw.csv"
    assert main(args + ["--out", str(out), "--raw", str(raw)]) == EXIT_OK
    assert len(calls) == 3
    assert len(raw.read_text().splitlines()) == 1 + 3 * 300
    assert out.read_bytes() == plain.read_bytes()


def test_simulate_rejects_empty_queue(capsys):
    code, _, err = run_cli(capsys, "simulate", "--lam1", "0", "--lam2", "0",
                           "--n", "10", "--burn-in", "1", "--reps", "1")
    assert code == EXIT_INVALID
    assert "OutOfRange" in err


def test_cdf_sim_rejects_class_without_arrivals(capsys):
    code, _, err = run_cli(capsys, "cdf", "--kind", "sim1", "--lam1", "0", "--lam2", "0.5",
                           "--n", "50", "--burn-in", "10", "--reps", "1", "--t-max", "1")
    assert code == EXIT_INVALID
    assert "OutOfRange" in err


def test_cdf_sim_manifest_records_simulation(tmp_path):
    out = tmp_path / "sim2.csv"
    code = main(["cdf", "--kind", "sim2", "--lam1", "0.5", "--lam2", "0.3", "--b", "0.5",
                 "--d", "2", "--n", "200", "--burn-in", "50", "--reps", "2",
                 "--t-max", "5", "--out", str(out)])
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "sim2.csv.manifest.json").read_text())
    assert manifest["simulation"]["customers"] == 2 * (200 + 50)
    assert manifest["simulation"]["wall_s"] > 0.0
    assert "inversion" not in manifest


def test_kpi_left_of_region_b_zero_exit_ok(capsys):
    code, out, _ = run_cli(
        capsys, "kpi", "--class", "2", "--w", "4", "--p", "0.85",
        "--lam1", "0.1", "--lam2", "0.2", "--d", "2",
    )
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == 0.0
    assert rows[0][4] == "1"


def test_kpi_infeasible_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "kpi", "--class", "2", "--w", "4", "--p", "0.85",
        "--lam1", "0.45", "--lam2", "0.45", "--d", "0",
    )
    assert code == EXIT_INFEASIBLE


def test_kpi_sweep_trends(capsys):
    code, out, _ = run_cli(
        capsys, "kpi", "--class", "2", "--w", "4", "--p", "0.85",
        "--lam1", "0.4", "--lam2", "0.18", "--sweep-d", "0:3",
    )
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    feas = [r for r in rows if r[4] == "1"]
    bs = [float(r[1]) for r in feas]
    assert all(b2 >= b1 for b1, b2 in zip(bs, bs[1:]))
    w1 = [float(r[2]) for r in feas]
    assert min(w1) == w1[0]


def test_kpi_region_csv(capsys):
    code, out, _ = run_cli(
        capsys, "kpi", "--class", "1", "--w", "2", "--p", "0.9",
        "--region", "--resolution", "0.1",
    )
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["boundary", "lambda1", "lambda2"]
    kinds = {r[0] for r in rows}
    assert kinds == {"lower", "upper"}


def test_analytic_outputs_bit_reproducible(tmp_path):
    args = ["mean", "--lam1", "0.5", "--lam2", "0.3", "--b", "0:1:0.25",
            "--d", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_rerun_reproduces_output(tmp_path):
    first = tmp_path / "first.csv"
    assert main(["mean", "--lam1", "0.5", "--lam2", "0.3", "--b", "0.5",
                 "--d", "2", "--out", str(first)]) == EXIT_OK
    manifest = tmp_path / "first.csv.manifest.json"
    second = tmp_path / "second.csv"
    assert main(["rerun", str(manifest), "--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_env_tolerance_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DAPQ_MAX_STATES", "3")
    code, _, err = run_cli(
        capsys, "cdf", "--kind", "dapq2", "--lam1", "0.5", "--lam2", "0.3",
        "--b", "0.5", "--d", "2", "--t-max", "5",
    )
    assert code == 4
    assert "TruncationOverflow" in err


def test_cdf_manifest_records_inversion_diagnostics(tmp_path):
    out = tmp_path / "cdf.csv"
    code = main(["cdf", "--kind", "dapq2", "--lam1", "0.5", "--lam2", "0.3", "--b", "0.5",
                 "--d", "2", "--t-max", "5", "--out", str(out)])
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "cdf.csv.manifest.json").read_text())
    assert 0.0 < manifest["inversion"]["error_estimate"] <= 1e-8
    assert manifest["inversion"]["head_states"] > 0


def test_kpi_manifest_records_how_the_search_was_computed(tmp_path):
    out = tmp_path / "region.csv"
    code = main(["kpi", "--class", "2", "--w", "4", "--p", "0.85", "--region",
                 "--resolution", "0.05", "--out", str(out)])
    assert code == EXIT_OK
    search = json.loads((tmp_path / "region.csv.manifest.json").read_text())["search"]
    assert 0 < search["inversion_calls"] <= 20
    assert search["rows_inverted"] >= search["inversion_calls"]
    assert 0.0 < search["error_estimate"] <= 1e-8

    for cls, w, p, lam1, lam2, inverted in ((2, "4", "0.85", "0.4", "0.18", True),
                                            (1, "2", "0.9", "0.05", "0.6", False)):
        out = tmp_path / f"sweep{cls}.csv"
        code = main(["kpi", "--class", str(cls), "--w", w, "--p", p, "--lam1", lam1,
                     "--lam2", lam2, "--sweep-d", "0:3", "--out", str(out)])
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / f"sweep{cls}.csv.manifest.json").read_text())
        estimates = manifest["search"]["error_estimates"]
        assert len(estimates) == 4 and "duration_s" in manifest
        if inverted:
            assert all(0.0 < e <= 1e-8 for e in estimates)
        else:
            assert estimates == [0.0] * 4
