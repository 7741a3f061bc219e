import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import cli_csv_by_rows, csv_payload_by_rows, run_single_by_events
from dapq import cli, kpi, markov, mean_wait, simulate, transforms
from dapq.cli import EXIT_INFEASIBLE, EXIT_INVALID, EXIT_NUMERICAL, EXIT_OK, main
from dapq.core import DapqError, Kpi, QueueConfig, ServiceKind, TruncationOverflow


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
    out3 = tmp_path / "c.csv"
    assert main(["rerun", str(tmp_path / "a.csv.manifest.json"), "--out", str(out3)]) == EXIT_OK
    assert out1.read_bytes() == out3.read_bytes()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["parameters"]["seed"] == 7
    assert manifest["provenance"]["customers"] == 2 * (400 + 100)
    assert 0.0 < manifest["provenance"]["wall_s"] <= manifest["duration_s"]
    assert manifest["provenance"]["workers"] == simulate._workers(2)


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
    # in one process, so that this process makes every run_single call
    monkeypatch.setattr(simulate, "_workers", lambda reps: 1)
    out, raw = tmp_path / "cdf.csv", tmp_path / "raw.csv"
    assert main(args + ["--out", str(out), "--raw", str(raw)]) == EXIT_OK
    assert len(calls) == 3
    assert len(raw.read_text().splitlines()) == 1 + 3 * 300
    assert out.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("argv", [
    ["cdf", "--kind", "npq2", "--lam1", "0.5", "--lam2", "0.3", "--t-max", "1", "--out"],
    ["simulate", "--lam1", "0.5", "--lam2", "0.3", "--n", "50", "--burn-in", "10",
     "--reps", "3", "--t-max", "1", "--out", "sim.csv", "--raw"],
])
def test_unwritable_output_paths_are_invalid_input(argv, tmp_path, capsys, monkeypatch):
    # a path in a missing directory is bad input: one error line, exit 2, no traceback
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, *argv, str(bad))
    assert code == EXIT_INVALID and out == ""
    assert err == f"error: FileNotFoundError: [Errno 2] No such file or directory: '{bad}'\n"
    assert list(tmp_path.iterdir()) == []  # no CSV, manifest or raw dump
    with pytest.raises(ChildProcessError):  # and no simulation worker left behind
        os.waitpid(-1, os.WNOHANG)


def test_simulate_rejects_empty_queue(capsys):
    code, _, err = run_cli(capsys, "simulate", "--lam1", "0", "--lam2", "0",
                           "--n", "10", "--burn-in", "1", "--reps", "1")
    assert code == EXIT_INVALID
    assert "OutOfRange" in err


def test_simulate_rejects_negative_seed(capsys):
    code, _, err = run_cli(capsys, "simulate", "--lam1", "0.5", "--lam2", "0.3",
                           "--n", "10", "--burn-in", "1", "--reps", "1", "--seed", "-1")
    assert code == EXIT_INVALID
    assert "OutOfRange" in err and "seed" in err


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
    assert manifest["provenance"]["customers"] == 2 * (200 + 50)
    assert manifest["provenance"]["wall_s"] > 0.0
    assert manifest["provenance"]["workers"] == simulate._workers(2)
    assert set(manifest["provenance"]) == {"customers", "wall_s", "workers"}


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


def test_kpi_sweep_whose_class1_mean_falls_writes_its_points(capsys):
    # zero delay is not best for this KPI: the class-1 mean falls along the
    # sweep, and every point is returned
    code, out, _ = run_cli(
        capsys, "kpi", "--class", "2", "--w", "8", "--p", "0.95",
        "--lam1", "0.35", "--lam2", "0.25", "--sweep-d", "0:2:0.5",
    )
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert [r[4] for r in rows] == ["1"] * 5
    w1 = [float(r[2]) for r in rows]
    assert all(b < a for a, b in zip(w1, w1[1:]))


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


def test_rerun_rejects_a_fractional_state_cap(tmp_path, capsys):
    first = tmp_path / "first.csv"
    assert main(["mean", "--lam1", "0.5", "--lam2", "0.3", "--b", "0.5",
                 "--d", "2", "--out", str(first)]) == EXIT_OK
    manifest = tmp_path / "first.csv.manifest.json"
    record = json.loads(manifest.read_text())
    record["tolerances"]["max_states"] = 40.5
    manifest.write_text(json.dumps(record))
    code = main(["rerun", str(manifest), "--out", str(tmp_path / "second.csv")])
    assert code == EXIT_INVALID
    assert "OutOfRange" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    pytest.param("not json {", id="not-json"),
    pytest.param('["mean", {}]', id="array"),
    pytest.param('{"subcommand": "mean"}', id="missing-key"),
])
def test_rerun_refuses_a_malformed_manifest(tmp_path, capsys, text):
    manifest = tmp_path / "bad.manifest.json"
    manifest.write_text(text)
    code = main(["rerun", str(manifest), "--out", str(tmp_path / "again.csv")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_INVALID and len(err) == 1
    assert err[0].startswith("error: OutOfRange: ") and str(manifest) in err[0]
    assert not (tmp_path / "again.csv").exists()


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
    provenance = json.loads((tmp_path / "cdf.csv.manifest.json").read_text())["provenance"]
    assert provenance["provenance"] == "inverted"
    assert 0.0 < provenance["error_estimate"] <= 1e-8
    assert provenance["head_states"] > 0
    # the clamp's change, which the manifest once left out
    assert 0.0 <= provenance["max_adjustment"] < 1e-8


def test_kpi_manifest_records_how_the_search_was_computed(tmp_path):
    out = tmp_path / "region.csv"
    code = main(["kpi", "--class", "2", "--w", "4", "--p", "0.85", "--region",
                 "--resolution", "0.05", "--out", str(out)])
    assert code == EXIT_OK
    search = json.loads((tmp_path / "region.csv.manifest.json").read_text())["provenance"]
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
        estimates = [pt["error_estimate"] for pt in manifest["provenance"]["points"]]
        assert len(estimates) == 4 and "duration_s" in manifest
        if inverted:
            assert all(0.0 < e <= 1e-8 for e in estimates)
        else:
            assert estimates == [0.0] * 4


def test_kpi_sweep_manifest_records_probes_and_inversions(tmp_path):
    cfg, target, ds = QueueConfig(0.4, 0.18, 1.0), Kpi(4.0, 0.85, 2), [0.0, 1.0, 2.0, 3.0, 4.0]
    points = kpi.policy_sweep(cfg, target, ds)
    out = tmp_path / "sweep.csv"
    assert main(["kpi", "--class", "2", "--w", "4", "--p", "0.85", "--lam1", "0.4",
                 "--lam2", "0.18", "--sweep-d", "0:4", "--out", str(out)]) == EXIT_OK
    search = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["provenance"]
    probes, widths = ([pt[key] for pt in search["points"]] for key in ("probes", "root_width"))
    assert probes == [pt.probes for pt in points]
    assert widths == [pt.root_width for pt in points]
    assert 0.0 < widths[0] < 1e-6 and widths[-1] == 0.0
    assert (search["inversion_calls"], search["rows_inverted"]) == (
        points.inversion_calls, points.rows_inverted)
    assert 0 < search["inversion_calls"] <= 20 and probes[0] > 5
    # one chain run gives the busy weights and correction sums of every delay
    assert (search["chain_runs"], search["chain_steps"]) == (1, points.chain_steps)
    assert points.chain_runs == 1 and points.chain_steps > 0

    out = tmp_path / "sweep1.csv"
    assert main(["kpi", "--class", "1", "--w", "2", "--p", "0.9", "--lam1", "0.05",
                 "--lam2", "0.6", "--sweep-d", "0:1", "--out", str(out)]) == EXIT_OK
    search = json.loads((tmp_path / "sweep1.csv.manifest.json").read_text())["provenance"]
    assert (search["inversion_calls"], search["rows_inverted"]) == (0, 0)
    assert search["chain_runs"] == 1 and search["chain_steps"] > 0
    # the means at b = 0 and 1 and at the closed-form rate, then its steps
    points = kpi.policy_sweep(QueueConfig(0.05, 0.6, 1.0), Kpi(2.0, 0.9, 1), [0.0, 1.0])
    probes = [pt["probes"] for pt in search["points"]]
    assert probes == [pt.probes for pt in points]
    assert all(p >= 3 for p in probes)
    assert all(0.0 < pt["root_width"] < 1e-12 for pt in search["points"])


_QUEUE = ["--lam1", "0.4", "--lam2", "0.18"]
_REGION = ["kpi", "--class", "2", "--w", "4", "--p", "0.85", "--region"]


@pytest.mark.parametrize("argv,env", [
    (["mean", "--lam1", "nan", "--lam2", "0.3"], {}),
    (["mean", "--lam1", "inf", "--lam2", "0.3"], {}),
    (["mean", *_QUEUE, "--mu", "nan"], {}),
    (["mean", *_QUEUE, "--d", "inf"], {}),
    (["mean", *_QUEUE, "--b", "0:inf"], {}),
    (["mean", *_QUEUE, "--b", "nan:1"], {}),
    (["mean", *_QUEUE, "--d", "0:2:nan"], {}),
    (["mean", *_QUEUE, "--b", "zero"], {}),
    (["cdf", "--kind", "dapq2", *_QUEUE, "--d", "nan"], {}),
    (["cdf", "--kind", "fcfs", *_QUEUE, "--t-max", "nan"], {}),
    (["cdf", "--kind", "fcfs", *_QUEUE, "--t-max", "5", "--dt", "0"], {}),
    (["cdf", "--kind", "fcfs", *_QUEUE, "--t-max", "5", "--dt", "-1"], {}),
    (["kpi", "--class", "2", "--w", "4", "--p", "0.85", *_QUEUE, "--d", "inf"], {}),
    (["kpi", "--class", "2", "--w", "4", "--p", "nan", *_QUEUE], {}),
    (["kpi", "--class", "1", "--w", "2", "--p", "0.9", *_QUEUE, "--sweep-d", "0:inf"], {}),
    (["kpi", "--class", "2", "--w", "nan", "--p", "0.85", "--region"], {}),
    ([*_REGION, "--resolution", "nan"], {}),
    ([*_REGION, "--resolution", "inf"], {}),
    ([*_REGION, "--mu", "inf"], {}),
    (["mean", *_QUEUE], {"DAPQ_EPS_ROOT": "abc"}),
    (["mean", *_QUEUE], {"DAPQ_MAX_STATES": "1.5"}),
    (["mean", *_QUEUE], {"DAPQ_EPS_INVERT": "nan"}),
    (["mean", *_QUEUE], {"DAPQ_EPS_SERIES": "inf"}),
    # counts too large to build: each is counted, and refused, before anything is allocated
    (["mean", *_QUEUE, "--d", "0:1:1e-320"], {}),
    (["cdf", "--kind", "dapq2", *_QUEUE, "--t-max", "1e300", "--dt", "1e-300"], {}),
    ([*_REGION, "--resolution", "1e-300"], {}),
])
def test_bad_numbers_are_rejected_with_one_error_line(argv, env, tmp_path, monkeypatch, capsys):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == EXIT_INVALID
    assert err.startswith("error: OutOfRange: ") and err.count("\n") == 1, err
    assert stdout == "" and not out.exists()
    for name in env:
        assert name in err or name.removeprefix("DAPQ_").lower() in err


# --------------------------------------------------------------------------
# the column writer against the row-by-row oracle
# --------------------------------------------------------------------------

_EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300,
                1e16, 0.1, 123456789012.5, 1.0 / 3.0]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
_scalars = st.one_of(
    _floats,
    _floats.map(np.float64),
    st.integers(min_value=-10**20, max_value=10**20),
    st.booleans(),
    st.text(max_size=6),
)


@st.composite
def _column(draw, n):
    """One CSV column of ``n`` values: a float64, int or bool array, or a list
    of Python floats, ``np.float64`` values, ints, bools, strings or a mix."""
    kind = draw(st.sampled_from(["f64 array", "int array", "bool array", "floats",
                                 "np.float64", "ints", "bools", "strings", "mixed"]))
    if kind == "f64 array":
        return np.array(draw(st.lists(_floats, min_size=n, max_size=n)), dtype=np.float64)
    if kind == "int array":
        return np.array(draw(st.lists(st.integers(-2**62, 2**62), min_size=n, max_size=n)),
                        dtype=np.int64)
    if kind == "bool array":
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    element = {"floats": _floats, "np.float64": _floats.map(np.float64),
               "ints": st.integers(), "bools": st.booleans(), "strings": st.text(max_size=6),
               "mixed": _scalars}[kind]
    return draw(st.lists(element, min_size=n, max_size=n))


@st.composite
def _table(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    width = draw(st.integers(min_value=1, max_value=5))
    header = draw(st.lists(st.text(alphabet="abcxyz_12", min_size=1, max_size=5),
                           min_size=width, max_size=width))
    return header, [draw(_column(n)) for _ in range(width)]


@settings(max_examples=300, deadline=None)
@given(_table())
@example((["t", "F"], [np.array(_EDGE_FLOATS), [np.float64(x) for x in _EDGE_FLOATS]]))
@example((["a", "b", "c"], [[1, True, "x"], [2.5, np.float64(-0.0), False], np.arange(3)]))
@example((["t", "F"], [np.array([]), []]))
@example((["n", "s", "x", "y", "z"], [[1, -2], ["a", "{}"], [np.float64(math.nan), math.inf],
                                      np.array([-math.inf, 0.1]), [np.float64(2.5), 3]]))
def test_column_writer_equals_row_writer(table):
    header, columns = table
    rows = list(zip(*columns))  # what the subcommands used to build
    assert cli._csv_text(header, columns) == csv_payload_by_rows(header, rows)


_SIM = ["--n", "300", "--burn-in", "60", "--reps", "3", "--seed", "13"]
_CLI_BATTERY = {
    "mean-exp": ["mean", "--lam1", "0.5", "--lam2", "0.3", "--b", "0:1:0.25", "--d", "0:4:2"],
    "mean-det": ["mean", "--lam1", "0.4", "--lam2", "0.3", "--service", "det",
                 "--b", "0:1:0.5", "--d", "0:2"],
    **{f"cdf-{kind}": ["cdf", "--kind", kind, "--lam1", "0.5", "--lam2", "0.3", "--b", "0.5",
                       "--d", "2", "--t-max", "12", "--dt", "0.25"]
       for kind in ("fcfs", "npq1", "npq2", "dapq2", "zexp1")},
    "cdf-dapq2-default-grid": ["cdf", "--kind", "dapq2", "--lam1", "0.5", "--lam2", "0.45",
                               "--b", "0.3", "--d", "3"],
    **{f"cdf-{kind}-{service}": ["cdf", "--kind", kind, "--lam1", "0.5", "--lam2", "0.3",
                                 "--b", "0.5", "--d", "2", "--service", service,
                                 "--t-max", "10", *_SIM]
       for kind in ("sim1", "sim2") for service in ("exp", "det")},
    "kpi-sweep-class2": ["kpi", "--class", "2", "--w", "4", "--p", "0.85", "--lam1", "0.4",
                         "--lam2", "0.18", "--sweep-d", "0:8"],
    "kpi-sweep-class1": ["kpi", "--class", "1", "--w", "2", "--p", "0.9", "--lam1", "0.05",
                         "--lam2", "0.6", "--sweep-d", "0:6"],
    "kpi-region": ["kpi", "--class", "2", "--w", "4", "--p", "0.85", "--region",
                   "--resolution", "0.05"],
}


@pytest.mark.parametrize("name", sorted(_CLI_BATTERY))
def test_cli_csv_equals_row_by_row_oracle(name, tmp_path, capsys):
    argv = _CLI_BATTERY[name]
    want, _ = cli_csv_by_rows(argv)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == want.encode()
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("argv", [
    ["simulate", "--lam1", "0.5", "--lam2", "0.3", "--b", "0.5", "--d", "2",
     "--t-max", "10", "--dt", "0.5", *_SIM],
    ["simulate", "--lam1", "0", "--lam2", "0.8", "--service", "det", "--t-max", "20", *_SIM],
    ["simulate", "--lam1", "0.6", "--lam2", "0", "--t-max", "8", *_SIM],
])
def test_simulate_files_equal_row_by_row_oracle(argv, tmp_path):
    want, want_summary = cli_csv_by_rows(argv)
    out, raw, summary = tmp_path / "sim.csv", tmp_path / "raw.csv", tmp_path / "summary.csv"
    assert main(argv + ["--out", str(out), "--raw", str(raw),
                        "--summary-out", str(summary)]) == EXIT_OK
    assert out.read_bytes() == want.encode()
    assert summary.read_bytes() == want_summary.encode()
    args = cli._build_parser().parse_args(argv)
    queue = QueueConfig(args.lam1, args.lam2, args.mu, b=args.b, d=args.d,
                        service=ServiceKind(args.service))
    sim = simulate.SimConfig(queue=queue, n_customers=args.n, burn_in=args.burn_in,
                             replications=args.reps, seed=args.seed)
    want_raw = csv_payload_by_rows(["rep", "class", "arrival", "wait"], [
        [r, c, a, w] for r in range(3) for c, a, w in run_single_by_events(sim, r)
    ])
    assert raw.read_bytes() == want_raw.encode()  # "\n" line ends, no "\r"


@pytest.mark.parametrize("name", ["mean-det", "cdf-dapq2", "cdf-sim2-exp", "kpi-sweep-class2",
                                  "kpi-region"])
def test_rerun_csv_equals_row_by_row_oracle(name, tmp_path):
    argv = _CLI_BATTERY[name]
    first = tmp_path / "first.csv"
    assert main(argv + ["--out", str(first)]) == EXIT_OK
    again = tmp_path / "again.csv"
    assert main(["rerun", str(first) + ".manifest.json", "--out", str(again)]) == EXIT_OK
    assert again.read_bytes() == cli_csv_by_rows(argv)[0].encode()


def test_rerun_of_a_simulation_leaves_its_dump_and_summary_alone(tmp_path):
    argv = ["simulate", "--lam1", "0.5", "--lam2", "0.3", "--t-max", "2", *_SIM]
    first, raw, summary = tmp_path / "a.csv", tmp_path / "raw.csv", tmp_path / "summary.csv"
    assert main(argv + ["--out", str(first), "--raw", str(raw),
                        "--summary-out", str(summary)]) == EXIT_OK
    before = {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in (raw, summary)}
    again = tmp_path / "b.csv"
    assert main(["rerun", str(first) + ".manifest.json", "--out", str(again)]) == EXIT_OK
    assert again.read_bytes() == first.read_bytes()
    assert {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in before} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.csv", "a.csv.manifest.json", "b.csv", "b.csv.manifest.json", "raw.csv", "summary.csv"]


@pytest.mark.parametrize("service", ["exp", "det"])
def test_mean_sweep_computes_one_correction_per_delay(service, monkeypatch, tmp_path):
    # exponential service runs one chain for every delay, deterministic
    # service one closed form per delay, whatever the number of b values
    argv = ["mean", "--lam1", "0.5", "--lam2", "0.3", "--b", "0:1:0.25", "--d", "0:8:2",
            "--service", service]
    want, _ = cli_csv_by_rows(argv)
    calls = []
    for module, name in ((markov, "_busy_weights_rows"), (mean_wait, "_md1_correction_sum")):
        def counted(*args, _run=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _run(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == want.encode()
    # det: d = 0 has a closed form, so d = 2, 4, 6, 8 compute one sum each
    assert calls == (["_busy_weights_rows"] if service == "exp" else ["_md1_correction_sum"] * 4)


def test_mean_sweep_in_heavy_deterministic_traffic(capsys):
    # the M/D/1 pmf is sized to the delay, not to its tail mass, which at
    # occupancy 0.999 would need more than max_states terms
    code, out, err = run_cli(capsys, "mean", "--lam1", "0.5", "--lam2", "0.499",
                             "--b", "0:1:0.5", "--d", "0:5", "--service", "det")
    assert (code, err) == (EXIT_OK, "")
    header, rows = parse_csv(out)
    assert len(rows) == 18 and all(float(r[header.index("mean_w2")]) > 0.0 for r in rows)


@pytest.mark.parametrize("argv,env", [
    (["--service", "det", "--b", "0:1:0.5", "--d", "0:2:0.5"], None),
    (["--b", "0:1.5:0.5", "--d", "0:2"], None),
    (["--b", "0:1:0.5", "--d", "0:30:10"], "40"),
    (["--service", "det", "--b", "0:1:0.5", "--d", "0:300:100"], "150"),
    (["--lam1", "0", "--b", "0:1:0.5", "--d", "0:2"], None),
    # b fails before d in a point's validation, where the batch meets d first
    (["--b", "2", "--d", "-1"], None),
    # d = 1.5 is no whole number of services, but the point at d = 1 fails first
    (["--service", "det", "--lam2", "0.49", "--b", "0.5", "--d", "1:1.5:0.5"], "20"),
])
def test_mean_sweep_fails_at_the_first_failing_point(argv, env, monkeypatch, capsys):
    # the sweep raises what the per-point loop raised first, with its exit code
    argv = ["mean", "--lam1", "0.5", "--lam2", "0.3", *argv]
    if env:
        monkeypatch.setenv("DAPQ_MAX_STATES", env)
    with pytest.raises(DapqError) as want:
        cli_csv_by_rows(argv)
    code, _, err = run_cli(capsys, *argv)
    assert err == f"error: {type(want.value).__name__}: {want.value}\n"
    assert code == (EXIT_NUMERICAL if isinstance(want.value, TruncationOverflow) else EXIT_INVALID)


@pytest.mark.parametrize("argv", [
    _CLI_BATTERY["mean-det"], _CLI_BATTERY["cdf-npq1"], _CLI_BATTERY["kpi-sweep-class1"],
    ["simulate", "--lam1", "0.5", "--lam2", "0.3", "--t-max", "2", *_SIM],
])
def test_manifest_records_every_flag_but_the_manifest_path(argv, tmp_path):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    subparsers = next(a for a in cli._build_parser()._actions if a.dest == "subcommand")
    flags = {a.dest for a in subparsers.choices[argv[0]]._actions} - {"help", "manifest"}
    assert manifest["subcommand"] == argv[0] and set(manifest["parameters"]) == flags


@pytest.mark.parametrize("argv, result_type, label", [
    (_CLI_BATTERY["cdf-dapq2"], transforms.CdfCurve, "inverted"),
    (_CLI_BATTERY["cdf-zexp1"], transforms.CdfCurve, "approximate"),
    (_CLI_BATTERY["cdf-fcfs"], transforms.CdfCurve, "exact"),
    (_CLI_BATTERY["cdf-npq1"], transforms.CdfCurve, "exact"),
    (_CLI_BATTERY["cdf-sim2-exp"], simulate.EmpiricalCdf, None),
    (["simulate", "--lam1", "0.5", "--lam2", "0.3", "--t-max", "2", *_SIM],
     simulate.EmpiricalCdf, None),
    (_CLI_BATTERY["kpi-sweep-class2"], kpi.PolicySweep, None),
    (_CLI_BATTERY["kpi-region"], kpi.FeasibleRegion, None),
])
def test_manifest_provenance_is_the_results_compare_false_fields(argv, result_type, label,
                                                                  tmp_path):
    # one rule: every field that says how a result was computed reaches its manifest
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == EXIT_OK
    provenance = json.loads((tmp_path / "out.csv.manifest.json").read_text())["provenance"]

    def diagnostics(cls):
        return {f.name for f in dataclasses.fields(cls) if not f.compare}

    if result_type is kpi.PolicySweep:
        points = provenance.pop("points")
        assert len(points) == 9 and all(set(pt) == diagnostics(kpi.PolicyPoint) for pt in points)
        assert set(provenance) == {"inversion_calls", "rows_inverted", "chain_runs",
                                   "chain_steps"}
    else:
        assert provenance and set(provenance) == diagnostics(result_type)
    if label is not None:
        assert provenance["provenance"] == label


# --------------------------------------------------------------------------
# one parser per process
# --------------------------------------------------------------------------


def test_one_parser_serves_every_call(tmp_path, monkeypatch, capsys):
    source = tmp_path / "source.csv"
    assert main(_CLI_BATTERY["kpi-sweep-class2"] + ["--out", str(source)]) == EXIT_OK
    capsys.readouterr()
    unknown_kind = ["cdf", "--kind", "nope", "--lam1", "0.5", "--lam2", "0.3"]
    missing_lam2 = ["mean", "--lam1", "0.5"]
    calls = [
        _CLI_BATTERY["mean-exp"],
        _CLI_BATTERY["cdf-npq1"],
        unknown_kind,
        _CLI_BATTERY["kpi-sweep-class1"],
        ["--version"],
        ["simulate", "--lam1", "0.5", "--lam2", "0.3", "--t-max", "2", *_SIM],
        missing_lam2,
        ["rerun", str(source) + ".manifest.json", "--out", str(tmp_path / "rerun.csv")],
        _CLI_BATTERY["cdf-dapq2"],
        ["kpi", "--class", "2", "--w", "4", "--p", "0.85", "--lam1", "0.45", "--lam2", "0.45"],
    ]
    parseable = [argv for argv in calls if argv not in (unknown_kind, missing_lam2, ["--version"])]

    def run_all():
        results = []
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            out, err = capsys.readouterr()
            if argv[0] == "rerun":
                out = (tmp_path / "rerun.csv").read_text()
            results.append((code, out, err))
        return results

    shared = run_all()
    assert cli._build_parser() is cli._build_parser()
    parsed = [cli._build_parser().parse_args(argv) for argv in parseable]

    fresh_parser = cli._build_parser.__wrapped__
    monkeypatch.setattr(cli, "_build_parser", fresh_parser)
    assert fresh_parser() is not fresh_parser()
    assert run_all() == shared
    assert parsed == [fresh_parser().parse_args(argv) for argv in parseable]
    assert [code for code, _, _ in shared] == [
        EXIT_OK, EXIT_OK, ("exit", 2), EXIT_OK, ("exit", 0), EXIT_OK, ("exit", 2), EXIT_OK,
        EXIT_OK, EXIT_INFEASIBLE]
    assert shared[4][1] == "dapq 0.1.0\n"
    assert "invalid choice: 'nope'" in shared[2][2]
