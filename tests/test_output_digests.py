import hashlib
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digests.py"
COMMITTED = ROOT / "tests" / "output_digests.txt"
RERECORD = "python3 tools/output_digests.py . > tests/output_digests.txt"
FACTS = ["python", "numpy", "blas", "simd", "threads"]


def _digests(tree: Path, *seeds: str) -> list:
    run = subprocess.run([sys.executable, str(TOOL), str(tree), "--seeds", *seeds],
                         capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def test_output_digests_equal_the_committed_file():
    # every output bit at the default seeds, against the committed record;
    # a change that moves an output re-records the file in the same commit,
    # and a machine whose facts differ from its header cannot check it
    want, got = COMMITTED.read_text().splitlines(), _digests(ROOT, "0", "1", "2", "3")
    facts = [line for line in got if line.startswith("#")]
    assert [line.split()[1] for line in facts] == FACTS
    recorded = want[: len(facts)]
    if facts != recorded:
        pytest.fail("the digests were recorded on a machine whose facts differ from this one's:\n"
                    + "\n".join(f"recorded {r!r}, here {f!r}" for r, f in zip(recorded, facts)
                                 if r != f)
                    + f"\nre-record on this machine with `{RERECORD}` from a checkout whose"
                    " outputs are known good, such as the parent commit")
    for number, (line, recorded) in enumerate(zip(got, want), start=1):
        assert line == recorded, f"line {number} of {COMMITTED.name} moved; re-record: {RERECORD}"
    assert len(got) == len(want), f"{len(got)} digest lines, {len(want)} recorded"


def test_output_digests_are_one_repeatable_line_per_output():
    lines = _digests(ROOT, "0")
    assert lines == _digests(ROOT, "0")
    assert [line.split()[:2] for line in lines[:5]] == [["#", fact] for fact in FACTS]
    lines = lines[5:]
    kinds = [line.split()[0] for line in lines]
    counts = [kinds.count(kind) for kind in ("means", "cdf", "kpi", "mean", "simulate")]
    assert counts == [64, 5, 9, 14, 3]
    # each fixed mean or cdf line, and the first simulate line, is followed by the
    # digest of its floats' hex
    fixed = lines[-25:]
    assert [line.split(" sha256=")[0] for line in fixed] == [
        f"{label} {kind}" for label in (
            "mean service=exp", "mean service=det", "mean long service=exp",
            "mean long service=det", "mean heavy service=det", "mean mu=2 service=exp", "mean mu=2 service=det")
        for kind in ("exit=0", "floats")] + [
        "kpi tiny-w sweep exit=2", "kpi tiny-w region exit=2", "kpi trend sweep exit=0",
        "kpi long class-2 sweep exit=0", "kpi first-failure sweep exit=2",
        "cdf long head exit=0", "cdf long head floats", "kpi long-head sweep exit=0",
        "simulate exit=0", "simulate floats", "simulate raw exit=0"]
    # the five-replication run also digests its raw dump and its summary
    files = [field.split("=") for field in fixed[-1].split()[3:]]
    assert [name for name, _ in files] == ["sha256", "raw_sha256", "summary_sha256", "stderr"]
    assert all(len(digest) == 64 for _, digest in files)
    # each command line also digests its stderr, empty where it exits 0
    empty = " stderr=" + hashlib.sha256(b"").hexdigest()
    for line in fixed:
        digest = line.split(" sha256=")[1].split()[0]
        assert digest == "none" or len(digest) == 64
        assert line.endswith(empty) == (" exit=0 " in line)
    # a target wait below the least invertible t is invalid input, and so is
    # the first-failure sweep's first delay, which a loop over the delays
    # reaches before the second delay's truncation overflow: each prints the
    # one OutOfRange of the abscissa 1e-310 and writes no CSV
    failed = [line.split(" exit=")[1] for line in fixed if " exit=2 " in line]
    assert len(failed) == 3 and len(set(failed)) == 1
    assert failed[0].startswith("2 sha256=none stderr=")
    for line in lines[:-25]:
        fields = line.split(" ", 3)[3]
        if line.startswith("means"):
            w1, w2 = (float.fromhex(f.split("=")[1]) for f in fields.split())
            assert w1 > 0.0 and w2 > 0.0
        else:
            assert fields.startswith("exit=0 sha256=") and ' manifest={"' in fields
            assert '"duration_s"' not in fields and '"out"' not in fields


def _tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_prints_each_csvs_largest_numeric_change(tmp_path):
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), "--compare", str(ROOT),
                          "--seeds", "0"], capture_output=True, text=True, check=True)
    lines = run.stdout.splitlines()
    assert [line.split(" max_abs_diff=")[0] for line in lines] == [
        f"{kind} seed=0 op={i}" for kind in ("cdf", "kpi") for i in range(3)] + [
        "mean service=exp", "mean service=det", "mean long service=exp",
        "mean long service=det", "mean heavy service=det", "mean mu=2 service=exp", "mean mu=2 service=det",
        "kpi tiny-w sweep", "kpi tiny-w region", "kpi trend sweep", "kpi long class-2 sweep",
        "kpi first-failure sweep", "cdf long head", "kpi long-head sweep", "simulate",
        "simulate raw"]
    assert all(line.endswith(" max_abs_diff=0.0") for line in lines)

    # numeric cells compare by value; a text cell, a shape or a missing file
    # that differs cannot be matched
    max_abs_diff = _tool().max_abs_diff

    def write(name, text):
        (tmp_path / name).write_text(text)
        return tmp_path / name

    base = write("base.csv", "d,b_star,label\n0,0.25,x\n1,0.5,y\n")
    assert max_abs_diff(base, write("same.csv", "d,b_star,label\n0,0.25,x\n1,0.50,y\n")) == 0.0
    moved = write("moved.csv", "d,b_star,label\n0,0.25,x\n1,0.5000001,y\n")
    assert max_abs_diff(base, moved) == abs(0.5000001 - 0.5)
    assert max_abs_diff(base, write("text.csv", "d,b_star,label\n0,0.25,x\n1,0.5,z\n")) == math.inf
    assert max_abs_diff(base, write("short.csv", "d,b_star,label\n0,0.25,x\n")) == math.inf
    assert max_abs_diff(base, tmp_path / "missing.csv") == math.inf
    assert max_abs_diff(tmp_path / "missing.csv", tmp_path / "gone.csv") == 0.0
