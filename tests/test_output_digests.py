import importlib.util
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digests.py"


def _digests(tree: Path) -> list:
    run = subprocess.run([sys.executable, str(TOOL), str(tree), "--seeds", "0"],
                         capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def test_output_digests_are_one_repeatable_line_per_output():
    lines = _digests(ROOT)
    assert lines == _digests(ROOT)
    kinds = [line.split()[0] for line in lines]
    counts = [kinds.count(kind) for kind in ("means", "cdf", "kpi", "mean")]
    assert counts == [64, 3, 5, 3]
    assert [line.split(" exit=")[0] for line in lines[-5:]] == [
        "mean service=exp", "mean service=det", "mean heavy service=det",
        "kpi tiny-w sweep", "kpi tiny-w region"]
    for line in lines:
        if line.startswith("mean "):
            code, digest = line.split()[-2:]
            assert code == "exit=0"
            assert digest.startswith("sha256=") and len(digest) == len("sha256=") + 64
            continue
        if line.startswith("kpi tiny-w "):
            # a target wait below the least invertible t is invalid input
            assert line.split()[-2:] == ["exit=2", "sha256=none"]
            continue
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
    assert [line.split()[:3] for line in lines] == [
        [kind, "seed=0", f"op={i}"] for kind in ("cdf", "kpi") for i in range(3)]
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
