import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _digests(tree: Path) -> list:
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digests.py"), str(tree),
                          "--seeds", "0"], capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def test_output_digests_are_one_repeatable_line_per_output():
    lines = _digests(ROOT)
    assert lines == _digests(ROOT)
    kinds = [line.split()[0] for line in lines]
    counts = [kinds.count(kind) for kind in ("means", "cdf", "kpi", "mean")]
    assert counts == [64, 3, 3, 2]
    for line in lines:
        if line.startswith("mean "):
            _, service, code, digest = line.split()
            assert service in ("service=exp", "service=det") and code == "exit=0"
            assert digest.startswith("sha256=") and len(digest) == len("sha256=") + 64
            continue
        fields = line.split(" ", 3)[3]
        if line.startswith("means"):
            w1, w2 = (float.fromhex(f.split("=")[1]) for f in fields.split())
            assert w1 > 0.0 and w2 > 0.0
        else:
            assert fields.startswith("exit=0 sha256=") and ' manifest={"' in fields
            assert '"duration_s"' not in fields and '"out"' not in fields
