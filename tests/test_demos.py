"""The demos reproduce their tracked CSVs in demos/output/ byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_reproduces_its_tracked_csvs(demo, tmp_path):
    # a copy writes into tmp_path/demos/output, next to the copied script
    (tmp_path / "demos").mkdir()
    script = shutil.copy(demo, tmp_path / "demos")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    subprocess.run([sys.executable, script], cwd=tmp_path, env=env, check=True,
                   capture_output=True)
    written = sorted((tmp_path / "demos" / "output").glob("*.csv"))
    assert written
    for path in written:
        tracked = ROOT / "demos" / "output" / path.name
        assert tracked.exists(), f"{path.name} is not tracked"
        assert path.read_bytes() == tracked.read_bytes(), path.name
