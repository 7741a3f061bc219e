"""Write reference.json: every op's inputs and output at the default seed.

    python3 perfbench/record_reference.py

Run it at the commit whose outputs the benchmark should hold later commits
to (the seed commit for the file in this directory).  The benchmark then
compares the outputs of the default seed with these records.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    outdir = HERE / "out" / "reference"
    outdir.mkdir(parents=True, exist_ok=True)
    recorded = {}
    for name, wl in workloads.WORKLOADS.items():
        specs = wl.specs(workloads.DEFAULT_SEED)
        records = []
        for i, spec in enumerate(specs):
            path = outdir / f"{name}-op{i}.csv"
            records.append(wl.record(spec, wl.run(spec, path), path))
        recorded[name] = {"specs": specs, "records": records}
        print(f"{name}: {len(specs)} ops recorded", file=sys.stderr)
    workloads.REFERENCE_FILE.write_text(
        json.dumps({"seed": workloads.DEFAULT_SEED, "workloads": recorded}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
