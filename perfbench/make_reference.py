"""Regenerate ``reference.json``: the tag of every q0 point that a seed of the
sweep workloads can use (the acceptance grid, its smoke subset and every
shifted grid).

The reference records what the code produced when the benchmark was defined;
for the acceptance grid that is 16 reflected, 3 tunneled, 3 trapped and 129
undetermined. Regenerating it is a deliberate act, not part of a run:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from momentous import cli  # noqa: E402

CODES = {"r": "reflected", "t": "tunneled", "p": "trapped", "u": "undetermined"}


def main() -> int:
    grids = [
        (workloads.SWEEP_START, workloads.SWEEP_STOP, workloads.SWEEP_COUNT),
        (workloads.SWEEP_START, workloads.SWEEP_STOP, workloads.SMOKE_SWEEP_COUNT),
    ]
    grids += [workloads.shifted_bounds(j) for j in range(workloads.SWEEP_SHIFTS)]
    code_of = {tag: code for code, tag in CODES.items()}
    tags: dict[str, str] = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for start, stop, count in grids:
            out = Path(tmp) / "sweep"
            cfg = cli.build_config(workloads.sweep_raw(start, stop, count))
            cli.run_sweep(cfg, str(out), workers=workloads.POOL_WORKERS)
            with open(f"{out}.csv", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    previous = tags.setdefault(row["value"], code_of[row["outcome"]])
                    if previous != code_of[row["outcome"]]:
                        raise SystemExit(f"q0={row['value']} tagged two ways")
    (HERE / "reference.json").write_text(
        json.dumps({"codes": CODES, "tags": tags}, indent=0, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"{len(tags)} reference tags from {len(grids)} grids")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
