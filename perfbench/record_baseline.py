"""Record ``baseline.json``: the first measurement on this harness, next to the
numbers ROADMAP.md gave for the re-anchor commit (measured there by hand).

For each workload it keeps the median of RUNS end-to-end runs at seed 0 and
one traced run. It also times the standard ``simulate`` scenario and
``check-algebra``, which the workloads only contain as parts.

    python3 perfbench/record_baseline.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 3
CALLS = 21

REANCHOR = {
    "sweep.wall_s": 5.2,
    "sweep-pool.wall_s": 3.2,
    "simulate_standard_ms": 39.0,
    "check_algebra_ms": 22.0,
    "source": "ROADMAP.md, 'Baseline measured at this re-anchor'",
}


def _bench(workload: str, trace: int, seconds: int) -> tuple[dict, float]:
    """(metrics, host calibration seconds) of one benchmark run at seed 0."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: outputs failed their checks\n{done.stderr}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, float(lines[0].split()[1])


def _median_ms(fn) -> float:
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from momentous import cli

    standard = cli.build_config({"packet": {"q0": -2.5, "energy": 0.98, "sigma0": 0.5}})
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        simulate_ms = _median_ms(lambda: cli.run_simulate(standard, f"{tmp}/run"))
    algebra_ms = _median_ms(cli.run_check_algebra)

    workloads = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        runs, calibration = zip(*(_bench(name, 0, seconds) for _ in range(RUNS)))
        workloads[name] = {
            "end_to_end": {k: statistics.median(r[k] for r in runs) for k in runs[0]},
            "calibration_s": list(calibration),
            "per_layer": _bench(name, 1, seconds)[0],
        }
    baseline = {
        "label": "baseline",
        "seed": 0,
        "runs": RUNS,
        "run_seconds": seconds,
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "simulate_standard_ms": simulate_ms,
        "check_algebra_ms": algebra_ms,
        "reanchor": REANCHOR,
        "workloads": workloads,
    }
    (HERE / "baseline.json").write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
