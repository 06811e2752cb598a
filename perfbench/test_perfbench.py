"""Smoke tests of the benchmark itself, at a tiny size. Not part of the
package's suite (``testpaths`` names ``tests`` only); run them with

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "0", "--seconds", "0.1",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "1":
        assert result["metrics"]["trace.absent_names"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "sweep", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_inputs_follow_the_seed():
    assert workloads.sweep_bounds(0) == (-3.72638, -1.36634, 151)
    assert workloads.dense_raws(7) == workloads.dense_raws(7)
    assert workloads.dense_raws(7) != workloads.dense_raws(8)
    for seed in range(1, 40):
        start, stop, count = workloads.sweep_bounds(seed)
        assert workloads.SWEEP_START <= start < stop <= workloads.SWEEP_STOP
        assert count == workloads.SWEEP_COUNT


def test_reference_covers_every_seed_grid():
    import numpy as np

    reference = workloads.load_reference()
    grids = [workloads.sweep_bounds(0), workloads.sweep_bounds(0, smoke=True)]
    grids += [workloads.shifted_bounds(j) for j in range(workloads.SWEEP_SHIFTS)]
    for start, stop, count in grids:
        for q0 in np.linspace(start, stop, count):
            assert repr(float(q0)) in reference
    acceptance = [reference[repr(float(q0))] for q0 in np.linspace(*grids[0])]
    counts = {tag: acceptance.count(tag) for tag in set(acceptance)}
    assert counts == {"reflected": 16, "tunneled": 3, "trapped": 3, "undetermined": 129}


def test_a_deleted_name_is_an_absent_layer(monkeypatch, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from momentous import cli

    integrate = cli.integrate
    monkeypatch.delattr(cli, "effective_potential")  # only surfaces use it
    wl = workloads.Workload("sweep", 0, smoke=True)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = wl.run(tmp_path)
    assert tracer.absent == ["momentous.cli.effective_potential"]
    assert result.errors == result.mismatches == 0
    assert cli.integrate is integrate
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cli.build_config.calls"][0] == 2 * workloads.SMOKE_SWEEP_COUNT
    assert metrics["integrator.integrate.calls"][0] == workloads.SMOKE_SWEEP_COUNT


def _busy(seconds: float) -> int:
    end = time.perf_counter() + seconds
    spins = 0
    while time.perf_counter() < end:
        spins += 1
    return spins


def test_host_clock_samples_itself_and_forked_workers():
    import hostclock

    handler = signal.getsignal(signal.SIGALRM)
    clock = hostclock.HostClock()
    with clock.running(children=True):
        mark = clock.mark()
        _busy(0.3)
        own = clock.since(mark)
        mark = clock.mark()
        with ProcessPoolExecutor(max_workers=2) as pool:
            assert all(pool.map(_busy, [0.3, 0.3]))
        pooled = clock.since(mark)
    assert own.own and not own.workers
    assert own.speed > 0 and 0 < own.spent_s < 0.3
    assert pooled.workers and pooled.slices == [dt for _, dt in pooled.workers]
    assert pooled.speed > 0 and pooled.spent_s > 0
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert hostclock.NoClock().since(None).speed == 1.0
