"""The momentous benchmark: one seeded workload, timed, checked and reported.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Workloads (see README.md in this directory for why each exists):

* ``sweep``      -- the 151-point acceptance q0 sweep through ``run_sweep``, serial;
* ``sweep-pool`` -- the same points through ``run_sweep(workers=2)``;
* ``dense``      -- 12 densely sampled ``run_simulate`` runs, two
  ``run_surface`` calls and one ``run_check_algebra``.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run,
whose spans are also written to ``.perfbench/trace-<workload>-seed<n>.json``.
``--smoke`` runs every workload at a tiny size, for the benchmark's own tests.
The package is imported from ``src/`` next to this directory; without it the
command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-up probes: some before the first pass and some after every timed
# pass, so that the median samples the host over the whole run.
SETUP_PROBES_FIRST = 5
SETUP_PROBES_PER_PASS = 2
PROBE_TIMEOUT_S = 60


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "sweep-pool", "dense"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe")
    return parser


def _setup_probe(workload: str, seed: int, outdir: Path, clock) -> tuple[float, float]:
    """(set-up seconds, host speed) of one fresh interpreter (see
    setup_probe.py). The clock samples the host from this process meanwhile."""
    mark = clock.mark()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(outdir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]), clock.since(mark).speed


def _check_against(result, reference) -> None:
    """A pooled sweep must write the serial sweep's CSV byte for byte."""
    if reference is None or result.csv == reference.csv:
        return
    ours = result.csv.splitlines()
    theirs = reference.csv.splitlines()
    differing = sum(a != b for a, b in zip(ours, theirs)) + abs(len(ours) - len(theirs))
    result.mismatches += max(differing, 1)
    result.problems.append(f"pooled CSV differs from serial CSV on {differing} lines")


def _passes(wl, outdir: Path, seconds: float, workers: int, reference,
            traced=False, between=None, clock=None):
    """Timed passes until ``seconds`` have gone by (at least one). When
    ``traced``, untraced and traced passes alternate. ``between`` runs after
    every untraced pass; ``clock`` times the untraced passes' host speed.
    Returns (untraced passes, traced passes, tracer of the last traced pass)."""
    import tracing

    untraced, traced_passes, tracer = [], [], None
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        untraced.append(wl.run(outdir, workers, clock))
        _check_against(untraced[-1], reference)
        if between is not None:
            between()
        if traced:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced_passes.append(wl.run(outdir, workers))
            _check_against(traced_passes[-1], reference)
    return untraced, traced_passes, tracer


def _end_to_end(setup_s, timed, checked, pooled) -> dict:
    """Times are scaled by the host speed their clock saw (see hostclock.py)."""
    attempted = sum(r.attempted for r in checked)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if pooled else resource.RUSAGE_SELF)
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(r.wall_s * r.speed for r in timed), "s"),
        "points_per_s": (statistics.median(
            r.trajectories / (r.wall_s * r.speed) for r in timed), "1/s"),
        "samples_per_s": (statistics.median(
            r.rows / (r.busy_s * r.speed) for r in timed), "1/s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - sum(r.errors for r in checked) / attempted, "fraction"),
        "tag_match_frac": (1.0 - sum(r.mismatches for r in checked) / attempted, "fraction"),
        "energy_drift_max": (max(r.drift_max for r in checked), "ratio"),
    }


def _bench(args, work: Path) -> int:
    import hostclock
    import micro
    import tracing
    import workloads

    calibration = micro.calibration_s()
    print(f"calibration_s {calibration!r}", flush=True)
    wl = workloads.Workload(args.workload, args.seed, smoke=args.smoke)
    pooled = args.workload == "sweep-pool"
    workers = workloads.POOL_WORKERS if pooled else 1
    outdir = work / "out"

    checked = []
    serial = None
    if pooled:
        serial = wl.run(outdir, 1)
        checked.append(serial)

    if not args.trace:
        probes = []
        clock = hostclock.HostClock()

        def probe(count):
            for _ in range(count):
                probes.append(_setup_probe(args.workload, args.seed,
                                           work / f"setup{len(probes)}", clock))

        with clock.running(children=pooled):
            probe(1 if args.smoke else SETUP_PROBES_FIRST)
            timed, _, _ = _passes(
                wl, outdir, args.seconds, workers, serial, clock=clock,
                between=lambda: probe(0 if args.smoke else SETUP_PROBES_PER_PASS))
        checked += timed
        setup_s = statistics.median(t * speed for t, speed in probes)
        metrics = _end_to_end(setup_s, timed, checked, pooled)
        print(f"perfbench: {len(timed)} passes, raw s "
              f"{[round(r.wall_s, 4) for r in timed]}, host speed "
              f"{[round(r.speed, 3) for r in timed]}; {len(probes)} set-up probes, "
              f"raw s {[round(t, 4) for t, _ in probes]}, host speed "
              f"{[round(speed, 3) for _, speed in probes]}", file=sys.stderr)
    else:
        untraced, traced, tracer = _passes(
            wl, outdir, args.seconds, workers, serial, traced=True)
        checked += untraced + traced
        passes = [tracer.to_dict(f"{args.workload} pass")]
        metrics = tracing.layer_metrics(tracer)
        absent = list(tracer.absent)
        if pooled:
            # The pool's workers are not traced; the layers inside them are
            # measured on a traced serial pass over the same points.
            run_sweep_self = metrics["cli.run_sweep.self_ms"]
            inner = tracing.Tracer()
            with inner.installed():
                checked.append(wl.run(outdir, 1))
            passes.append(inner.to_dict("serial pass"))
            metrics = tracing.layer_metrics(inner)
            metrics["cli.run_sweep.self_ms"] = run_sweep_self
        untraced_wall = statistics.median(r.wall_s for r in untraced)
        micro_values, micro_absent = micro.micro_metrics()
        metrics.update(micro_values)
        absent += micro_absent
        metrics["cli.pool_efficiency"] = (
            serial.wall_s / (workers * untraced_wall) if pooled else 0.0, "fraction")
        metrics["cli.bytes_written"] = (traced[-1].bytes_written, "bytes")
        metrics["host.raw_pass_s"] = (untraced_wall, "s")
        metrics["trace.overhead_frac"] = (
            statistics.median(r.wall_s for r in traced) / untraced_wall - 1.0, "fraction")
        metrics["trace.absent_names"] = (len(absent), "count")
        metrics["host.calibration_s"] = (calibration, "s")
        for name in absent:
            print(f"perfbench: absent layer {name}", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"absent": absent, "passes": passes}) + "\n", encoding="utf-8")

    attempted = sum(r.attempted for r in checked)
    failed = sum(r.errors + r.mismatches for r in checked)
    for problem in [p for r in checked for p in r.problems][:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    package = SRC / "momentous"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no momentous package at {package}", file=sys.stderr)
        return 2
    # numpy's import starts an OpenBLAS thread pool that momentous never uses.
    # On a shared 2-core host its start-up costs 0-70 ms depending on whether
    # the other core is free, which would swamp set-up time; one thread, here
    # and in the set-up probes, which inherit the environment, removes that.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import momentous

    if Path(momentous.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported momentous from {momentous.__file__}, "
              f"not from {package}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    try:
        return _bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
