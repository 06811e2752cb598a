"""Set-up time of a workload, measured inside a fresh interpreter: import the
package, build the first config and make one short warm-up call. Prints the
seconds taken. ``run.py`` starts this several times and reports the median.

    python3 perfbench/setup_probe.py WORKLOAD SEED OUTDIR
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    import workloads
    from momentous import cli

    workload, seed, outdir = argv[0], int(argv[1]), Path(argv[2])
    cfg = cli.build_config(workloads.setup_raw(workload, seed))
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "dense":
        cli.run_simulate(cfg, str(outdir / "setup"))
    else:
        cli.run_sweep(cfg, str(outdir / "setup"))
    print(repr(time.perf_counter() - START))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
