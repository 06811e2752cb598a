"""Batch front end: single runs, parameter sweeps, effective-potential
surfaces, and the bracket-algebra self-check.

Configuration is a JSON file (nested key/value); every default and derived
quantity is echoed back into the run summary so each artifact is
self-describing. Tables are CSV with a one-line header; each table gets a
JSON summary sidecar. Files are written atomically (write-then-rename).

Exit codes: 0 success, 1 configuration error, 2 integration step failure,
3 algebra golden-report mismatch.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import math
import os
import pickle
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import orjson

from . import moment_algebra
from .classify import Tag, classify, resolve_margin
from .dynamics import ModelConfig, effective_potential, moment_labels
from .integrator import (
    IntegratorConfig, Termination, integrate, resolve_escape_radius, row_blocks,
)
from .packet import GaussianPacket, initial_moments
from .potential import BarrierPotential

__all__ = [
    "ConfigError",
    "RunConfig",
    "entry_point",
    "load_config",
    "main",
    "run_check_algebra",
    "run_simulate",
    "run_surface",
    "run_sweep",
]

SWEEP_PARAMETERS = ("q0", "p0", "sigma0")


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


_REQUIRED = object()  # the default of a field that must be given

# A start/stop/count grid: the sweep's values and each surface axis.
_GRID = {
    "start": ("number", _REQUIRED),
    "stop": ("number", _REQUIRED),
    "count": ("count", _REQUIRED),
}

# The config schema: field -> (kind, default), nested by section. A kind is
# "number", "integer", "count" (an integer >= 1), "boolean", None (any
# value; build_config checks it) or the field table of a nested object. A
# numeric field given as null takes its default. A default of None is
# resolved by build_config, or leaves out an optional section (absent or
# null). The other defaults are those of the model objects' fields.
_SCHEMA = {
    "model": ({
        "alpha": ("number", BarrierPotential.alpha),
        "a": ("number", BarrierPotential.a),
        "n": ("integer", BarrierPotential.n),
        "mass": ("number", ModelConfig.mass),
        "hbar": ("number", ModelConfig.hbar),
        "order": ("integer", ModelConfig.order),
    }, {}),
    "packet": ({
        "q0": ("number", _REQUIRED),
        "p0": ("number", None),
        "energy": ("number", None),
        "sigma0": ("number", GaussianPacket.sigma0),
        "third_moment_convention": (None, GaussianPacket.third_moment_convention),
    }, {}),
    "integrator": ({
        "rtol": ("number", IntegratorConfig.rtol),
        "atol": ("number", IntegratorConfig.atol),
        "t_max": ("number", IntegratorConfig.t_max),
        "max_step": ("number", IntegratorConfig.max_step),
        "escape_radius": ("number", None),
        "sample_dt": ("number", IntegratorConfig.sample_dt),
    }, {}),
    "classify": ({"margin": ("number", None)}, {}),
    "sweep": ({"parameter": (None, None), **_GRID, "fixed_energy": ("boolean", None)}, None),
    "surface": ({"q": (_GRID, _REQUIRED), "t": (_GRID, _REQUIRED)}, None),
    "output": ({"path": (None, "momentous_run")}, {}),
}

_TYPES = {
    "number": ((int, float), "a number"),
    "integer": (int, "an integer"),
    "count": (int, "an integer"),
    "boolean": (bool, "a boolean"),
}


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{field} {message}")


def _value(kind: Optional[str], value, field: str):
    """Check a given value against its kind; a number comes back as a finite float."""
    if kind is None:
        return value
    types, noun = _TYPES[kind]
    if not isinstance(value, types) or isinstance(value, bool) != (kind == "boolean"):
        raise ConfigError(f"{field} must be {noun}")
    if kind == "count":
        _require(value >= 1, field, "must be at least 1")
    elif kind == "number":
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            value = math.inf
        _require(math.isfinite(value), field, "must be finite")
    return value


def _section(raw, name: str, fields: dict) -> dict:
    """Check one config object against its field table; fill in the defaults."""
    _require(isinstance(raw, dict), name, "must be an object")
    for key in raw:
        _require(key in fields, f"{name}.{key}", "is not a recognized field")
    resolved = {}
    for key, (kind, default) in fields.items():
        field = key if name == "config" else f"{name}.{key}"
        value = raw.get(key)
        if isinstance(kind, dict):
            nested = value is not None or default is not None
            resolved[key] = _section(raw.get(key, default), field, kind) if nested else None
        elif value is None and (key not in raw or kind not in (None, "boolean")):
            _require(default is not _REQUIRED, field, "is required")
            resolved[key] = default
        else:
            resolved[key] = _value(kind, value, field)
    return resolved


@contextmanager
def _owned_by(section: str):
    """Report a model constructor's ValueError, worded "<field> <rule>", as
    a ConfigError on the field of ``section``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def _resolved(section: str, key: Optional[str] = None) -> property:
    """A read-only RunConfig attribute: a resolved section or one of its fields."""
    if key is None:
        return property(lambda self: self.sections[section])
    return property(lambda self: self.sections[section][key])


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (all defaults filled in).

    ``sections`` holds the resolved config, section by section, as
    :meth:`to_dict` echoes it; the model objects are built from it.
    """

    model: ModelConfig
    packet: GaussianPacket
    integrator: IntegratorConfig
    sections: dict

    energy = _resolved("packet", "energy")
    margin = _resolved("classify", "margin")
    sweep = _resolved("sweep")
    surface = _resolved("surface")
    output_path = _resolved("output", "path")

    def to_dict(self) -> dict:
        return copy.deepcopy(self.sections)


def build_config(raw: dict, order_override: Optional[int] = None) -> RunConfig:
    """Validate a raw (parsed JSON) mapping and resolve every default.

    ``_SCHEMA`` checks keys and types; the range rules of the model objects
    live in their constructors and ``initial_moments`` (moment overflow),
    the two default lengths in ``resolve_escape_radius`` and
    ``resolve_margin``. Here are only the rules no model function owns.
    """
    _require(isinstance(raw, dict), "config root", "must be an object")
    sec = _section(raw, "config", _SCHEMA)
    m, pk = sec["model"], sec["packet"]
    if order_override is not None:
        m["order"] = order_override
    with _owned_by("model"):
        potential = BarrierPotential(alpha=m["alpha"], a=m["a"], n=m["n"])
        model = ModelConfig(potential=potential, mass=m["mass"], hbar=m["hbar"], order=m["order"])

    q0, p0, energy, mass = pk["q0"], pk["p0"], pk["energy"], m["mass"]
    energy_given = energy is not None
    _require(p0 is not None or energy_given, "packet.p0", "or packet.energy is required")
    # A resolved p0 or energy obeys the rule of a given one: it must be finite.
    if p0 is None:
        kinetic = energy - potential(q0)
        _require(
            kinetic > 0, "packet.energy",
            "must exceed the potential at q0 to place an inbound packet",
        )
        p0 = _value("number", math.copysign(math.sqrt(2 * mass * kinetic), -q0), "packet.p0")
    else:
        implied = p0 * p0 / (2 * mass) + potential(q0)
        # Both present (e.g. a resolved config being re-parsed): they must agree.
        _require(
            energy is None or abs(implied - energy) <= 1e-9 * max(1.0, abs(energy)),
            "packet.energy",
            f"is inconsistent with packet.p0 (p0 implies energy {implied!r})",
        )
        energy = _value("number", implied, "packet.energy") if energy is None else energy
    pk["p0"], pk["energy"] = p0, energy
    with _owned_by("packet"):
        potential.energy_ratio(energy)
        packet = GaussianPacket(q0=q0, p0=p0, sigma0=pk["sigma0"],
                                third_moment_convention=pk["third_moment_convention"])
        initial_moments(packet, model)

    ig, cl = sec["integrator"], sec["classify"]
    ig["escape_radius"] = resolve_escape_radius(ig["escape_radius"], potential.a)
    with _owned_by("integrator"):
        integrator = IntegratorConfig(**ig)
    with _owned_by("classify"):
        cl["margin"] = resolve_margin(cl["margin"], potential.a)

    sweep = sec["sweep"]
    if sweep is not None:
        _require(
            sweep["parameter"] in SWEEP_PARAMETERS,
            "sweep.parameter", f"must be one of {list(SWEEP_PARAMETERS)}",
        )
        # A q0 sweep at fixed energy re-derives p0 per point (an inbound family
        # with one incident energy); at fixed p0 the energy varies instead.
        if sweep["fixed_energy"] is None:
            sweep["fixed_energy"] = energy_given

    path = sec["output"]["path"]
    _require(isinstance(path, str) and path != "", "output.path", "must be a non-empty string")
    return RunConfig(model=model, packet=packet, integrator=integrator, sections=sec)


def load_config(path: str, order_override: Optional[int] = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return build_config(raw, order_override)


def _atomic_write(path: Path, chunks) -> None:
    """Write the byte chunks of an iterable to ``path`` as they come,
    through a ``.tmp`` file and a rename. On any exception the ``.tmp`` is
    removed and the exception raised again; ``path`` keeps what it held."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=True) + "\n").encode()


def _trajectory(cfg: RunConfig):
    """Integrate the configured packet, marking its classical return points
    (none at or above the barrier top)."""
    init = initial_moments(cfg.packet, cfg.model)
    return integrate(init, cfg.model, cfg.integrator,
                     cfg.model.potential.turning_points(cfg.energy))


def _derived_block(cfg: RunConfig) -> dict:
    pot = cfg.model.potential
    marks = pot.turning_points(cfg.energy)
    return {
        "barrier_height": pot.height,
        "energy": cfg.energy,
        "energy_ratio": pot.energy_ratio(cfg.energy),
        "turning_point": marks[1] if marks else None,
        "p0": cfg.packet.p0,
        "escape_radius": cfg.integrator.escape_radius,
        "margin": cfg.margin,
    }


def _start(fn, *args):
    """Fork a helper that writes ``fn(*args)``, pickled, to a pipe and leaves
    through ``os._exit``, with status 0 only after its last byte; return
    the ``(pid, pipe)`` that ``_finish`` takes."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)  # so the pipe ends when the helper does
        return pid, open(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        data = memoryview(pickle.dumps(fn(*args)))
        while data:
            data = data[os.write(write_fd, data):]
        status = 0
    finally:
        os._exit(status)


def _finish(helper):
    """Read a helper's pipe to its end, close it and reap the helper; return
    its result, or None for any exit status but 0. Reading, not closing,
    is what releases a helper blocked on a full pipe: every helper forked
    after it holds a copy of that pipe's read end."""
    pid, pipe = helper
    with pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    return pickle.loads(data) if status == 0 else None


def _csv_lines(rows) -> str:
    """The CSV lines of ``rows``, each ending in a newline."""
    return "".join([",".join(map(str, row)) + "\n" for row in rows])


def _orjson_rows(block: np.ndarray) -> memoryview:
    """The CSV lines of a 2-D float64 array whose cells orjson writes as
    ``repr`` does: one ``dumps`` of the cells in row order, with every
    row's last comma and the closing ``]`` set to a newline (a float has no
    comma) and the opening ``[`` left out."""
    text = bytearray(orjson.dumps(block.ravel(), option=orjson.OPT_SERIALIZE_NUMPY))
    chars = np.frombuffer(text, np.uint8)
    n_cols = block.shape[1]
    chars[np.flatnonzero(chars == ord(","))[n_cols - 1::n_cols]] = ord("\n")
    chars[-1] = ord("\n")
    return memoryview(text)[1:]


def _float_lines(*columns: np.ndarray):
    """Yield ``_csv_lines(np.hstack(columns).tolist())`` of 2-D float64
    arrays of equal length, encoded, byte for byte, in chunks of at most one
    :func:`integrator.row_blocks` block each: a block's cells are copied from
    ``columns`` when it is formatted, so no copy of the whole table is made.

    orjson (Ryū) writes the shortest round-trip digits, as ``repr`` does,
    and ``repr``'s notation except for a magnitude in [1e-9, 1e-4)
    (``0.00001``, ``1e-9``), a magnitude from 1e16 up (``1e16``) and a nan
    or an infinity (``null``). A row with a cell in [5e-10, 2e-4), at 5e15
    or above, or not finite, so within a factor 2 of those ranges, goes
    through ``_csv_lines``; each run of the other rows in a block is one
    orjson call."""
    n_rows, width = len(columns[0]), sum(c.shape[1] for c in columns)
    if n_rows * width == 0:
        yield _csv_lines(np.hstack(columns).tolist()).encode()
        return
    for rows in row_blocks(n_rows, width):
        block = np.hstack([c[rows] for c in columns])
        mag = np.abs(block)
        flagged = ((mag >= 5e-10) & (mag < 2e-4) | ~(mag < 5e15)).any(axis=1)
        cuts = [0, *np.flatnonzero(flagged[1:] != flagged[:-1]) + 1, len(block)]
        for lo, hi in zip(cuts, cuts[1:]):
            yield (_csv_lines(block[lo:hi].tolist()).encode() if flagged[lo]
                   else _orjson_rows(block[lo:hi]))


def _write(cfg: RunConfig, out_path: Optional[str], kind: str, columns, lines,
           **fields) -> dict:
    """Write ``<out>.csv`` (``out_path``, else ``output.path``), the header
    ``columns`` and then the byte chunks of the iterable ``lines``, and
    ``<out>.summary.json``; return the summary."""
    out = Path(out_path if out_path is not None else cfg.output_path)
    header = (",".join(columns) + "\n").encode()
    _atomic_write(Path(f"{out}.csv"), itertools.chain([header], lines))
    summary = {
        "kind": kind,
        "config": cfg.to_dict(),
        "derived": _derived_block(cfg),
        "columns": columns,
        **fields,
    }
    _atomic_write(Path(f"{out}.summary.json"), [_json_bytes(summary)])
    return summary


def _warnings(traj) -> list:
    """What ``main`` prints as ``warning:`` lines about a run: one line when
    the run stopped where ``G20*G02 - G11**2`` turned negative, which no
    state can have, naming the stop time."""
    if traj.termination is not Termination.CONSTRAINT_VIOLATED:
        return []
    # The stop event is the run's last event.
    return [
        "G20*G02 - G11**2 went negative, which no state can have: "
        f"stopped at t = {traj.events[-1].t!r} (constraint_violated)"
    ]


def run_simulate(cfg: RunConfig, out_path: Optional[str] = None) -> dict:
    """Integrate one trajectory; write `<out>.csv` and `<out>.summary.json`.

    Returns the summary dict (also written to the sidecar), with the run's
    ``_warnings`` when there are any.
    """
    traj = _trajectory(cfg)
    outcome = classify(traj, cfg.energy, cfg.margin)
    warnings = _warnings(traj)
    columns = ["t", "q", "p"]
    series = [traj.times[:, None], traj.states]
    if cfg.model.order >= 2:
        columns += [*moment_labels(cfg.model.order), "h_q", "v_eff", "uncertainty_residual"]
        series += [traj.h_q[:, None], traj.v_eff[:, None], traj.uncertainty[:, None]]
    return _write(
        cfg, out_path, "simulate", columns, _float_lines(*series),
        n_samples=len(traj.times),
        termination=traj.termination.value,
        energy_drift=traj.energy_drift,
        outcome={"tag": outcome.tag.value, **asdict(outcome.evidence)},
        stats=traj.stats,
        events=[
            {"t": e.t, "kind": e.kind, "direction": e.direction, "marker": e.marker}
            for e in traj.events
        ],
        **({"warnings": warnings} if warnings else {}),
    )


SWEEP_COLUMNS = [
    "index",
    "value",
    "outcome",
    "barrier_entry_time",
    "barrier_exit_time",
    "barrier_exit_side",
    "sign_changes_inside",
    "final_q",
    "final_p",
    "energy_drift",
    "termination",
]


def _sweep_point(args) -> dict:
    """Run one sweep point, a ``(resolved config dict, index, value)`` job;
    return its cells, keyed by ``SWEEP_COLUMNS`` in their order, with
    ``""`` for a missing value. A point whose config is invalid
    (``build_config`` also rejects a packet energy <= 0) gives an ``error:``
    row: undetermined, no sign change, the error as its termination and no
    other value. Any other exception propagates."""
    raw, index, value = args
    cfg = build_config(raw)
    parameter = cfg.sweep["parameter"]
    # The resolved packet holds both p0 and energy; drop the one the new
    # point re-derives.
    packet_raw = {**raw["packet"], parameter: value}
    if parameter == "p0" or (parameter == "q0" and not cfg.sweep["fixed_energy"]):
        del packet_raw["energy"]
    elif parameter == "q0":
        del packet_raw["p0"]
    cells = {"index": index, "value": value, "outcome": Tag.UNDETERMINED.value,
             "sign_changes_inside": 0}
    try:
        point = build_config({**raw, "packet": packet_raw})
    except ConfigError as exc:
        cells["termination"] = f"error: {exc}".replace(",", ";").replace("\n", " ")
    else:
        traj = _trajectory(point)
        outcome = classify(traj, point.energy, point.margin)
        cells.update(
            asdict(outcome.evidence),
            outcome=outcome.tag.value,
            energy_drift=traj.energy_drift,
            termination=traj.termination.value,
        )
    return {column: "" if cells.get(column) is None else cells[column]
            for column in SWEEP_COLUMNS}


def _stride(jobs, k: int, n: int) -> list:
    """Run sweep points ``k``, ``k + n``, ``k + 2n``, ...; return their
    ``(index, row)`` pairs."""
    return [(i, _sweep_point(jobs[i])) for i in range(k, len(jobs), n)]


def run_sweep(cfg: RunConfig, out_path: Optional[str] = None, workers: int = 1) -> dict:
    """Run every sweep point; write the per-point outcome table and summary.

    Points run in n processes: ``workers``, at least 1, capped at the
    number of points and the host's CPUs, or 1 where ``os.fork`` is
    missing or the CPU count unknown. Process k of n runs points k,
    k + n, k + 2n, ... (``_stride``): this one runs stride 0 beside n - 1
    helpers (``_start``), each of which sends back all its rows at once.
    Then this process runs every point no helper returned, so a failed
    helper's points are redone here and a defect is raised here, as a
    serial sweep (n = 1, no helper) raises it. A defect raised only here
    is raised once every helper has finished its stride. Rows are placed
    by index, so the table is the serial one byte for byte.
    """
    if cfg.sweep is None:
        raise ConfigError("sweep section is required for the sweep command")
    raw = cfg.to_dict()
    values = np.linspace(cfg.sweep["start"], cfg.sweep["stop"], cfg.sweep["count"])
    jobs = [(raw, i, float(v)) for i, v in enumerate(values)]
    n = max(1, min(workers, len(jobs), os.cpu_count() or 1)) if hasattr(os, "fork") else 1
    helpers = []
    try:
        for k in range(1, n):
            helpers.append(_start(_stride, jobs, k, n))
        done = dict(_stride(jobs, 0, n))
    finally:
        returned = [_finish(helper) for helper in helpers]
    for pairs in returned:
        done.update(pairs or ())
    rows = [done[i] if i in done else _sweep_point(job) for i, job in enumerate(jobs)]
    cells = [[row[column] for column in SWEEP_COLUMNS] for row in rows]
    return _write(
        cfg, out_path, "sweep", SWEEP_COLUMNS, [_csv_lines(cells).encode()],
        n_rows=len(rows),
        outcome_counts=Counter(row["outcome"] for row in rows),
    )


def run_surface(cfg: RunConfig, out_path: Optional[str] = None) -> dict:
    """Integrate the reference trajectory, then tabulate the effective
    potential over the configured (t, q) grid with moments frozen per time
    sample. The summary gets the reference run's ``stats``, as a simulate
    summary does, and its ``_warnings`` when there are any."""
    if cfg.surface is None:
        raise ConfigError("surface section is required for the surface command")
    traj = _trajectory(cfg)

    qg = cfg.surface["q"]
    tg = cfg.surface["t"]
    q_values = np.linspace(qg["start"], qg["stop"], qg["count"])
    t_requested = np.linspace(tg["start"], tg["stop"], tg["count"])
    sample_idx = np.unique([np.argmin(np.abs(traj.times - tr)) for tr in t_requested])

    # One (t, q, v_eff) block of rows per time section.
    table = np.empty((len(sample_idx), len(q_values), 3))
    for block, i in zip(table, sample_idx):
        state = traj.state(int(i))
        block[:, 0] = state.t
        block[:, 1] = q_values
        block[:, 2] = effective_potential(q_values, state, cfg.model)
    table = table.reshape(-1, 3)
    warnings = _warnings(traj)
    return _write(
        cfg, out_path, "surface", ["t", "q", "v_eff"], _float_lines(table),
        n_rows=len(table),
        n_time_sections=len(sample_idx),
        termination=traj.termination.value,
        reference_energy_drift=traj.energy_drift,
        stats=traj.stats,
        **({"warnings": warnings} if warnings else {}),
    )


# ---------------------------------------------------------------------------
# Algebra self-check


def run_check_algebra(out_path: Optional[str] = None) -> tuple[int, str]:
    """Regenerate the consistency report (the order-2 and order-3 checks and
    the structural properties) and compare against the packaged golden copy.
    Returns (exit_code, report_text); 3 on mismatch."""
    reports = [moment_algebra.verify_eom_consistency(order) for order in (2, 3)]
    properties = moment_algebra.property_lines()
    parts = ["moment bracket self-check", ""]
    for report in reports:
        parts += [report.to_text(), ""]
    parts.append("structural properties")
    parts += ["  " + line for line in properties]
    parts += ["", "notes"]
    parts += ["  - " + note for note in reports[0].notes]
    text = "\n".join(parts) + "\n"
    if out_path is not None:
        out = Path(out_path)
        _atomic_write(Path(f"{out}.txt"), [text.encode()])
        data = {
            "kind": "check-algebra",
            "orders": [report.to_dict() for report in reports],
            "properties": properties,
        }
        _atomic_write(Path(f"{out}.json"), [_json_bytes(data)])
    golden = resources.files("momentous").joinpath("data/algebra_report.txt")
    return (0 if text == golden.read_text(encoding="utf-8") else 3), text


# ---------------------------------------------------------------------------
# Command line


class _Parser(argparse.ArgumentParser):
    """Exits 1, the configuration-error code, on a usage error, with
    argparse's message: its own code 2 means a step failure here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="momentous",
        description="semiclassical moment-dynamics runs for a smooth barrier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON run config")
        cmd.add_argument("--out", default=None, help="output path stem (overrides output.path)")
        cmd.add_argument("--order", type=int, default=None, help="override the truncation order")
        return cmd

    add_run_command("simulate", "integrate a single trajectory")
    sweep_cmd = add_run_command("sweep", "classify a family of trajectories")
    sweep_cmd.add_argument(
        "--workers", type=int, default=1,
        help="processes for sweep points, this one included (default 1)",
    )
    add_run_command("surface", "sample the effective potential over (t, q)")
    check = sub.add_parser("check-algebra", help="moment bracket self-check")
    check.add_argument("--out", default=None, help="output path stem for report files")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check-algebra":
            code, text = run_check_algebra(args.out)
            if args.out is None:
                sys.stdout.write(text)
            if code != 0:
                print("check-algebra: report differs from the golden copy",
                      file=sys.stderr)
            return code

        cfg = load_config(args.config, args.order)
        if args.command == "simulate":
            summary = run_simulate(cfg, args.out)
        elif args.command == "sweep":
            summary = run_sweep(cfg, args.out, workers=max(1, args.workers))
        else:
            summary = run_surface(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    for warning in summary.get("warnings", ()):
        print(f"warning: {warning}", file=sys.stderr)
    if summary.get("termination") == Termination.STEP_FAILURE.value:
        cause = summary["stats"]["failure"]
        print(f"integration failed: step failure ({cause}); partial output written",
              file=sys.stderr)
        return 2
    return 0


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
