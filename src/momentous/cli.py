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
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import moment_algebra
from .classify import Outcome, Tag, classify
from .dynamics import ModelConfig, effective_potential, moment_labels
from .integrator import IntegratorConfig, Termination, integrate
from .packet import (
    THIRD_MOMENT_CONVENTIONS,
    GaussianPacket,
    InvalidOrder,
    initial_moments,
)
from .potential import BarrierPotential, InvalidEnergy, NoTurningPoint

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


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{field} {message}")


def _number(raw: dict, section: str, key: str, default=None, required=False):
    if key not in raw or raw[key] is None:
        if required:
            raise ConfigError(f"{section}.{key} is required")
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number")
    return float(value)


def _integer(raw: dict, section: str, key: str, default=None, required=False):
    if key not in raw or raw[key] is None:
        if required:
            raise ConfigError(f"{section}.{key} is required")
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key} must be an integer")
    return value


def _check_keys(raw: dict, section: str, allowed: Sequence[str]) -> None:
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"{section}.{key} is not a recognized field")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (all defaults filled in)."""

    model: ModelConfig
    packet: GaussianPacket
    integrator: IntegratorConfig
    third_moment_convention: str
    energy: float
    margin: float
    sweep: Optional[dict]
    surface: Optional[dict]
    output_path: str
    output_format: str

    def to_dict(self) -> dict:
        pot = self.model.potential
        return {
            "model": {
                "alpha": pot.alpha,
                "a": pot.a,
                "n": pot.n,
                "mass": self.model.mass,
                "hbar": self.model.hbar,
                "order": self.model.order,
                "veff_third_moment": self.model.veff_third_moment,
            },
            "packet": {
                "q0": self.packet.q0,
                "p0": self.packet.p0,
                "energy": self.energy,
                "sigma0": self.packet.sigma0,
                "third_moment_convention": self.third_moment_convention,
            },
            "integrator": {
                "rtol": self.integrator.rtol,
                "atol": self.integrator.atol,
                "t_max": self.integrator.t_max,
                "max_step": self.integrator.max_step,
                "escape_radius": self.integrator.escape_radius,
                "sample_dt": self.integrator.sample_dt,
            },
            "classify": {"margin": self.margin},
            "sweep": self.sweep,
            "surface": self.surface,
            "output": {"path": self.output_path, "format": self.output_format},
        }


def build_config(raw: dict, order_override: Optional[int] = None) -> RunConfig:
    """Validate a raw (parsed JSON) mapping and resolve every default."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _check_keys(
        raw, "config",
        ("model", "packet", "integrator", "classify", "sweep", "surface", "output"),
    )

    model_raw = raw.get("model", {})
    _check_keys(
        model_raw, "model",
        ("alpha", "a", "n", "mass", "hbar", "order", "veff_third_moment"),
    )
    alpha = _number(model_raw, "model", "alpha", 1.0)
    a = _number(model_raw, "model", "a", 1.0)
    n = _integer(model_raw, "model", "n", 4)
    mass = _number(model_raw, "model", "mass", 1.0)
    hbar = _number(model_raw, "model", "hbar", 1.0)
    order = _integer(model_raw, "model", "order", 2)
    if order_override is not None:
        order = order_override
    veff_third = model_raw.get("veff_third_moment", True)
    _require(isinstance(veff_third, bool), "model.veff_third_moment", "must be a boolean")
    _require(a is not None and a > 0, "model.a", "must be positive")
    _require(alpha is not None and alpha != 0, "model.alpha", "must be nonzero")
    _require(n is not None and n >= 1, "model.n", "must be a positive integer")
    _require(mass > 0, "model.mass", "must be positive")
    _require(hbar > 0, "model.hbar", "must be positive")
    _require(order in (0, 2, 3), "model.order", "must be 0, 2 or 3")
    potential = BarrierPotential(alpha=alpha, a=a, n=n)
    model = ModelConfig(
        potential=potential, mass=mass, hbar=hbar, order=order,
        veff_third_moment=veff_third,
    )

    packet_raw = raw.get("packet", {})
    _check_keys(
        packet_raw, "packet",
        ("q0", "p0", "energy", "sigma0", "third_moment_convention"),
    )
    q0 = _number(packet_raw, "packet", "q0", required=True)
    p0 = _number(packet_raw, "packet", "p0")
    energy = _number(packet_raw, "packet", "energy")
    sigma0 = _number(packet_raw, "packet", "sigma0", 0.5)
    convention = packet_raw.get("third_moment_convention", "skewed")
    _require(
        convention in THIRD_MOMENT_CONVENTIONS,
        "packet.third_moment_convention",
        f"must be one of {list(THIRD_MOMENT_CONVENTIONS)}",
    )
    _require(sigma0 > 0, "packet.sigma0", "must be positive")
    _require(
        p0 is not None or energy is not None,
        "packet.p0",
        "or packet.energy is required",
    )
    if p0 is None:
        kinetic = energy - potential(q0)
        _require(
            kinetic > 0, "packet.energy",
            "must exceed the potential at q0 to place an inbound packet",
        )
        p0 = math.copysign(math.sqrt(2 * mass * kinetic), -q0)
    elif energy is None:
        energy = p0 * p0 / (2 * mass) + potential(q0)
    else:
        # Both present (e.g. a resolved config being re-parsed): they must agree.
        implied = p0 * p0 / (2 * mass) + potential(q0)
        _require(
            abs(implied - energy) <= 1e-9 * max(1.0, abs(energy)),
            "packet.energy",
            f"is inconsistent with packet.p0 (p0 implies energy {implied!r})",
        )
    packet = GaussianPacket(q0=q0, p0=p0, sigma0=sigma0, hbar=hbar)

    integ_raw = raw.get("integrator", {})
    _check_keys(
        integ_raw, "integrator",
        ("rtol", "atol", "t_max", "max_step", "escape_radius", "sample_dt"),
    )
    rtol = _number(integ_raw, "integrator", "rtol", 1e-10)
    atol = _number(integ_raw, "integrator", "atol", 1e-10)
    t_max = _number(integ_raw, "integrator", "t_max", 20.0)
    max_step = _number(integ_raw, "integrator", "max_step", 0.1)
    escape = _number(integ_raw, "integrator", "escape_radius", 10.0 * a)
    sample_dt = _number(integ_raw, "integrator", "sample_dt", 0.01)
    for name, value in (
        ("rtol", rtol), ("atol", atol), ("t_max", t_max),
        ("max_step", max_step), ("escape_radius", escape),
        ("sample_dt", sample_dt),
    ):
        _require(value > 0, f"integrator.{name}", "must be positive")
    integrator = IntegratorConfig(
        rtol=rtol, atol=atol, t_max=t_max, max_step=max_step,
        escape_radius=escape, sample_dt=sample_dt,
    )

    classify_raw = raw.get("classify", {})
    _check_keys(classify_raw, "classify", ("margin",))
    margin = _number(classify_raw, "classify", "margin", 0.05 * a)
    _require(margin >= 0, "classify.margin", "must be non-negative")

    sweep = raw.get("sweep")
    if sweep is not None:
        _check_keys(sweep, "sweep", ("parameter", "start", "stop", "count", "fixed_energy"))
        parameter = sweep.get("parameter")
        _require(
            parameter in SWEEP_PARAMETERS,
            "sweep.parameter", f"must be one of {list(SWEEP_PARAMETERS)}",
        )
        start = _number(sweep, "sweep", "start", required=True)
        stop = _number(sweep, "sweep", "stop", required=True)
        count = _integer(sweep, "sweep", "count", required=True)
        _require(count >= 1, "sweep.count", "must be at least 1")
        # A q0 sweep at fixed energy re-derives p0 per point (an inbound family
        # with one incident energy); at fixed p0 the energy varies instead.
        fixed_energy = sweep.get(
            "fixed_energy",
            "energy" in packet_raw and packet_raw["energy"] is not None,
        )
        _require(isinstance(fixed_energy, bool), "sweep.fixed_energy",
                 "must be a boolean")
        sweep = {
            "parameter": parameter,
            "start": start,
            "stop": stop,
            "count": count,
            "fixed_energy": fixed_energy,
        }
    surface = raw.get("surface")
    if surface is not None:
        _check_keys(surface, "surface", ("q", "t"))
        grids = {}
        for axis in ("q", "t"):
            axis_raw = surface.get(axis)
            _require(isinstance(axis_raw, dict), f"surface.{axis}", "must be an object")
            _check_keys(axis_raw, f"surface.{axis}", ("start", "stop", "count"))
            start = _number(axis_raw, f"surface.{axis}", "start", required=True)
            stop = _number(axis_raw, f"surface.{axis}", "stop", required=True)
            count = _integer(axis_raw, f"surface.{axis}", "count", required=True)
            _require(count >= 1, f"surface.{axis}.count", "must be at least 1")
            grids[axis] = {"start": start, "stop": stop, "count": count}
        surface = grids

    output_raw = raw.get("output", {})
    _check_keys(output_raw, "output", ("path", "format"))
    output_path = output_raw.get("path", "momentous_run")
    _require(isinstance(output_path, str) and output_path != "", "output.path",
             "must be a non-empty string")
    output_format = output_raw.get("format", "csv")
    _require(output_format == "csv", "output.format", "must be 'csv'")

    return RunConfig(
        model=model,
        packet=packet,
        integrator=integrator,
        third_moment_convention=convention,
        energy=energy,
        margin=margin,
        sweep=sweep,
        surface=surface,
        output_path=output_path,
        output_format=output_format,
    )


def load_config(path: str, order_override: Optional[int] = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return build_config(raw, order_override)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    return str(value)


def _csv(rows, header: Sequence[str]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=True) + "\n"


def _initial_state(cfg: RunConfig):
    from .dynamics import MomentState

    if cfg.model.order == 0:
        return MomentState(t=0.0, q=cfg.packet.q0, p=cfg.packet.p0, moments=())
    return initial_moments(cfg.packet, cfg.model.order, cfg.third_moment_convention)


def _marks(cfg: RunConfig):
    pot = cfg.model.potential
    if pot.energy_ratio(cfg.energy) > 1.0:
        return pot.turning_points(cfg.energy)
    return ()


def _derived_block(cfg: RunConfig) -> dict:
    pot = cfg.model.potential
    ratio = pot.energy_ratio(cfg.energy)
    turning = pot.turning_points(cfg.energy)[1] if ratio >= 1.0 else None
    return {
        "barrier_height": pot.height,
        "energy": cfg.energy,
        "energy_ratio": ratio,
        "turning_point": turning,
        "p0": cfg.packet.p0,
        "escape_radius": cfg.integrator.escape_radius,
        "margin": cfg.margin,
    }


def _outcome_block(outcome: Outcome) -> dict:
    ev = outcome.evidence
    return {
        "tag": outcome.tag.value,
        "barrier_entry_time": ev.barrier_entry_time,
        "barrier_exit_time": ev.barrier_exit_time,
        "barrier_exit_side": ev.barrier_exit_side,
        "sign_changes_inside": ev.sign_changes_inside,
        "final_q": ev.final_q,
        "final_p": ev.final_p,
        "time_horizon": ev.time_horizon,
        "reason": ev.reason,
    }


def _simulate_columns(order: int) -> list[str]:
    if order == 0:
        return ["t", "q", "p"]
    return ["t", "q", "p", *moment_labels(order), "h_q", "v_eff", "uncertainty_residual"]


def run_simulate(cfg: RunConfig, out_path: Optional[str] = None) -> dict:
    """Integrate one trajectory; write `<out>.csv` and `<out>.summary.json`.

    Returns the summary dict (also written to the sidecar).
    """
    out = Path(out_path if out_path is not None else cfg.output_path)
    traj = integrate(_initial_state(cfg), cfg.model, cfg.integrator, _marks(cfg))
    outcome = classify(traj, cfg.model.potential, cfg.energy, cfg.margin)

    columns = _simulate_columns(cfg.model.order)
    rows = []
    for i in range(len(traj.times)):
        row = [traj.times[i], traj.states[i, 0], traj.states[i, 1]]
        if cfg.model.order >= 2:
            row.extend(traj.states[i, 2:])
            row.extend((traj.h_q[i], traj.v_eff[i], traj.uncertainty[i]))
        rows.append(row)
    _atomic_write(Path(f"{out}.csv"), _csv(rows, columns))

    summary = {
        "kind": "simulate",
        "config": cfg.to_dict(),
        "derived": _derived_block(cfg),
        "columns": columns,
        "n_samples": len(traj.times),
        "termination": traj.termination.value,
        "energy_drift": traj.energy_drift,
        "outcome": _outcome_block(outcome),
        "stats": traj.stats,
        "events": [
            {"t": e.t, "kind": e.kind, "direction": e.direction, "marker": e.marker}
            for e in traj.events
        ],
    }
    _atomic_write(Path(f"{out}.summary.json"), _json_text(summary))
    return summary


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
    "constraint_violated",
    "termination",
]


def _sweep_point(args) -> list:
    """Worker: run one sweep point from a resolved config dict. Module-level
    for the process pool. A point whose config is invalid, or whose packet
    the physics rejects (InvalidEnergy, NoTurningPoint, InvalidOrder), gives
    an ``error:`` row; any other exception propagates."""
    raw, index, value = args
    cfg = build_config(raw)
    parameter = cfg.sweep["parameter"]
    packet_raw = dict(raw["packet"])
    if parameter == "q0":
        packet_raw["q0"] = value
        if cfg.sweep["fixed_energy"]:
            packet_raw["energy"] = cfg.energy
            packet_raw.pop("p0", None)
        else:
            packet_raw.pop("energy", None)
    elif parameter == "p0":
        packet_raw["p0"] = value
        packet_raw.pop("energy", None)
    else:
        packet_raw["sigma0"] = value
    point_raw = dict(raw)
    point_raw["packet"] = packet_raw
    try:
        point = build_config(point_raw)
        traj = integrate(
            _initial_state(point), point.model, point.integrator, _marks(point)
        )
        outcome = classify(traj, point.model.potential, point.energy, point.margin)
        ev = outcome.evidence
        return [
            index,
            value,
            outcome.tag.value,
            ev.barrier_entry_time,
            ev.barrier_exit_time,
            ev.barrier_exit_side,
            ev.sign_changes_inside,
            ev.final_q,
            ev.final_p,
            traj.energy_drift,
            traj.termination is Termination.CONSTRAINT_VIOLATED,
            traj.termination.value,
        ]
    except (ConfigError, InvalidEnergy, NoTurningPoint, InvalidOrder) as exc:
        reason = f"error: {exc}".replace(",", ";").replace("\n", " ")
        return [index, value, Tag.UNDETERMINED.value, None, None, None, 0,
                None, None, None, False, reason]


def run_sweep(cfg: RunConfig, out_path: Optional[str] = None, workers: int = 1) -> dict:
    """Run every sweep point (worker pool when ``workers > 1``); write the
    per-point outcome table and summary. Row order matches sweep order."""
    if cfg.sweep is None:
        raise ConfigError("sweep section is required for the sweep command")
    out = Path(out_path if out_path is not None else cfg.output_path)
    raw = cfg.to_dict()
    count = cfg.sweep["count"]
    if count == 1:
        values = [cfg.sweep["start"]]
    else:
        values = list(np.linspace(cfg.sweep["start"], cfg.sweep["stop"], count))
    jobs = [(raw, i, float(v)) for i, v in enumerate(values)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(job) for job in jobs]
    _atomic_write(Path(f"{out}.csv"), _csv(rows, SWEEP_COLUMNS))

    counts: dict[str, int] = {}
    for row in rows:
        counts[row[2]] = counts.get(row[2], 0) + 1
    summary = {
        "kind": "sweep",
        "config": cfg.to_dict(),
        "derived": _derived_block(cfg),
        "columns": SWEEP_COLUMNS,
        "n_rows": len(rows),
        "outcome_counts": dict(sorted(counts.items())),
    }
    _atomic_write(Path(f"{out}.summary.json"), _json_text(summary))
    return summary


def run_surface(cfg: RunConfig, out_path: Optional[str] = None) -> dict:
    """Integrate the reference trajectory, then tabulate the effective
    potential over the configured (t, q) grid with moments frozen per time
    sample."""
    if cfg.surface is None:
        raise ConfigError("surface section is required for the surface command")
    out = Path(out_path if out_path is not None else cfg.output_path)
    traj = integrate(_initial_state(cfg), cfg.model, cfg.integrator, _marks(cfg))

    qg = cfg.surface["q"]
    tg = cfg.surface["t"]
    q_values = np.linspace(qg["start"], qg["stop"], qg["count"])
    t_requested = np.linspace(tg["start"], tg["stop"], tg["count"])
    sample_idx = np.fromiter(
        (int(np.argmin(np.abs(traj.times - tr))) for tr in t_requested),
        dtype=int,
    )
    sample_idx = np.unique(sample_idx)

    rows = []
    for i in sample_idx:
        state = traj.state(int(i))
        section = effective_potential(q_values, state, cfg.model)
        rows.extend([state.t, q, v] for q, v in zip(q_values, section))
    columns = ["t", "q", "v_eff"]
    _atomic_write(Path(f"{out}.csv"), _csv(rows, columns))
    summary = {
        "kind": "surface",
        "config": cfg.to_dict(),
        "derived": _derived_block(cfg),
        "columns": columns,
        "n_rows": len(rows),
        "n_time_sections": int(len(sample_idx)),
        "termination": traj.termination.value,
        "reference_energy_drift": traj.energy_drift,
    }
    if traj.termination is Termination.STEP_FAILURE:
        summary["failure"] = traj.stats["failure"]
    _atomic_write(Path(f"{out}.summary.json"), _json_text(summary))
    return summary


# ---------------------------------------------------------------------------
# Algebra self-check


def _property_lines() -> list[str]:
    """Exhaustive structural checks of the bracket formula, summarized as
    stable text lines for the golden report."""
    pairs = 0
    anti_ok = True
    grading_ok = True
    indices = [
        (a, b)
        for a in range(5)
        for b in range(5)
        if 2 <= a + b <= 4
    ]
    for lhs in indices:
        for rhs in indices:
            left = moment_algebra.bracket_formula(lhs, rhs)
            right = moment_algebra.bracket_formula(rhs, lhs)
            if left != right.scaled(-1):
                anti_ok = False
            expected = lhs[0] + lhs[1] + rhs[0] + rhs[1] - 2
            for term, _ in left.items():
                total = sum(x + y for x, y in term.moments)
                if total != expected - 2 * term.hbar_power:
                    grading_ok = False
            pairs += 1
    k_ok = True
    k_count = 0
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    if min(a + c, b + d, a + b, c + d) > 1:
                        k_count += 1
                        if moment_algebra.k_coefficient(1, a, b, c, d) != b * c - a * d:
                            k_ok = False
    return [
        f"antisymmetry over {pairs} moment pairs (orders 2..4): "
        + ("PASS" if anti_ok else "FAIL"),
        f"hbar grading over {pairs} moment pairs (orders 2..4): "
        + ("PASS" if grading_ok else "FAIL"),
        f"first contraction weight equals b*c - a*d on {k_count} index tuples: "
        + ("PASS" if k_ok else "FAIL"),
    ]


def algebra_report_text() -> str:
    parts = ["moment bracket self-check", ""]
    for order in (2, 3):
        parts.append(moment_algebra.verify_eom_consistency(order).to_text())
        parts.append("")
    parts.append("structural properties")
    for line in _property_lines():
        parts.append("  " + line)
    parts.append("")
    parts.append("notes")
    for note in moment_algebra.verify_eom_consistency(2).notes:
        parts.append("  - " + note)
    return "\n".join(parts) + "\n"


def algebra_report_dict() -> dict:
    return {
        "kind": "check-algebra",
        "orders": [
            moment_algebra.verify_eom_consistency(order).to_dict()
            for order in (2, 3)
        ],
        "properties": _property_lines(),
    }


def _golden_text() -> str:
    return (
        resources.files("momentous")
        .joinpath("data/algebra_report.txt")
        .read_text(encoding="utf-8")
    )


def run_check_algebra(out_path: Optional[str] = None) -> tuple[int, str]:
    """Regenerate the consistency report and compare against the packaged
    golden copy. Returns (exit_code, report_text); 3 on mismatch."""
    text = algebra_report_text()
    if out_path is not None:
        out = Path(out_path)
        _atomic_write(Path(f"{out}.txt"), text)
        _atomic_write(Path(f"{out}.json"), _json_text(algebra_report_dict()))
    golden = _golden_text()
    return (0 if text == golden else 3), text


# ---------------------------------------------------------------------------
# Command line


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentous",
        description="semiclassical moment-dynamics runs for a smooth barrier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON run config")
        cmd.add_argument("--out", default=None, help="output path stem (overrides output.path)")
        cmd.add_argument(
            "--order", type=int, default=None, choices=(0, 2, 3),
            help="override the truncation order",
        )
        return cmd

    add_run_command("simulate", "integrate a single trajectory")
    add_run_command("classical", "integrate a single order-0 trajectory")
    sweep_cmd = add_run_command("sweep", "classify a family of trajectories")
    sweep_cmd.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for sweep points (default 1)",
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

        order_override = 0 if args.command == "classical" else args.order
        cfg = load_config(args.config, order_override)
        if args.command in ("simulate", "classical"):
            summary = run_simulate(cfg, args.out)
        elif args.command == "sweep":
            summary = run_sweep(cfg, args.out, workers=max(1, args.workers))
        else:
            summary = run_surface(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if summary.get("termination") == Termination.STEP_FAILURE.value:
        # simulate summaries keep the cause in their stats, surfaces at top level
        cause = summary["stats"]["failure"] if "stats" in summary else summary["failure"]
        print(f"integration failed: step failure ({cause}); partial output written",
              file=sys.stderr)
        return 2
    return 0


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
