"""Traced runs: time calls into each layer from outside the program.

The tracer replaces public names where their callers look them up (for
example ``momentous.cli.integrate``, which ``run_simulate`` and the sweep
worker call), so the program itself is unchanged. Calls at run and
trajectory level become spans; the ~10^5-call leaves (RHS, jet, effective
Hamiltonian/potential, config building) only add to counters. Self time is
a call's duration minus the time of the traced calls nested in it. A name
that no longer exists is reported as an absent layer, not an error.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager

# (layer name, module, attribute, kind). Kinds: "span" records every call;
# "leaf" only counts; "factory" wraps the callable that the call returns
# as a leaf. One layer may be looked up in several places.
TARGETS = (
    ("cli.run_sweep", "momentous.cli", "run_sweep", "span"),
    ("cli.run_simulate", "momentous.cli", "run_simulate", "span"),
    ("cli.run_surface", "momentous.cli", "run_surface", "span"),
    ("moment_algebra.check_algebra", "momentous.cli", "run_check_algebra", "span"),
    ("integrator.integrate", "momentous.cli", "integrate", "span"),
    ("classify.classify", "momentous.cli", "classify", "span"),
    ("cli.build_config", "momentous.cli", "build_config", "leaf"),
    ("dynamics.rhs", "momentous.integrator", "make_rhs", "factory"),
    ("dynamics.effective_hamiltonian", "momentous.integrator",
     "effective_hamiltonian", "leaf"),
    ("dynamics.effective_potential", "momentous.integrator",
     "effective_potential", "leaf"),
    ("dynamics.effective_potential", "momentous.cli", "effective_potential", "leaf"),
    ("potential.derivatives", "momentous.potential",
     "BarrierPotential.derivatives", "leaf"),
)

TRAJECTORY_STATS = ("n_steps", "n_rejected", "n_rhs")


def _resolve(module: str, attribute: str):
    """(owner, name, current value), or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name, getattr(owner, name)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.stack: list[list] = []  # open calls: [nested seconds, span id]
        self.totals: dict[str, list] = {}  # layer -> [calls, seconds, self seconds]
        self.spans: list[dict] = []
        self.absent: list[str] = []

    def _timed(self, layer: str, fn, span: bool, after=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        totals = self.totals.setdefault(layer, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def call(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            record = None
            if span:
                record = {"id": len(spans), "parent": parent, "name": layer,
                          "run": len(spans) if parent is None else spans[parent]["run"]}
                spans.append(record)
            frame = [0.0, record["id"] if span else parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if record is not None:
                    record.update(start=start, end=end, self=duration - frame[0])
            if after is not None:
                after(record, result)
            return result

        return call

    def _factory(self, layer: str, make):
        @functools.wraps(make)
        def call(*args, **kwargs):
            return self._timed(layer, make(*args, **kwargs), span=False)

        return call

    @staticmethod
    def _trajectory(record, traj) -> None:
        stats = getattr(traj, "stats", None) or {}
        for key in TRAJECTORY_STATS:
            record[key] = stats.get(key, 0)
        record["samples"] = len(getattr(traj, "times", ()))
        record["events"] = len(getattr(traj, "events", ()))

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        restore = []
        try:
            for layer, module, attribute, kind in TARGETS:
                found = _resolve(module, attribute)
                if found is None:
                    self.absent.append(f"{module}.{attribute}")
                    continue
                owner, name, fn = found
                if kind == "factory":
                    wrapped = self._factory(layer, fn)
                else:
                    after = self._trajectory if layer == "integrator.integrate" else None
                    wrapped = self._timed(layer, fn, span=kind == "span", after=after)
                restore.append((owner, name, fn))
                setattr(owner, name, wrapped)
            yield self
        finally:
            for owner, name, fn in reversed(restore):
                setattr(owner, name, fn)

    def to_dict(self, label: str) -> dict:
        return {"label": label, "absent": self.absent, "totals": self.totals,
                "spans": self.spans}


def _ms(seconds: float) -> float:
    return seconds * 1e3


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    out: dict[str, tuple[float, str]] = {}

    def total(layer: str) -> list:
        return tracer.totals.get(layer, [0, 0.0, 0.0])

    for layer in ("potential.derivatives", "dynamics.rhs",
                  "dynamics.effective_hamiltonian", "dynamics.effective_potential",
                  "integrator.integrate", "classify.classify", "cli.build_config"):
        calls, _, self_s = total(layer)
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_ms"] = (_ms(self_s), "ms")
    for layer in ("cli.run_sweep", "cli.run_simulate", "cli.run_surface"):
        out[f"{layer}.self_ms"] = (_ms(total(layer)[2]), "ms")
    out["moment_algebra.check_algebra_ms"] = (
        _ms(total("moment_algebra.check_algebra")[1]), "ms")

    trajectories = [s for s in tracer.spans if s["name"] == "integrator.integrate"]
    point_ms = sorted(_ms(s["end"] - s["start"]) for s in trajectories)
    if len(point_ms) >= 2:
        deciles = statistics.quantiles(point_ms, n=10, method="inclusive")
        p50, p90 = statistics.median(point_ms), deciles[8]
    else:
        p50 = p90 = point_ms[0] if point_ms else 0.0
    out["integrator.point_ms.p50"] = (p50, "ms")
    out["integrator.point_ms.p90"] = (p90, "ms")
    out["integrator.point_ms.max"] = (point_ms[-1] if point_ms else 0.0, "ms")

    steps = sum(s.get("n_steps", 0) for s in trajectories)
    rejected = sum(s.get("n_rejected", 0) for s in trajectories)
    rhs = sum(s.get("n_rhs", 0) for s in trajectories)
    samples = sum(s.get("samples", 0) for s in trajectories)
    # One accepted step: the integrator's own work plus the RHS calls it makes.
    step_s = total("integrator.integrate")[2] + total("dynamics.rhs")[1]
    out["integrator.step_us"] = (step_s * 1e6 / steps if steps else 0.0, "us")
    out["integrator.steps"] = (steps, "count")
    out["integrator.rejected"] = (rejected, "count")
    out["integrator.accept_ratio"] = (
        steps / (steps + rejected) if steps + rejected else 0.0, "fraction")
    out["integrator.rhs_per_step"] = (rhs / steps if steps else 0.0, "count")
    out["integrator.samples"] = (samples, "count")
    out["integrator.samples_per_step"] = (samples / steps if steps else 0.0, "count")
    out["integrator.events"] = (sum(s.get("events", 0) for s in trajectories), "count")
    return out
