import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import momentous.dynamics as dynamics
from conftest import rng
from momentous import BarrierPotential, GaussianPacket, ModelConfig, initial_moments
from momentous.cli import (
    SWEEP_COLUMNS,
    ConfigError,
    build_config,
    main,
    run_check_algebra,
    run_simulate,
    run_surface,
    run_sweep,
)
from momentous.integrator import BLOCK_CELLS
from momentous.moment_algebra import MomentPolynomial


def sweep_table(path):
    """The rows of a sweep CSV as mappings from header name to cell."""
    header, *lines = Path(path).read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def scenario_raw(**overrides):
    raw = {
        "model": {"alpha": 1.0, "a": 1.0, "n": 4, "order": 2},
        "packet": {"q0": -2.5, "energy": 0.98, "sigma0": 0.5},
        "integrator": {"t_max": 20.0},
        "output": {"path": "run"},
    }
    for key, value in overrides.items():
        raw[key] = value
    return raw


ALL_FIELDS = {
    "model": {"alpha": 1.5, "a": 1.2, "n": 3, "mass": 2.0, "hbar": 0.5, "order": 3},
    "packet": {"q0": -3.0, "energy": 0.6, "sigma0": 0.4, "third_moment_convention": "zero"},
    "integrator": {"rtol": 1e-9, "atol": 1e-8, "t_max": 5.0, "max_step": 0.05,
                   "escape_radius": 20.0, "sample_dt": 0.02},
    "classify": {"margin": 0.1},
    "sweep": {"parameter": "q0", "start": -3.5, "stop": -2.5, "count": 3, "fixed_energy": False},
    "surface": {"q": {"start": -2.0, "stop": 2.0, "count": 5},
                "t": {"start": 0.0, "stop": 1.0, "count": 2}},
    "output": {"path": "out/all"},
}

GRID = {"start": -1.0, "stop": 1.0, "count": 3}


@pytest.mark.parametrize(
    "raw",
    [
        scenario_raw(),
        scenario_raw(packet={"q0": -2.5, "p0": 1.2}),
        scenario_raw(sweep={"parameter": "q0", "start": -3.0, "stop": -2.0, "count": 3}),
        scenario_raw(surface={"q": GRID, "t": GRID}),
        ALL_FIELDS,
    ],
    ids=["energy", "p0", "sweep", "surface", "all_fields"],
)
def test_config_roundtrip_identical(raw):
    cfg = build_config(raw)
    echoed = cfg.to_dict()
    again = build_config(echoed)
    assert again.to_dict() == echoed


def test_config_defaults_resolved():
    cfg = build_config(scenario_raw())
    assert cfg.integrator.rtol == 1e-10
    assert cfg.integrator.escape_radius == 10.0
    assert cfg.margin == 0.05
    assert cfg.packet.p0 == pytest.approx(
        math.sqrt(2 * (0.98 - BarrierPotential()( -2.5))), rel=1e-15
    )
    assert cfg.energy == 0.98


DROP = object()


def message_ids(cases):
    """Each case's test id: its message as an identifier, unless the case is
    a ``pytest.param`` with an id of its own. Ids must be unique: a repeated
    message needs explicit ids, or pytest would number the repeats."""
    ids = [
        case.id if hasattr(case, "id") else re.sub(r"\W+", "_", case[1]).strip("_")
        for case in cases
    ]
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise ValueError(f"repeated test ids {repeated}: give the cases pytest.param ids")
    return ids


def faulty(section, **fields):
    """A valid config with sweep and surface and one field of one section set
    (DROP removes it)."""
    raw = scenario_raw(
        sweep={"parameter": "q0", "start": -3.0, "stop": -2.0, "count": 3},
        surface={"q": dict(GRID), "t": dict(GRID)},
    )
    target = raw
    for part in section.split("."):
        target = target.setdefault(part, {})
    for key, value in fields.items():
        if value is DROP:
            target.pop(key, None)
        else:
            target[key] = value
    return raw


# One fault per config, with the exact message it must produce.
FIELD_ERRORS = [
    ([1], "config root must be an object"),
    ({**scenario_raw(), "plot": {}}, "config.plot is not a recognized field"),
    (faulty("model", mass_=2), "model.mass_ is not a recognized field"),
    pytest.param(faulty("model", alpha="1"), "model.alpha must be a number",
                 id="model_alpha_must_be_a_number_not_a_string"),
    pytest.param(faulty("model", alpha=True), "model.alpha must be a number",
                 id="model_alpha_must_be_a_number_not_a_boolean"),
    (faulty("model", n=4.0), "model.n must be an integer"),
    (faulty("model", order=True), "model.order must be an integer"),
    # Settings of earlier releases that selected nothing.
    (faulty("model", veff_third_moment=True),
     "model.veff_third_moment is not a recognized field"),
    pytest.param(faulty("model", a=0.0), "model.a must be positive",
                 id="model_a_must_be_positive_not_zero"),
    pytest.param(faulty("model", a=-1.0), "model.a must be positive",
                 id="model_a_must_be_positive_not_negative"),
    (faulty("model", alpha=0), "model.alpha must be nonzero"),
    (faulty("model", n=0), "model.n must be a positive integer"),
    (faulty("model", mass=0.0), "model.mass must be positive"),
    (faulty("model", hbar=-1.0), "model.hbar must be positive"),
    (faulty("model", order=1), "model.order must be 0, 2 or 3"),
    (faulty("packet", width=1.0), "packet.width is not a recognized field"),
    pytest.param(faulty("packet", q0=DROP), "packet.q0 is required",
                 id="packet_q0_is_required_when_absent"),
    pytest.param(faulty("packet", q0=None), "packet.q0 is required",
                 id="packet_q0_is_required_when_null"),
    (faulty("packet", q0="-2.5"), "packet.q0 must be a number"),
    (faulty("packet", sigma0=0.0), "packet.sigma0 must be positive"),
    (faulty("packet", energy=DROP), "packet.p0 or packet.energy is required"),
    (faulty("packet", energy=1e-4),
     "packet.energy must exceed the potential at q0 to place an inbound packet"),
    (faulty("packet", p0=1.0),
     "packet.energy is inconsistent with packet.p0 (p0 implies energy 0.500654930784561)"),
    # Finite given values whose resolved partner overflows.
    (scenario_raw(packet={"q0": -2.5, "p0": 1e200}), "packet.energy must be finite"),
    (scenario_raw(model={"mass": 10}, packet={"q0": -2.5, "energy": 1e308}),
     "packet.p0 must be finite"),
    (faulty("packet", third_moment_convention="odd"),
     "packet.third_moment_convention must be one of ['skewed', 'zero']"),
    # An order-0 run forms no moments, but its convention is checked all the same.
    pytest.param({**faulty("packet", third_moment_convention="odd"), "model": {"order": 0}},
                 "packet.third_moment_convention must be one of ['skewed', 'zero']",
                 id="packet_third_moment_convention_is_checked_at_order_0"),
    (faulty("integrator", order=5), "integrator.order is not a recognized field"),
    (faulty("integrator", rtol=0.0), "integrator.rtol must be positive"),
    (faulty("integrator", atol=-1e-10), "integrator.atol must be positive"),
    (faulty("integrator", t_max=0), "integrator.t_max must be positive"),
    (faulty("integrator", max_step=-0.1), "integrator.max_step must be positive"),
    (faulty("integrator", escape_radius=0.0), "integrator.escape_radius must be positive"),
    (faulty("integrator", sample_dt=0.0), "integrator.sample_dt must be positive"),
    (faulty("integrator", sample_dt=[0.1]), "integrator.sample_dt must be a number"),
    (faulty("classify", margin=-0.01), "classify.margin must be non-negative"),
    (faulty("classify", width=1.0), "classify.width is not a recognized field"),
    pytest.param(faulty("sweep", parameter="hbar"),
                 "sweep.parameter must be one of ['q0', 'p0', 'sigma0']",
                 id="sweep_parameter_must_be_one_of_q0_p0_sigma0_not_hbar"),
    pytest.param(faulty("sweep", parameter=DROP),
                 "sweep.parameter must be one of ['q0', 'p0', 'sigma0']",
                 id="sweep_parameter_must_be_one_of_q0_p0_sigma0_when_absent"),
    (faulty("sweep", start=DROP), "sweep.start is required"),
    (faulty("sweep", stop=None), "sweep.stop is required"),
    (faulty("sweep", count=2.5), "sweep.count must be an integer"),
    (faulty("sweep", count=0), "sweep.count must be at least 1"),
    (faulty("sweep", fixed_energy="yes"), "sweep.fixed_energy must be a boolean"),
    (faulty("sweep", step=0.1), "sweep.step is not a recognized field"),
    (faulty("surface", q=DROP), "surface.q must be an object"),
    (faulty("surface", t=[0.0, 1.0]), "surface.t must be an object"),
    (faulty("surface", r=GRID), "surface.r is not a recognized field"),
    (faulty("surface.q", stop=DROP), "surface.q.stop is required"),
    (faulty("surface.t", count=0), "surface.t.count must be at least 1"),
    (faulty("surface.t", count="3"), "surface.t.count must be an integer"),
    (faulty("surface.q", step=0.1), "surface.q.step is not a recognized field"),
    pytest.param(faulty("output", path=""), "output.path must be a non-empty string",
                 id="output_path_must_be_a_non_empty_string_not_empty"),
    pytest.param(faulty("output", path=3), "output.path must be a non-empty string",
                 id="output_path_must_be_a_non_empty_string_not_a_string"),
    (faulty("output", format="csv"), "output.format is not a recognized field"),
    (faulty("output", mode="w"), "output.mode is not a recognized field"),
]


@pytest.mark.parametrize("raw, message", FIELD_ERRORS, ids=message_ids(FIELD_ERRORS))
def test_config_field_errors(raw, message):
    with pytest.raises(ConfigError) as excinfo:
        build_config(raw)
    assert str(excinfo.value) == message


BIG_INTEGER = "1" + "0" * 400  # a JSON integer beyond the float range

REJECTED = [
    ('{"model": null, "packet": {"q0": -2.5, "p0": 1.0}}', "model must be an object"),
    ('{"output": null, "packet": {"q0": -2.5, "p0": 1.0}}', "output must be an object"),
    ('{"sweep": [1], "packet": {"q0": -2.5, "p0": 1.0}}', "sweep must be an object"),
    ('{"packet": {"q0": NaN, "p0": 1.0}}', "packet.q0 must be finite"),
    ('{"packet": {"q0": -2.5, "p0": NaN}}', "packet.p0 must be finite"),
    ('{"packet": {"q0": -2.5, "energy": Infinity}}', "packet.energy must be finite"),
    # Finite given values whose resolved partner overflows.
    pytest.param('{"packet": {"q0": -2.5, "p0": 1e200}}', "packet.energy must be finite",
                 id="packet_energy_must_be_finite_when_p0_squared_overflows"),
    pytest.param('{"model": {"mass": 10}, "packet": {"q0": -2.5, "energy": 1e308}}',
                 "packet.p0 must be finite",
                 id="packet_p0_must_be_finite_when_2m_times_kinetic_overflows"),
    ('{"packet": {"q0": -2.5, "p0": 1.0}, "integrator": {"t_max": 1e400}}',
     "integrator.t_max must be finite"),
    ('{"model": {"alpha": -Infinity}, "packet": {"q0": -2.5, "p0": 1.0}}',
     "model.alpha must be finite"),
    ('{"model": {"a": %s}, "packet": {"q0": -2.5, "p0": 1.0}}' % BIG_INTEGER,
     "model.a must be finite"),
    # A well with a slow packet: the resolved energy is negative.
    ('{"model": {"alpha": -1.0}, "packet": {"q0": -2.5, "p0": 0.01}}',
     "packet.energy must be positive"),
    pytest.param('{"model": {"n": 600}, "packet": {"q0": -2.5, "p0": 1.0}}',
                 "model.n is too large: C(2n, n) overflows a float",
                 id="model_n_is_too_large_C_2n_n_overflows_a_float_for_a_large_n"),
    # C(2n, n) of n = 10**9 has about 2e9 bits: the check stops well before it.
    pytest.param('{"model": {"n": 1000000000}, "packet": {"q0": -2.5, "p0": 1.0}}',
                 "model.n is too large: C(2n, n) overflows a float",
                 id="model_n_is_too_large_C_2n_n_overflows_a_float_for_n_1e9"),
    pytest.param('{"model": {"n": %s}, "packet": {"q0": -2.5, "p0": 1.0}}' % BIG_INTEGER,
                 "model.n is too large: C(2n, n) overflows a float",
                 id="model_n_is_too_large_C_2n_n_overflows_a_float_beyond_the_float_range"),
    ('{"model": {"a": 100, "n": 100}, "packet": {"q0": -2.5, "p0": 1.0}}',
     "model.a**(2n) = 100.0**200 is outside the float range"),
    # G20 = sigma0**2 is inf; (hbar / (2 sigma0))**2 overflows.
    ('{"packet": {"q0": -3.0, "p0": 1.0, "sigma0": 1e160}}',
     "packet.sigma0 = 1e+160 gives initial moments outside the float range"),
    ('{"packet": {"q0": -3.0, "p0": 1.0, "sigma0": 1e-170}}',
     "packet.sigma0 = 1e-170 gives initial moments outside the float range"),
]


@pytest.mark.parametrize("config_text, message", REJECTED, ids=message_ids(REJECTED))
def test_main_rejects_config_without_traceback(tmp_path, capsys, config_text, message):
    path = tmp_path / "bad.json"
    path.write_text(config_text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("sigma0", [1e160, 1e-170])
def test_the_cli_prints_the_overflow_message_of_initial_moments(tmp_path, capsys, sigma0, order):
    # The rule lives in initial_moments; the CLI only puts its section in front.
    with pytest.raises(ValueError) as info:
        initial_moments(GaussianPacket(q0=-3.0, p0=1.0, sigma0=sigma0),
                        ModelConfig(potential=BarrierPotential(alpha=1.0, a=1.0, n=4), order=order))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"order": order},
                                "packet": {"q0": -3.0, "p0": 1.0, "sigma0": sigma0}}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"config error: packet.{info.value}\n"


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 100_000], ids=["not_utf8", "nested_too_deep"]
)
def test_main_rejects_undecodable_config_in_one_line(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {path} is not valid JSON: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "run.csv").exists()


def test_readme_example_config_builds_and_roundtrips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    cfg = build_config(json.loads(example))
    assert cfg.sweep["count"] == 151 and cfg.surface["q"]["count"] == 201
    assert build_config(cfg.to_dict()).to_dict() == cfg.to_dict()


def test_readme_sweep_columns_are_the_written_ones():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (listed,) = re.findall(r"`sweep`: one row per point, in sweep order:\s*`([^`]*)`", readme)
    assert re.sub(r"\s+", "", listed).split(",") == SWEEP_COLUMNS


def test_far_packet_is_a_step_failure_not_a_crash(tmp_path, capsys, recwarn):
    # q0**(2n) overflows a float: V(q0) takes its limit 0, so the config
    # resolves, and the integrator's blowup guard stops the run. The sampled
    # series take the same limit without an overflow warning.
    path = tmp_path / "far.json"
    path.write_text('{"packet": {"q0": -1e40, "p0": 1.0}, "integrator": {"t_max": 0.5}}')
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "far")]) == 2
    assert "step failure (blowup)" in capsys.readouterr().err
    summary = json.loads((tmp_path / "far.summary.json").read_text())
    assert summary["config"]["packet"]["energy"] == 0.5
    assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


def test_simulate_outputs_and_reproducibility(tmp_path):
    cfg = build_config(scenario_raw())
    s1 = run_simulate(cfg, str(tmp_path / "a"))
    s2 = run_simulate(cfg, str(tmp_path / "b"))
    csv1 = (tmp_path / "a.csv").read_bytes()
    csv2 = (tmp_path / "b.csv").read_bytes()
    assert csv1 == csv2
    assert s1 == s2
    header = csv1.decode().splitlines()[0].split(",")
    assert header == [
        "t", "q", "p", "g20", "g11", "g02", "h_q", "v_eff", "uncertainty_residual",
    ]
    summary = json.loads((tmp_path / "a.summary.json").read_text())
    assert summary["energy_drift"] <= 1e-8
    assert summary["config"]["packet"]["sigma0"] == 0.5
    assert summary["derived"]["turning_point"] == pytest.approx(0.6147881529512644)
    # The worst sampled uncertainty residual and its time, from the table.
    rows = [line.split(",") for line in csv1.decode().splitlines()[1:]]
    worst = min(rows, key=lambda row: float(row[-1]))
    assert summary["stats"]["residual_min"] == float(worst[-1])
    assert summary["stats"]["t_residual_min"] == float(worst[0])


def test_simulate_order0_schema(tmp_path):
    raw = scenario_raw()
    raw["model"]["order"] = 0
    cfg = build_config(raw)
    run_simulate(cfg, str(tmp_path / "c"))
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "t,q,p"
    assert all(line.count(",") == 2 for line in lines[1:])


def test_classical_command_and_order_override(tmp_path, capsys):
    # An order-0 run is ``simulate --order 0``; the former ``classical``
    # command, which ignored --order, is a usage error.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scenario_raw(output={"path": str(tmp_path / "d")})))
    with pytest.raises(SystemExit) as exit_info:
        main(["classical", "--config", str(path)])
    assert exit_info.value.code == 1
    assert "invalid choice: 'classical'" in capsys.readouterr().err
    assert main(["simulate", "--config", str(path), "--order", "0"]) == 0
    assert (tmp_path / "d.csv").read_text().splitlines()[0] == "t,q,p"
    assert main(["simulate", "--config", str(path), "--order", "3"]) == 0
    header = (tmp_path / "d.csv").read_text().splitlines()[0]
    assert header.split(",")[3:10] == ["g20", "g11", "g02", "g30", "g21", "g12", "g03"]


def test_main_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    raw = scenario_raw()
    raw["packet"]["sigma0"] = -2.0
    path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(path)]) == 1
    assert "packet.sigma0" in capsys.readouterr().err
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 1
    # --order obeys the model's order rule, as "model.order" in the file does.
    path.write_text(json.dumps(scenario_raw()))
    capsys.readouterr()
    assert main(["simulate", "--config", str(path), "--order", "1"]) == 1
    assert capsys.readouterr().err == "config error: model.order must be 0, 2 or 3\n"


@pytest.mark.parametrize(
    "args,message",
    [
        (["simulate", "--config", "c.json", "--order", "abc"],
         "argument --order: invalid int value: 'abc'"),
        (["simulate"], "the following arguments are required: --config"),
        (["sweep", "--config", "c.json", "--workers", "x"],
         "argument --workers: invalid int value: 'x'"),
    ],
    ids=["order-abc", "missing-config", "workers-x"],
)
def test_usage_error_is_a_configuration_error(args, message, capsys):
    # Exit 2 means a step failure, so a usage error exits 1 with argparse's
    # message.
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: momentous") and err.endswith(f"error: {message}\n")


def test_help_exits_zero(capsys):
    for args in (["--help"], ["simulate", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: momentous")


def test_sweep_degenerate_matches_simulate(tmp_path):
    raw = scenario_raw(sweep={"parameter": "q0", "start": -2.5, "stop": -2.5, "count": 1})
    cfg = build_config(raw)
    run_sweep(cfg, str(tmp_path / "s"))
    [row] = sweep_table(tmp_path / "s.csv")
    sim = run_simulate(build_config(scenario_raw()), str(tmp_path / "t"))
    assert row["outcome"] == sim["outcome"]["tag"]
    assert float(row["final_q"]) == pytest.approx(sim["outcome"]["final_q"], rel=1e-12)
    assert float(row["final_p"]) == pytest.approx(sim["outcome"]["final_p"], rel=1e-12)
    assert row["termination"] == sim["termination"]


def test_sweep_above_barrier_all_undetermined(tmp_path):
    raw = scenario_raw(
        model={"order": 0},
        packet={"q0": -5.0, "p0": 1.6},
        sweep={"parameter": "p0", "start": 1.6, "stop": 2.0, "count": 5},
        integrator={"t_max": 10.0},
    )
    cfg = build_config(raw)
    summary = run_sweep(cfg, str(tmp_path / "u"))
    assert summary["outcome_counts"] == {"undetermined": 5}
    assert all(row["outcome"] == "undetermined" for row in sweep_table(tmp_path / "u.csv"))


def test_an_energy_at_the_barrier_top_has_no_return_point(tmp_path):
    # E = V0: classify calls it at or above the top, so the summary gives no
    # return point and the run marks none.
    summary = run_simulate(
        build_config(scenario_raw(packet={"q0": -2.5, "energy": 1.0}, integrator={"t_max": 2.0})),
        str(tmp_path / "top"),
    )
    assert summary["derived"]["energy_ratio"] == 1.0
    assert summary["derived"]["turning_point"] is None
    assert summary["outcome"]["reason"] == "energy at or above the barrier top"
    assert "q_cross" not in {event["kind"] for event in summary["events"]}


@pytest.mark.parametrize("order", [2, 3])
def test_an_energy_above_the_barrier_top_has_no_return_point(tmp_path, order):
    summary = run_simulate(
        build_config(scenario_raw(model={"order": order}, packet={"q0": -2.5, "energy": 1.5},
                                  integrator={"t_max": 2.0})),
        str(tmp_path / "above"),
    )
    assert summary["derived"]["energy_ratio"] < 1.0
    assert summary["derived"]["turning_point"] is None
    assert summary["outcome"]["reason"] == "energy at or above the barrier top"
    assert "q_cross" not in {event["kind"] for event in summary["events"]}


def test_the_barrier_lengths_resolve_after_the_integrator_checks():
    # None gives 10 a and 0.05 a; an invalid integrator field is reported
    # before an invalid margin (test_config_field_errors has the margin's own).
    cfg = build_config(scenario_raw(model={"a": 0.37}))
    radius = cfg.sections["integrator"]["escape_radius"]
    assert cfg.integrator.escape_radius == radius == 10.0 * 0.37
    assert cfg.margin == 0.05 * 0.37
    both = scenario_raw(integrator={"t_max": 0.0}, classify={"margin": -0.01})
    with pytest.raises(ConfigError, match="^integrator.t_max must be positive$"):
        build_config(both)


# Pooled sweeps hand work to helpers forked from this process
# (cli._start), so a patch made here reaches them.
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="helpers are forked")


@contextmanager
def time_bound(seconds):
    """Raise TimeoutError in this process if the block outlasts ``seconds``
    (a forked child inherits the handler but not the timer)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def spy_forks(monkeypatch, cpus=2) -> list:
    """Count the forks of this process (in it, not in the children)."""
    real = os.fork
    forks = []

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return forks


def free_fds():
    """The two lowest free descriptors: one leaked since an earlier call
    takes one of them."""
    pair = os.pipe()
    for fd in pair:
        os.close(fd)
    return pair


def assert_helper_gone(fds_before):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child left to reap
    assert free_fds() == fds_before


def fail_helper_writes(monkeypatch, failure):
    """Make a helper's first write fail: it sends part of its bytes and
    exits with status 1 (``exits_midway``), or it is killed (``killed``)."""
    caller = os.getpid()
    real_write = os.write

    def write(fd, data):
        if os.getpid() == caller:
            return real_write(fd, data)
        if failure == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        real_write(fd, bytes(data[:len(data) // 2]))
        os._exit(1)

    monkeypatch.setattr(os, "write", write)


def short_sweep(count):
    return build_config(scenario_raw(
        sweep={"parameter": "q0", "start": -2.6, "stop": -2.2, "count": count},
        integrator={"t_max": 1.0},
    ))


@needs_fork
def test_sweep_worker_pool_matches_serial(tmp_path, monkeypatch):
    raw = scenario_raw(sweep={"parameter": "q0", "start": -2.6, "stop": -2.2, "count": 4})
    cfg = build_config(raw)
    run_sweep(cfg, str(tmp_path / "serial"), workers=1)
    forks = spy_forks(monkeypatch)
    fds = free_fds()
    with time_bound(60):
        run_sweep(cfg, str(tmp_path / "pool"), workers=2)
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pool.csv").read_bytes()
    assert len(forks) == 1
    assert_helper_gone(fds)


@needs_fork
@pytest.mark.parametrize(
    "workers, cpus, has_fork, cap",
    [(10_000, 64, True, 3), (2, 2, True, 2), (10_000, 1, True, 1), (4, None, True, 1),
     (1, 64, True, 1), (4, 64, False, 1)],
    ids=["capped_at_points", "two_cpus", "one_cpu", "cpu_count_unknown", "one_worker",
         "no_fork"],
)
def test_sweep_workers_capped_at_points_and_cpus(
    tmp_path, monkeypatch, workers, cpus, has_fork, cap
):
    forks = spy_forks(monkeypatch, cpus)
    if not has_fork:
        monkeypatch.delattr(os, "fork")
    with time_bound(60):
        summary = run_sweep(short_sweep(3), str(tmp_path / "capped"), workers=workers)
    # The calling process runs points too: it forks one helper fewer.
    assert len(forks) == cap - 1
    assert summary["n_rows"] == 3


def patched_points(monkeypatch, point, cpus):
    """Run each sweep point as ``point(index, value)``, on ``cpus`` CPUs."""
    import momentous.cli as cli

    monkeypatch.setattr(cli, "_sweep_point", lambda job: point(job[1], job[2]))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)


def fake_row(index, value, termination="reached_tmax"):
    return {**dict.fromkeys(SWEEP_COLUMNS, ""), "index": index, "value": value,
            "outcome": "reflected", "sign_changes_inside": 0, "termination": termination}


@needs_fork
@pytest.mark.parametrize("side", ["worker", "caller", "every"])
def test_sweep_pool_propagates_an_exception_from_either_side(tmp_path, monkeypatch, side):
    # A defect (not a ConfigError) in the helper, in the caller or in every
    # process. Where one side has it, the other side's first point waits
    # until the failing side has started, so both run points. A helper's failed
    # points are redone in the caller, so only a defect the caller has too
    # is raised, as the serial sweep raises it.
    caller = os.getpid()
    started = multiprocessing.Event()

    def point(index, value):
        if side == "every" or (os.getpid() == caller) == (side == "caller"):
            started.set()
            raise RuntimeError(f"{side} defect")
        assert started.wait(30)
        return fake_row(index, value)

    patched_points(monkeypatch, point, cpus=2)
    raw = scenario_raw(sweep={"parameter": "q0", "start": -3.0, "stop": -2.0, "count": 20})
    fds = free_fds()
    with time_bound(60):
        if side == "worker":
            run_sweep(build_config(raw), str(tmp_path / "pool"), workers=2)
        else:
            with pytest.raises(RuntimeError, match=f"{side} defect"):
                run_sweep(build_config(raw), str(tmp_path / "pool"), workers=2)
    assert_helper_gone(fds)
    if side == "worker":
        run_sweep(build_config(raw), str(tmp_path / "serial"))
        assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    else:
        with pytest.raises(RuntimeError, match=f"{side} defect"):
            run_sweep(build_config(raw), str(tmp_path / "serial"))
        assert list(tmp_path.iterdir()) == []


@needs_fork
@pytest.mark.parametrize("failure", ["claimer_raises", "exits_midway", "killed"])
def test_a_failed_sweep_helper_is_replaced_in_process(tmp_path, monkeypatch, failure):
    import momentous.cli as cli

    cfg = short_sweep(6)
    run_sweep(cfg, str(tmp_path / "serial"))
    caller = os.getpid()
    real_point = cli._sweep_point

    def point(job):
        if os.getpid() != caller:
            raise RuntimeError("helper defect")
        return real_point(job)

    if failure == "claimer_raises":
        monkeypatch.setattr(cli, "_sweep_point", point)
    else:
        fail_helper_writes(monkeypatch, failure)
    forks = spy_forks(monkeypatch, cpus=3)
    fds = free_fds()
    with time_bound(60):
        run_sweep(cfg, str(tmp_path / "pool"), workers=3)
    assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert len(forks) == 2
    assert_helper_gone(fds)


@needs_fork
def test_a_sweep_whose_caller_raises_finishes_every_helper(tmp_path, monkeypatch):
    # When the caller raises, each of two helpers holds a row larger than a
    # pipe. The second helper holds a copy of the first one's read end, so
    # closing that pipe would not release the first helper: reaping it
    # before the second is done with would hang.
    caller = os.getpid()
    holding = multiprocessing.Value("i", 0)
    raised = multiprocessing.Event()

    def point(index, value):
        if os.getpid() == caller:
            while holding.value < 2:
                time.sleep(0.001)
            raised.set()
            raise RuntimeError("caller defect")
        with holding.get_lock():
            holding.value += 1
        assert raised.wait(30)
        return fake_row(index, value, termination="x" * 100_000)

    patched_points(monkeypatch, point, cpus=3)
    forks = spy_forks(monkeypatch, cpus=3)
    fds = free_fds()
    raw = scenario_raw(sweep={"parameter": "q0", "start": -3.0, "stop": -2.0, "count": 20})
    with time_bound(60), pytest.raises(RuntimeError, match="caller defect"):
        run_sweep(build_config(raw), str(tmp_path / "defect"), workers=3)
    assert len(forks) == 2
    assert list(tmp_path.iterdir()) == []
    assert_helper_gone(fds)


@needs_fork
def test_a_raising_helpers_stride_is_redone_by_the_caller(tmp_path, monkeypatch):
    # Nine points in three processes: the helper of stride 1 (points 1, 4,
    # 7) raises at its second point and returns nothing. The caller runs its
    # own stride, then all of stride 1; stride 2 stays with the other helper.
    import momentous.cli as cli

    cfg = short_sweep(9)
    run_sweep(cfg, str(tmp_path / "serial"))
    caller = os.getpid()
    log = tmp_path / "points.log"
    real_point = cli._sweep_point

    def point(job):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {job[1]}\n")
        if job[1] == 4 and os.getpid() != caller:
            raise RuntimeError("helper defect")
        return real_point(job)

    monkeypatch.setattr(cli, "_sweep_point", point)
    forks = spy_forks(monkeypatch, cpus=3)
    fds = free_fds()
    with time_bound(60):
        run_sweep(cfg, str(tmp_path / "pool"), workers=3)
    ran = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    assert len(forks) == 2
    assert [i for pid, i in ran if pid == caller] == [0, 3, 6, 1, 4, 7]
    assert [i for pid, i in ran if pid == forks[0]] == [1, 4]
    assert [pid for pid, i in ran if i in (2, 5, 8)] == [forks[1]] * 3
    assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert_helper_gone(fds)


@pytest.mark.parametrize("workers", [0, -3])
def test_a_sweep_with_fewer_than_one_worker_runs_serially(tmp_path, monkeypatch, workers):
    forks = spy_forks(monkeypatch)
    summary = run_sweep(short_sweep(3), str(tmp_path / "none"), workers=workers)
    assert summary["n_rows"] == 3
    assert forks == []


def test_the_cli_needs_no_multiprocessing(tmp_path, monkeypatch):
    # A fresh interpreter: importing the CLI loads no multiprocessing, whose
    # first shared counter would keep two descriptors open on a deleted
    # shared-memory file. A serial sweep forks nothing and leaves no
    # descriptor open.
    import momentous

    src = str(Path(momentous.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, momentous.cli; print('multiprocessing' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout == "False\n"
    fds = free_fds()
    forks = spy_forks(monkeypatch)
    summary = run_sweep(short_sweep(3), str(tmp_path / "serial"))
    assert summary["n_rows"] == 3
    assert forks == []
    assert free_fds() == fds


def test_acceptance_sweep_tags_hold_at_a_loose_tolerance(tmp_path):
    # Within the gate horizon no point of the acceptance sweep reaches the
    # G20*G02 - G11**2 >= 0 stop: at rtol = atol = 1e-6 it keeps the tags
    # of its gate setting (rtol 1e-10).
    raw = {
        "model": {"alpha": 1.0, "a": 1.0, "n": 4, "order": 2},
        "packet": {"q0": -2.5, "energy": 0.98, "sigma0": 0.30},
        "integrator": {"rtol": 1e-6, "atol": 1e-6, "t_max": 2.35},
        "sweep": {"parameter": "q0", "start": -3.72638, "stop": -1.36634, "count": 151},
    }
    summary = run_sweep(build_config(raw), str(tmp_path / "loose"))
    assert summary["outcome_counts"] == {
        "reflected": 16, "tunneled": 3, "trapped": 3, "undetermined": 129,
    }
    rows = sweep_table(tmp_path / "loose.csv")
    assert {row["termination"] for row in rows} == {"reached_tmax"}


@needs_fork
def test_sweep_pool_claims_every_point_once_in_order(tmp_path, monkeypatch):
    # More processes than cores over a few hundred short points: a stride
    # that overlapped or left a gap would run a point twice or not at all.
    count, claimers = 300, 8
    claims = multiprocessing.Array("i", count)

    def point(index, value):
        with claims.get_lock():
            claims[index] += 1
        time.sleep(0.001)
        return fake_row(index, value, termination=os.getpid())

    patched_points(monkeypatch, point, cpus=claimers)
    raw = scenario_raw(sweep={"parameter": "q0", "start": -3.0, "stop": -2.0, "count": count})
    with time_bound(60):
        summary = run_sweep(build_config(raw), str(tmp_path / "stress"), workers=claimers)
    assert list(claims) == [1] * count
    assert summary["n_rows"] == count
    rows = sweep_table(tmp_path / "stress.csv")
    assert [row["index"] for row in rows] == [str(i) for i in range(count)]
    assert [row["value"] for row in rows] == [
        str(v) for v in np.linspace(-3.0, -2.0, count).tolist()
    ]
    assert len({row["termination"] for row in rows}) > 1  # more than one process claimed


# Rows of floats are written by orjson, except rows with a cell where its
# notation can differ from repr's (near [1e-9, 1e-4), from near 1e16 up, or
# not finite), which go through str like the mixed rows of a sweep.
# ``serial_csv`` is the reference for both.
TABLE_COLUMNS = [f"c{k}" for k in range(9)]


def table(n_rows):
    return [
        [i, i % 2 == 0, "", "error: packet.sigma0: must be > 0", math.nan,
         math.inf if i % 3 else -math.inf, -0.0, 1e-300, i / 7]
        for i in range(n_rows)
    ]


def serial_csv(columns, rows) -> bytes:
    """The bytes of ``",".join(map(str, row))`` for each row, under the header."""
    return ("\n".join([",".join(columns), *(",".join(map(str, row)) for row in rows)])
            + "\n").encode()


def write_table(tmp_path, columns, lines):
    """Write the byte chunks of ``lines`` under the header; return the CSV."""
    import momentous.cli as cli

    cfg = build_config(scenario_raw())
    cli._write(cfg, str(tmp_path / "table"), "simulate", columns, lines)
    return (tmp_path / "table.csv").read_bytes()


def assert_float_csv(table):
    """The float writer gives ``serial_csv``'s bytes for a float array."""
    import momentous.cli as cli

    columns = [f"c{k}" for k in range(table.shape[1])]
    text = (",".join(columns) + "\n").encode() + b"".join(cli._float_lines(table))
    assert text == serial_csv(columns, table.tolist())


@pytest.mark.parametrize("n_rows", [0, 1, 7], ids=["empty", "one_row", "odd"])
def test_mixed_table_has_the_str_bytes(tmp_path, n_rows):
    import momentous.cli as cli

    rows = table(n_rows)
    expected = serial_csv(TABLE_COLUMNS, rows)
    assert write_table(tmp_path, TABLE_COLUMNS, [cli._csv_lines(rows).encode()]) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_float_table_with_a_nonfinite_cell_has_the_str_bytes(tmp_path, bad):
    # orjson writes a nan or an infinity as null: such a row keeps str.
    import momentous.cli as cli

    values = np.array([[0.5, -1e-05, 1e16], [2.0, bad, 7.414568375607028e-05]])
    expected = serial_csv(["a", "b", "c"], values.tolist())
    assert write_table(tmp_path, ["a", "b", "c"], cli._float_lines(values)) == expected


@settings(max_examples=300)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_float_table_has_the_str_bytes(values):
    assert_float_csv(values)


# Cells of either sign and magnitude 10**U(-12, 18), on both sides of every
# edge of the row mask; the default float strategy rarely draws a cell in
# [1e-9, 1e-4).
decades = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12),
                 elements=st.floats(-30.0, 30.0)).map(
                     lambda x: np.sign(x) * 10.0 ** (np.abs(x) - 12.0))


@settings(max_examples=300)
@given(decades)
def test_float_table_of_any_decade_has_the_str_bytes(values):
    assert_float_csv(values)


# One cell of each kind whose row the writer hands to str.
FLAGGED_CELLS = [7.414568375607028e-05, -1e-09, 1.5e16, math.nan, -math.inf]
FLAGGED_ROWS = {"first": [0], "last": [7], "adjacent": [3, 4], "every": range(8), "none": []}


@pytest.mark.parametrize("n_cols", [1, 3])
@pytest.mark.parametrize("where", FLAGGED_ROWS)
def test_flagged_rows_anywhere_have_the_str_bytes(where, n_cols):
    values = rng(8).uniform(-100.0, 100.0, size=(8, n_cols))
    for k, row in enumerate(FLAGGED_ROWS[where]):
        values[row, k % n_cols] = FLAGGED_CELLS[k % len(FLAGGED_CELLS)]
    assert_float_csv(values)


# The edges of the ranges where orjson's notation differs from repr's, and of
# the row mask's factor-2 margin around them, each with its two neighbours.
MASK_EDGES = [
    np.nextafter(edge, toward)
    for edge in (1e-9, 1e-4, 1e16, 5e-10, 2e-4, 5e15)
    for toward in (0.0, edge, math.inf)
]


@pytest.mark.parametrize("n_cols", [1, 3])
@pytest.mark.parametrize("value", MASK_EDGES, ids=map(repr, MASK_EDGES))
def test_mask_edges_have_the_str_bytes(value, n_cols):
    middle = [0.5, value, -value][:n_cols]
    assert_float_csv(np.array([[1.5] * n_cols, middle, [-value] * n_cols, [2.5] * n_cols]))


@pytest.mark.parametrize("n_cols", [1, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_nonfinite_row_in_a_long_table_has_the_str_bytes(bad, n_cols):
    values = rng(3).uniform(1.0, 1000.0, size=(3000, n_cols))
    values[1234, n_cols - 1] = bad
    assert_float_csv(values)


def test_random_bit_patterns_have_the_str_bytes():
    bits = rng(16).integers(0, 2**64, size=120_000, dtype=np.uint64).view(np.float64)
    finite = bits[np.isfinite(bits)]
    assert len(finite) >= 100_000
    assert_float_csv(finite[:100_000].reshape(-1, 10))


# Where repr's notation changes (positional from 1e-4 up to 1e16, a padded,
# signed exponent outside) and the ends of the float range.
BOUNDARY_VALUES = [
    0.0, 5e-324, 2.2250738585072014e-308, 1e-9, 9.999999999999999e-10, 1e-5,
    9.999999999999999e-05, 1e-4, 1e15, 9999999999999998.0, 1e16,
    1.7976931348623157e308,
]


@pytest.mark.parametrize("value", BOUNDARY_VALUES, ids=map(repr, BOUNDARY_VALUES))
def test_boundary_values_have_the_str_bytes(value):
    for sign in (1.0, -1.0):
        cell = sign * value
        assert_float_csv(np.array([[cell]]))
        assert_float_csv(np.array([[cell, 10.0 + cell, cell], [1.0, cell, -10.000000000000178]]))


# A float table of c columns is formatted in blocks of at most
# BLOCK_CELLS // c rows, each with its own row mask; the tables drawn above
# never reach a block's end. A size is (blocks, extra rows).
BLOCK_SIZES = {"block_minus_1": (1, -1), "block": (1, 0), "block_plus_1": (1, 1),
               "three_blocks_plus_5": (3, 5)}


def block_size(size, n_cols):
    """The rows of a named size in blocks of ``n_cols``-column rows."""
    blocks, extra = BLOCK_SIZES[size]
    return blocks * (BLOCK_CELLS // max(n_cols, 1)) + extra


# Flagged rows placed around each block boundary b.
AT_BOUNDARY = {"none": [], "last_of_block": [-1], "first_of_next": [0],
               "run_across": [-2, -1, 0, 1]}


@pytest.mark.parametrize("n_cols", [1, 14])
@pytest.mark.parametrize("where", AT_BOUNDARY)
@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_block_boundaries_have_the_str_bytes(size, where, n_cols):
    n_rows, block = block_size(size, n_cols), BLOCK_CELLS // n_cols
    values = rng(n_rows).uniform(-100.0, 100.0, size=(n_rows, n_cols))
    rows = [b + d for b in range(block, n_rows + 2, block) for d in AT_BOUNDARY[where]]
    for k, row in enumerate(r for r in rows if r < n_rows):
        values[row, k % n_cols] = FLAGGED_CELLS[k % len(FLAGGED_CELLS)]
    assert_float_csv(values)


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_a_table_of_no_columns_has_an_empty_line_per_row(size):
    import momentous.cli as cli

    n_rows = block_size(size, 0)
    assert b"".join(cli._float_lines(np.empty((n_rows, 0)))) == b"\n" * n_rows


LONG_RUN = {"t_max": 20.0, "sample_dt": 0.0005}  # 12,660 samples: 14 blocks of 9 columns


def test_simulate_formats_one_block_at_a_time(tmp_path, monkeypatch):
    # run_simulate hands the writer the run's own arrays, no copy of the
    # whole table, and each orjson call formats at most one block of rows.
    import momentous.cli as cli

    runs, calls, shapes = [], [], []
    trajectory, float_lines, orjson_rows = cli._trajectory, cli._float_lines, cli._orjson_rows
    monkeypatch.setattr(cli, "_trajectory", lambda cfg: runs.append(trajectory(cfg)) or runs[-1])
    monkeypatch.setattr(cli, "_float_lines", lambda *c: calls.append(c) or float_lines(*c))
    monkeypatch.setattr(cli, "_orjson_rows", lambda b: shapes.append(b.shape) or orjson_rows(b))
    summary = run_simulate(build_config(scenario_raw(integrator=LONG_RUN)), str(tmp_path / "run"))
    [traj], [series] = runs, calls
    arrays = [traj.times, traj.states, traj.h_q, traj.v_eff, traj.uncertainty]
    assert all(any(np.shares_memory(s, a) for a in arrays) for s in series)
    table = np.hstack(series)
    block = BLOCK_CELLS // table.shape[1]
    assert summary["n_samples"] == len(table) > 3 * block
    assert len(shapes) >= 4 and max(rows for rows, _ in shapes) <= block
    assert (tmp_path / "run.csv").read_bytes() == serial_csv(summary["columns"], table.tolist())


# CI's event-rich order-2 run (over 100 events) and its order-3 run that
# stops on the uncertainty constraint between two grid samples.
BLOCK_RUNS = {
    "events": {"packet": {"q0": -1.62, "energy": 0.98, "sigma0": 0.3},
               "integrator": {"atol": 1e-6, "t_max": 4.0, "sample_dt": 1e-3}},
    "stop": {"model": {"order": 3}, "packet": {"q0": -2.5, "energy": 0.98, "sigma0": 0.5},
             "integrator": {"t_max": 2.0, "sample_dt": 1e-4}},
}


@pytest.mark.parametrize("cells", [1, 7 * 14], ids=["cells_1", "cells_98"])
@pytest.mark.parametrize("run", BLOCK_RUNS)
def test_the_block_budget_moves_no_output_bit(run, cells, tmp_path, monkeypatch):
    # One block budget sizes the sample pass and the writer; a budget of a
    # few rows puts block boundaries everywhere, and nothing may move.
    import momentous.cli as cli
    import momentous.integrator as integrator

    runs, trajectory = [], cli._trajectory
    monkeypatch.setattr(cli, "_trajectory", lambda cfg: runs.append(trajectory(cfg)) or runs[-1])
    cfg = build_config(BLOCK_RUNS[run])
    files = []
    for budget in (BLOCK_CELLS, cells):
        monkeypatch.setattr(integrator, "BLOCK_CELLS", budget)
        out = tmp_path / f"cells_{budget}"
        run_simulate(cfg, str(out))
        files.append([Path(f"{out}{suffix}").read_bytes() for suffix in (".csv", ".summary.json")])
    default, blocked = runs
    for name in ("times", "states", "h_q", "v_eff", "uncertainty"):
        assert getattr(blocked, name).tobytes() == getattr(default, name).tobytes(), name
    assert blocked.stats == default.stats
    assert blocked.events == default.events
    assert files[1] == files[0]
    if run == "events":
        assert len(default.events) > 100
    else:
        assert default.termination is cli.Termination.CONSTRAINT_VIOLATED


def test_a_failed_table_write_leaves_the_previous_files(tmp_path, monkeypatch):
    # The second orjson call fails after the first rows went to run.csv.tmp:
    # the error propagates, the .tmp goes and the earlier run's files stay.
    import momentous.cli as cli

    cfg = build_config(scenario_raw(integrator=LONG_RUN))
    run_simulate(cfg, str(tmp_path / "run"))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    orjson_rows, partial = cli._orjson_rows, []

    def failing(block):
        partial.append((tmp_path / "run.csv.tmp").exists())
        if len(partial) == 2:
            raise RuntimeError("formatting failed")
        return orjson_rows(block)

    monkeypatch.setattr(cli, "_orjson_rows", failing)
    with pytest.raises(RuntimeError, match="formatting failed"):
        run_simulate(cfg, str(tmp_path / "run"))
    assert partial == [True, True]
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@needs_fork
def test_simulate_and_surface_fork_no_process(tmp_path, monkeypatch):
    # Both tables are long (over 50,000 cells); a table of any length is
    # written by this process.
    forks = spy_forks(monkeypatch)
    raw = scenario_raw(
        integrator={"t_max": 6.0, "sample_dt": 0.001},
        surface={"q": {"start": -3.0, "stop": 3.0, "count": 401},
                 "t": {"start": 0.0, "stop": 6.0, "count": 61}},
    )
    cfg = build_config(raw)
    simulated = run_simulate(cfg, str(tmp_path / "run"))
    surface = run_surface(cfg, str(tmp_path / "surface"))
    assert simulated["n_samples"] * len(simulated["columns"]) > 50_000
    assert surface["n_rows"] * 3 > 50_000
    assert forks == []


@needs_fork
def test_a_pooled_sweep_with_a_live_thread_has_the_serial_bytes(tmp_path, monkeypatch):
    # From Python 3.12, os.fork in a process with more than one thread warns
    # (DeprecationWarning); CPython clears that warning even when warnings
    # are errors, so the helpers go ahead. A 3-process sweep forks two; the
    # bytes must be the serial ones, with no helper left behind.
    cfg = short_sweep(4)
    run_sweep(cfg, str(tmp_path / "serial"))
    forks = spy_forks(monkeypatch, cpus=3)
    fds = free_fds()
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with warnings.catch_warnings(), time_bound(60):
            warnings.simplefilter("error")
            run_sweep(cfg, str(tmp_path / "pool"), workers=3)
    finally:
        release.set()
        thread.join()
    assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert len(forks) == 2
    assert_helper_gone(fds)


def test_sweep_q0_keeps_energy_fixed(tmp_path):
    raw = scenario_raw(sweep={"parameter": "q0", "start": -3.0, "stop": -2.0, "count": 3})
    cfg = build_config(raw)
    assert cfg.sweep["fixed_energy"] is True
    run_sweep(cfg, str(tmp_path / "e"))
    assert [float(r["value"]) for r in sweep_table(tmp_path / "e.csv")] == [-3.0, -2.5, -2.0]


def test_surface_order0_constant_in_time(tmp_path):
    raw = scenario_raw(
        model={"order": 0},
        packet={"q0": -5.0, "p0": 1.0},
        surface={
            "q": {"start": -2.0, "stop": 2.0, "count": 41},
            "t": {"start": 0.0, "stop": 2.0, "count": 5},
        },
        integrator={"t_max": 3.0},
    )
    cfg = build_config(raw)
    summary = run_surface(cfg, str(tmp_path / "v"))
    assert summary["columns"] == ["t", "q", "v_eff"]
    pot = BarrierPotential()
    rows = [line.split(",") for line in (tmp_path / "v.csv").read_text().splitlines()[1:]]
    for _, q, v in rows:
        assert float(v) == pytest.approx(pot(float(q)), rel=1e-14)
    by_q = {}
    for t, q, v in rows:
        by_q.setdefault(q, set()).add(v)
    assert all(len(vs) == 1 for vs in by_q.values())


def test_sweep_sigma0_parameter(tmp_path):
    raw = scenario_raw(
        sweep={"parameter": "sigma0", "start": 0.4, "stop": 0.6, "count": 3},
        integrator={"t_max": 5.0},
    )
    cfg = build_config(raw)
    run_sweep(cfg, str(tmp_path / "sig"))
    rows = sweep_table(tmp_path / "sig.csv")
    assert [float(r["value"]) for r in rows] == [0.4, 0.5, 0.6]
    assert all(r["outcome"] in {"reflected", "tunneled", "trapped", "undetermined"} for r in rows)


def test_surface_late_sections_grow_two_minima(tmp_path):
    # Along a reflecting run the widening packet digs two valleys into the
    # barrier shoulders; the late surface sections must show both.
    raw = scenario_raw(
        packet={"q0": -1.73, "energy": 0.98, "sigma0": 0.3},
        integrator={"rtol": 1e-10, "atol": 1e-6, "t_max": 2.35},
        surface={
            "q": {"start": -2.0, "stop": 2.0, "count": 201},
            "t": {"start": 0.0, "stop": 2.35, "count": 6},
        },
    )
    cfg = build_config(raw)
    run_surface(cfg, str(tmp_path / "late"))
    rows = [line.split(",") for line in (tmp_path / "late.csv").read_text().splitlines()[1:]]
    last_t = max(float(r[0]) for r in rows)
    section = [(float(r[1]), float(r[2])) for r in rows if float(r[0]) == last_t]
    section.sort()
    values = [v for _, v in section]
    minima = [
        section[i][0]
        for i in range(1, len(values) - 1)
        if values[i] < values[i - 1] and values[i] < values[i + 1]
    ]
    assert len(minima) == 2
    assert minima[0] < 0 < minima[1]


def test_surface_initial_barrier_height(tmp_path):
    raw = scenario_raw(
        surface={
            "q": {"start": -1.0, "stop": 1.0, "count": 21},
            "t": {"start": 0.0, "stop": 1.0, "count": 3},
        }
    )
    cfg = build_config(raw)
    run_surface(cfg, str(tmp_path / "w"))
    rows = [line.split(",") for line in (tmp_path / "w.csv").read_text().splitlines()[1:]]
    t0_mid = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
    assert len(t0_mid) == 1
    # V0 + hbar^2 / (8 m sigma0^2) with sigma0 = 0.5.
    assert float(t0_mid[0][2]) == pytest.approx(1.0 + 1.0 / (8 * 0.25), rel=1e-12)


def test_check_algebra_matches_golden(tmp_path):
    code, text = run_check_algebra(str(tmp_path / "report"))
    assert code == 0
    assert (tmp_path / "report.txt").read_text() == text
    data = json.loads((tmp_path / "report.json").read_text())
    assert {eq["variable"] for eq in data["orders"][0]["equations"]} >= {"dq/dt", "dG11/dt"}
    assert "dG20/dt  MATCH" in text
    assert "dG11/dt  MISMATCH (KNOWN)" in text
    assert all("FAIL" not in line for line in text.splitlines() if "PASS" in line)


def test_check_algebra_detects_tampered_table(monkeypatch):
    # A mismatch is KNOWN only where the table is the complete-bracket
    # assembly: a tampered equation reads UNEXPECTED, also where the printed
    # range already falls short of the table (dG11/dt).
    true_table = dynamics.eom_table
    for var, name, poly in (
        ("q", "dq/dt", MomentPolynomial().add(2, p_power=1, mass_power=-1)),
        ((1, 1), "dG11/dt", MomentPolynomial().add(-2, mass_power=-1, moments=((0, 2),))),
    ):
        def tampered(order):
            return {**true_table(order), var: poly}

        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "eom_table", tampered)
            code, text = run_check_algebra()
        assert code == 3
        statuses = [line.split() for line in text.splitlines()]
        assert statuses.count([name, "MISMATCH", "(UNEXPECTED)"]) == 2, name
        assert sum(s[1:] == ["MISMATCH", "(UNEXPECTED)"] for s in statuses) == 2
        assert "MISMATCH (KNOWN)" in text


def test_main_check_algebra_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["check-algebra", "--out", str(tmp_path / "rep")]) == 0
    true_table = dynamics.eom_table
    monkeypatch.setattr(
        dynamics,
        "eom_table",
        lambda order: {**true_table(order), "q": MomentPolynomial().add(3, p_power=1)},
    )
    assert main(["check-algebra"]) == 3


def test_step_failure_exit_code(tmp_path, monkeypatch, capsys):
    # Force an immediate step failure through an absurd iteration budget.
    import momentous.cli as cli

    cfg = build_config(scenario_raw(output={"path": str(tmp_path / "g")}))
    object.__setattr__(cfg.integrator, "max_steps", 1)
    summary = run_simulate(cfg, str(tmp_path / "f"))
    assert summary["termination"] == "step_failure"
    assert summary["stats"]["failure"] == "budget"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scenario_raw(output={"path": str(tmp_path / "g")})))
    monkeypatch.setattr(
        cli,
        "load_config",
        lambda p, o=None: cfg,
    )
    capsys.readouterr()
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "integration failed: step failure (budget)" in err
    assert "underflow" not in err
    assert (tmp_path / "g.csv").exists()
    # A surface summary carries its reference run's stats, as simulate's does.
    grid = {"start": -1.0, "stop": 1.0, "count": 3}
    surface_cfg = build_config(
        scenario_raw(surface={"q": grid, "t": grid}, output={"path": str(tmp_path / "h")})
    )
    object.__setattr__(surface_cfg.integrator, "max_steps", 1)
    monkeypatch.setattr(cli, "load_config", lambda p, o=None: surface_cfg)
    assert main(["surface", "--config", str(path)]) == 2
    assert "integration failed: step failure (budget)" in capsys.readouterr().err
    summary = json.loads((tmp_path / "h.summary.json").read_text())
    assert summary["stats"]["failure"] == "budget"
    assert "failure" not in summary


def test_constraint_stop_warns_and_exits_zero(tmp_path, capsys):
    # The order-3 skewed default stops where G20*G02 - G11**2 turns negative:
    # exactly one stderr line and the same text in the summary; still exit 0.
    # At atol 1e-8 the stop row's residual lands below -hbar**2/4 by
    # roundoff, which must not add a second warning.
    stem = tmp_path / "skewed"
    path = tmp_path / "cfg.json"
    for atol, below in ((1e-10, False), (1e-8, True)):
        path.write_text(json.dumps(scenario_raw(
            model={"order": 3}, integrator={"t_max": 20.0, "atol": atol},
            output={"path": str(stem)},
        )))
        assert main(["simulate", "--config", str(path)]) == 0
        summary = json.loads(stem.with_suffix(".summary.json").read_text())
        assert summary["termination"] == "constraint_violated"
        assert (summary["stats"]["residual_min"] < -0.25) is below
        stop = summary["events"][-1]
        assert stop["kind"] == "constraint"
        assert 0.66 < stop["t"] < 0.68
        assert summary["warnings"] == [
            f"G20*G02 - G11**2 went negative, which no state can have: stopped at "
            f"t = {stop['t']!r} (constraint_violated)"
        ]
        assert capsys.readouterr().err == f"warning: {summary['warnings'][0]}\n"
    # A run that is not stopped there has no warnings.
    path.write_text(json.dumps(scenario_raw(
        model={"order": 3}, packet={"q0": -2.5, "energy": 0.98, "sigma0": 0.5,
                                    "third_moment_convention": "zero"},
        integrator={"t_max": 1.0}, output={"path": str(stem)},
    )))
    assert main(["simulate", "--config", str(path)]) == 0
    assert "warnings" not in json.loads(stem.with_suffix(".summary.json").read_text())
    assert capsys.readouterr().err == ""


def test_a_negative_covariance_warns_and_exits_zero(tmp_path, capsys):
    # An order-2 packet in a steep well at loose tolerances: G20*G02 -
    # G11**2 falls through zero, which no state can have, so the run stops
    # there, as an order-3 run does, with one warning line, and exits 0.
    stem = tmp_path / "well"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scenario_raw(
        model={"alpha": -1.31, "a": 1.0, "n": 9, "order": 2},
        packet={"q0": -2.2, "p0": 0.4, "sigma0": 0.4},
        integrator={"rtol": 1e-3, "atol": 1e-3, "t_max": 3.0},
        output={"path": str(stem)},
    )))
    assert main(["simulate", "--config", str(path)]) == 0
    summary = json.loads(stem.with_suffix(".summary.json").read_text())
    assert summary["termination"] == "constraint_violated"
    stop = summary["events"][-1]
    assert stop["kind"] == "constraint"
    assert 2.10 < stop["t"] < 2.11
    assert summary["warnings"] == [
        f"G20*G02 - G11**2 went negative, which no state can have: stopped at "
        f"t = {stop['t']!r} (constraint_violated)"
    ]
    assert capsys.readouterr().err == f"warning: {summary['warnings'][0]}\n"


def test_an_order2_run_past_the_gate_horizon_stops_at_the_bound(tmp_path, capsys):
    # Past t = 2.35 this acceptance packet breaks the closure inside the
    # barrier: its moments grow until G20*G02 - G11**2 falls through zero.
    # The run stops there in well under 100,000 steps; it used to grind
    # through the 2,000,000-attempt budget (1,941,464 steps) and exit 2.
    stem = tmp_path / "late"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scenario_raw(
        packet={"q0": -1.62, "energy": 0.98, "sigma0": 0.3},
        integrator={"atol": 1e-6, "t_max": 8.0, "sample_dt": 1e-3},
        output={"path": str(stem)},
    )))
    assert main(["simulate", "--config", str(path)]) == 0
    summary = json.loads(stem.with_suffix(".summary.json").read_text())
    assert summary["termination"] == "constraint_violated"
    assert summary["stats"]["n_steps"] < 100_000
    assert summary["outcome"]["tag"] == "undetermined"
    assert summary["outcome"]["reason"] == "integration stopped early: constraint_violated"
    stop = summary["events"][-1]
    assert stop["kind"] == "constraint" and 4.6 < stop["t"] < 4.8
    assert summary["warnings"] == [
        f"G20*G02 - G11**2 went negative, which no state can have: stopped at "
        f"t = {stop['t']!r} (constraint_violated)"
    ]
    assert capsys.readouterr().err == f"warning: {summary['warnings'][0]}\n"


def test_a_surface_on_a_negative_covariance_run_warns_as_simulate_does(tmp_path, capsys):
    # The reproducer above with a small surface: the surface's reference run
    # is the simulate run, so it carries the same warning.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scenario_raw(
        model={"alpha": -1.31, "a": 1.0, "n": 9, "order": 2},
        packet={"q0": -2.2, "p0": 0.4, "sigma0": 0.4},
        integrator={"rtol": 1e-3, "atol": 1e-3, "t_max": 3.0},
        surface={"q": {"start": -3.0, "stop": 3.0, "count": 5},
                 "t": {"start": 0.0, "stop": 3.0, "count": 4}},
    )))
    assert main(["surface", "--config", str(path), "--out", str(tmp_path / "surface")]) == 0
    summary = json.loads((tmp_path / "surface.summary.json").read_text())
    assert len(summary["warnings"]) == 1
    assert capsys.readouterr().err == f"warning: {summary['warnings'][0]}\n"
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    simulated = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["warnings"] == simulated["warnings"]


@pytest.mark.parametrize("sample_dt", [1e-300, 5e-324])
def test_a_sample_grid_of_2_53_indices_is_a_config_error(tmp_path, capsys, sample_dt):
    # The loop counts grid indices in floats, where i + 1.0 == i from 2**53.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scenario_raw(integrator={"t_max": 0.01, "sample_dt": sample_dt})))
    with time_bound(10):
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == (
        "config error: integrator.sample_dt must give fewer than 2**53 samples over t_max\n"
    )
    assert not (tmp_path / "run.csv").exists()


def test_a_run_at_the_gate_setting_has_no_warnings(tmp_path, capsys):
    # The acceptance scenario at the gate's tolerances keeps the residual
    # within roundoff of zero.
    stem = tmp_path / "gate"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scenario_raw(
        packet={"q0": -1.62, "energy": 0.98, "sigma0": 0.30},
        integrator={"rtol": 1e-10, "atol": 1e-6, "t_max": 2.35},
        output={"path": str(stem)},
    )))
    assert main(["simulate", "--config", str(path)]) == 0
    summary = json.loads(stem.with_suffix(".summary.json").read_text())
    assert abs(summary["stats"]["residual_min"]) < 0.25
    assert "warnings" not in summary
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("start,stop,bad", [(1e-170, 0.5, 0), (0.5, 1e160, 1)])
def test_a_sweep_over_an_overflowing_sigma0_gets_an_error_row(tmp_path, start, stop, bad):
    raw = scenario_raw(
        sweep={"parameter": "sigma0", "start": start, "stop": stop, "count": 2},
        integrator={"t_max": 1.0},
    )
    run_sweep(build_config(raw), str(tmp_path / "s"))
    rows = sweep_table(tmp_path / "s.csv")
    assert rows[bad]["outcome"] == "undetermined"
    assert rows[bad]["termination"] == (
        f"error: packet.sigma0 = {(start, stop)[bad]!r} gives initial moments outside the "
        "float range"
    )
    assert rows[1 - bad]["termination"] == "reached_tmax"


def test_nonfinite_start_exit_code(tmp_path, monkeypatch, capsys):
    # An RHS that is nan at the start: the run fails before any step and
    # the message names the cause; the table holds the initial state.
    import momentous.integrator as integrator

    monkeypatch.setattr(integrator, "rhs_source", lambda model: lambda y: [math.nan] * len(y))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scenario_raw(output={"path": str(tmp_path / "n")})))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "integration failed: step failure (nonfinite_start)" in err
    summary = json.loads((tmp_path / "n.summary.json").read_text())
    assert summary["stats"]["failure"] == "nonfinite_start"
    assert summary["stats"]["n_rhs"] == 1 and summary["n_samples"] == 1
    assert summary["outcome"]["tag"] == "undetermined"


def test_sweep_point_errors_become_rows_but_bugs_propagate(tmp_path, monkeypatch):
    import momentous.cli as cli

    # An invalid point (sigma0 <= 0) is a configuration error: an error row.
    raw = scenario_raw(
        sweep={"parameter": "sigma0", "start": -0.1, "stop": 0.5, "count": 2},
        integrator={"t_max": 1.0},
    )
    run_sweep(build_config(raw), str(tmp_path / "cfgerr"))
    rows = sweep_table(tmp_path / "cfgerr.csv")
    assert rows[0]["outcome"] == "undetermined"
    assert rows[0]["termination"].startswith("error: packet.sigma0")
    assert not rows[1]["termination"].startswith("error:")

    # So is a slow packet in a well, whose energy is not positive.
    well = scenario_raw(
        model={"alpha": -1.0},
        packet={"q0": -2.5, "p0": 0.5},
        sweep={"parameter": "p0", "start": 0.01, "stop": 0.5, "count": 2},
        integrator={"t_max": 1.0},
    )
    run_sweep(build_config(well), str(tmp_path / "well"))
    rows = sweep_table(tmp_path / "well.csv")
    assert rows[0]["termination"] == "error: packet.energy must be positive"
    assert rows[1]["termination"] == "reached_tmax"

    # A plain ValueError is a defect, not a sweep outcome: it must propagate.
    def broken(*args, **kwargs):
        raise ValueError("stepper defect")

    monkeypatch.setattr(cli, "integrate", broken)
    with pytest.raises(ValueError, match="stepper defect"):
        run_sweep(build_config(raw), str(tmp_path / "bug"))
