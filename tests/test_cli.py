import json
import math
import re
from pathlib import Path

import pytest

import momentous.dynamics as dynamics
from momentous import BarrierPotential
from momentous.cli import (
    ConfigError,
    build_config,
    main,
    run_check_algebra,
    run_simulate,
    run_surface,
    run_sweep,
)
from momentous.moment_algebra import MomentPolynomial


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
    "model": {"alpha": 1.5, "a": 1.2, "n": 3, "mass": 2.0, "hbar": 0.5, "order": 3,
              "veff_third_moment": False},
    "packet": {"q0": -3.0, "energy": 0.6, "sigma0": 0.4, "third_moment_convention": "zero"},
    "integrator": {"rtol": 1e-9, "atol": 1e-8, "t_max": 5.0, "max_step": 0.05,
                   "escape_radius": 20.0, "sample_dt": 0.02},
    "classify": {"margin": 0.1},
    "sweep": {"parameter": "q0", "start": -3.5, "stop": -2.5, "count": 3, "fixed_energy": False},
    "surface": {"q": {"start": -2.0, "stop": 2.0, "count": 5},
                "t": {"start": 0.0, "stop": 1.0, "count": 2}},
    "output": {"path": "out/all", "format": "csv"},
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
    pytest.param(faulty("model", veff_third_moment="yes"),
                 "model.veff_third_moment must be a boolean",
                 id="model_veff_third_moment_must_be_a_boolean_not_a_string"),
    pytest.param(faulty("model", veff_third_moment=None),
                 "model.veff_third_moment must be a boolean",
                 id="model_veff_third_moment_must_be_a_boolean_not_null"),
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
    (faulty("output", format="json"), "output.format must be 'csv'"),
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
]


@pytest.mark.parametrize("config_text, message", REJECTED, ids=message_ids(REJECTED))
def test_main_rejects_config_without_traceback(tmp_path, capsys, config_text, message):
    path = tmp_path / "bad.json"
    path.write_text(config_text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run.csv").exists()


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


def test_simulate_order0_schema(tmp_path):
    raw = scenario_raw()
    raw["model"]["order"] = 0
    cfg = build_config(raw)
    run_simulate(cfg, str(tmp_path / "c"))
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "t,q,p"
    assert all(line.count(",") == 2 for line in lines[1:])


def test_classical_command_and_order_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scenario_raw(output={"path": str(tmp_path / "d")})))
    assert main(["classical", "--config", str(path)]) == 0
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


def test_sweep_degenerate_matches_simulate(tmp_path):
    raw = scenario_raw(sweep={"parameter": "q0", "start": -2.5, "stop": -2.5, "count": 1})
    cfg = build_config(raw)
    run_sweep(cfg, str(tmp_path / "s"))
    rows = (tmp_path / "s.csv").read_text().splitlines()
    assert len(rows) == 2
    sim = run_simulate(build_config(scenario_raw()), str(tmp_path / "t"))
    fields = rows[1].split(",")
    assert fields[2] == sim["outcome"]["tag"]
    assert float(fields[7]) == pytest.approx(sim["outcome"]["final_q"], rel=1e-12)
    assert float(fields[8]) == pytest.approx(sim["outcome"]["final_p"], rel=1e-12)
    assert fields[11] == sim["termination"]


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
    rows = (tmp_path / "u.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[2] == "undetermined" for row in rows)


def test_sweep_worker_pool_matches_serial(tmp_path):
    raw = scenario_raw(sweep={"parameter": "q0", "start": -2.6, "stop": -2.2, "count": 4})
    cfg = build_config(raw)
    run_sweep(cfg, str(tmp_path / "serial"), workers=1)
    run_sweep(cfg, str(tmp_path / "pool"), workers=2)
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pool.csv").read_bytes()


@pytest.mark.parametrize(
    "workers, cpus, pool_size",
    [(10_000, 64, 3), (2, 2, 2), (10_000, 1, None), (4, None, None), (1, 64, None)],
    ids=["capped_at_points", "two_cpus", "one_cpu", "cpu_count_unknown", "one_worker"],
)
def test_sweep_workers_capped_at_points_and_cpus(tmp_path, monkeypatch, workers, cpus, pool_size):
    # A fake pool records its size and maps in-process: no process is started.
    import momentous.cli as cli

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    raw = scenario_raw(
        sweep={"parameter": "q0", "start": -2.6, "stop": -2.2, "count": 3},
        integrator={"t_max": 1.0},
    )
    summary = run_sweep(build_config(raw), str(tmp_path / "capped"), workers=workers)
    assert sizes == ([] if pool_size is None else [pool_size])
    assert summary["n_rows"] == 3


def test_sweep_q0_keeps_energy_fixed(tmp_path):
    raw = scenario_raw(sweep={"parameter": "q0", "start": -3.0, "stop": -2.0, "count": 3})
    cfg = build_config(raw)
    assert cfg.sweep["fixed_energy"] is True
    run_sweep(cfg, str(tmp_path / "e"))
    rows = (tmp_path / "e.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == [-3.0, -2.5, -2.0]


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
    rows = [line.split(",") for line in (tmp_path / "sig.csv").read_text().splitlines()[1:]]
    assert [float(r[1]) for r in rows] == [0.4, 0.5, 0.6]
    assert all(r[2] in {"reflected", "tunneled", "trapped", "undetermined"} for r in rows)


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
    true_table = dynamics.eom_table

    def tampered(order):
        table = dict(true_table(order))
        table["q"] = MomentPolynomial().add(2, p_power=1, mass_power=-1)
        return table

    monkeypatch.setattr(dynamics, "eom_table", tampered)
    code, text = run_check_algebra()
    assert code == 3
    assert "MISMATCH (UNEXPECTED)" in text


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
    # A surface summary has no stats; it names the cause at top level.
    grid = {"start": -1.0, "stop": 1.0, "count": 3}
    surface_cfg = build_config(
        scenario_raw(surface={"q": grid, "t": grid}, output={"path": str(tmp_path / "h")})
    )
    object.__setattr__(surface_cfg.integrator, "max_steps", 1)
    monkeypatch.setattr(cli, "load_config", lambda p, o=None: surface_cfg)
    assert main(["surface", "--config", str(path)]) == 2
    assert "integration failed: step failure (budget)" in capsys.readouterr().err
    summary = json.loads((tmp_path / "h.summary.json").read_text())
    assert summary["failure"] == "budget"


def test_sweep_point_errors_become_rows_but_bugs_propagate(tmp_path, monkeypatch):
    import momentous.cli as cli

    # An invalid point (sigma0 <= 0) is a configuration error: an error row.
    raw = scenario_raw(
        sweep={"parameter": "sigma0", "start": -0.1, "stop": 0.5, "count": 2},
        integrator={"t_max": 1.0},
    )
    run_sweep(build_config(raw), str(tmp_path / "cfgerr"))
    rows = [line.split(",") for line in (tmp_path / "cfgerr.csv").read_text().splitlines()[1:]]
    assert rows[0][2] == "undetermined"
    assert rows[0][11].startswith("error: packet.sigma0")
    assert not rows[1][11].startswith("error:")

    # So is a slow packet in a well, whose energy is not positive.
    well = scenario_raw(
        model={"alpha": -1.0},
        packet={"q0": -2.5, "p0": 0.5},
        sweep={"parameter": "p0", "start": 0.01, "stop": 0.5, "count": 2},
        integrator={"t_max": 1.0},
    )
    run_sweep(build_config(well), str(tmp_path / "well"))
    rows = [line.split(",") for line in (tmp_path / "well.csv").read_text().splitlines()[1:]]
    assert rows[0][11] == "error: packet.energy must be positive"
    assert rows[1][11] == "reached_tmax"

    # A plain ValueError is a defect, not a sweep outcome: it must propagate.
    def broken(*args, **kwargs):
        raise ValueError("stepper defect")

    monkeypatch.setattr(cli, "integrate", broken)
    with pytest.raises(ValueError, match="stepper defect"):
        run_sweep(build_config(raw), str(tmp_path / "bug"))
