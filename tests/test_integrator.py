import ast
import dataclasses
import gc
import itertools
import json
import linecache
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from momentous import (
    BarrierPotential,
    GaussianPacket,
    IntegratorConfig,
    ModelConfig,
    MomentState,
    Termination,
    effective_hamiltonian,
    effective_potential,
    initial_moments,
    integrate,
    uncertainty_residual,
)
import momentous
from momentous import dynamics, integrator, native
from momentous.dynamics import (
    RhsSource, _compile, _state_row, make_rhs, rhs_source, series_source,
)
from momentous.integrator import (
    PLAN_CACHE_SIZE,
    Trajectory,
    _EventSpec,
    _c_units,
    _dense,
    _event_specs,
    _events,
    _initial_step,
    _kernel,
    _plan,
    _propagate,
    _step,
    resolve_escape_radius,
)

from conftest import TABLEAU, rng, scenario_packet, tight_integrator

# Both branches of the error norm's summation (below 8 terms and the 8-lane
# tree), a remainder after the tree, and a second 8-lane block.
STEP_DIMENSIONS = (1, 2, 5, 8, 9, 17)


def source(*exprs, **bound):
    """The RHS ``[exprs[0], exprs[1], ...]`` over the state components
    ``{y0}, {y1}, ...`` as an :class:`RhsSource` with the constants
    ``bound``: the C kernel's and the Python loop's RHS alike."""
    lines = [f"{{k{i}}} = {expr}" for i, expr in enumerate(exprs)]
    return RhsSource("\n".join(lines), f"rhs [{', '.join(exprs)}]", bound)


def function(rhs, d):
    """The RHS source ``rhs`` over ``d`` components as a callable, as the
    Python loop runs it."""
    return _compile(rhs, d)(**rhs.bound)


# A free particle and an oscillator.
FREE = source("{y1}", "0.0")
OSCILLATOR = source("{y1}", "-{y0}")


def same_rows(states, rows):
    """Whether the float64 array ``states`` holds the list of lists ``rows``
    bit for bit: same shape and same bytes, which tell -0.0 from 0.0."""
    want = np.array(rows, dtype=float)
    return states.shape == want.shape and states.tobytes() == want.tobytes()


def matches_reference(rhs, t0, y0, icfg, specs=()):
    """The Python loop's run of the RHS source ``rhs``, which must equal its
    reference, the C kernel's run, bit for bit (:func:`assert_same_run`);
    where kernels can be built, the kernel must load for it. The run is
    returned with its times array as a list of Python floats."""
    assert_kernel_runs(len(y0), specs, rhs)
    got = python_loop_run(_propagate, rhs, t0, y0, icfg, specs)
    assert_same_run(got, _propagate(rhs, t0, y0, icfg, specs))
    times, *rest = got[:5]
    assert times.dtype == np.float64
    return (times.tolist(), *rest)


def classical_inbound(pot, energy, q0):
    p0 = math.sqrt(2 * (energy - pot(q0)))
    return MomentState(t=0.0, q=q0, p=p0, moments=())


def test_free_linear_motion(barrier):
    model = ModelConfig(potential=barrier, order=0)
    init = MomentState(t=0.0, q=-50.0, p=1.0, moments=())
    traj = integrate(init, model, tight_integrator(t_max=10.0, escape_radius=1e6))
    assert traj.termination is Termination.REACHED_TMAX
    assert traj.times[-1] == pytest.approx(10.0, abs=1e-12)
    assert traj.q[-1] == pytest.approx(-40.0, abs=1e-9)


def test_free_packet_spreading_closed_form(barrier):
    sigma0, hbar, mass = 0.5, 1.0, 1.0
    packet = GaussianPacket(q0=-50.0, p0=1.0, sigma0=sigma0)
    model = ModelConfig(potential=barrier, mass=mass, hbar=hbar, order=2)
    traj = integrate(
        initial_moments(packet, model), model, tight_integrator(t_max=10.0, escape_radius=1e6)
    )
    t = traj.times
    g20 = sigma0**2 + hbar**2 * t**2 / (4 * mass**2 * sigma0**2)
    g11 = -(hbar**2) * t / (4 * mass * sigma0**2)
    g02 = np.full_like(t, hbar**2 / (4 * sigma0**2))
    assert np.max(np.abs(traj.states[:, 2] - g20) / g20) <= 1e-8
    assert np.max(np.abs(traj.states[:, 3] - g11)) <= 1e-8 * np.max(np.abs(g11))
    assert np.max(np.abs(traj.states[:, 4] - g02) / g02) <= 1e-8
    assert np.nanmax(np.abs(traj.uncertainty)) <= 1e-8


def test_classical_reflection_escape(barrier):
    energy = barrier.height / 1.46484
    init = classical_inbound(barrier, energy, -10.0)
    model = ModelConfig(potential=barrier, order=0)
    traj = integrate(
        init, model, tight_integrator(t_max=40.0),
        mark_positions=barrier.turning_points(energy),
    )
    assert traj.termination is Termination.ESCAPED
    assert abs(traj.p[-1] + init.p) <= 1e-6
    assert abs(traj.q[-1]) == pytest.approx(10.0, abs=1e-9)
    assert traj.q[-1] * traj.p[-1] > 0  # outbound at the stop
    x = barrier.turning_points(energy)[1]
    assert traj.q.max() <= -x + 1e-8


def test_energy_drift_across_scenarios(barrier):
    model = ModelConfig(potential=barrier, order=2)
    for q0 in (-2.5, -1.8):
        packet = scenario_packet(barrier, q0, sigma0=0.5)
        traj = integrate(initial_moments(packet, model), model, tight_integrator())
        assert traj.energy_drift <= 1e-8


def test_tolerance_convergence(barrier):
    # Halving the tolerances moves the endpoint by less than 10x the new
    # tolerance on the standard scenario.
    model = ModelConfig(potential=barrier, order=2)
    packet = scenario_packet(barrier, -2.5, sigma0=0.5)
    init = initial_moments(packet, model)

    def endpoint(tol):
        icfg = IntegratorConfig(rtol=tol, atol=tol, t_max=3.0, escape_radius=1e6)
        return integrate(init, model, icfg).q[-1]

    tol = 1e-10
    assert abs(endpoint(tol) - endpoint(tol / 2)) < 10 * (tol / 2)


def test_determinism_bit_identical(barrier):
    model = ModelConfig(potential=barrier, order=2)
    packet = scenario_packet(barrier, -1.62, sigma0=0.3)
    init = initial_moments(packet, model)
    icfg = IntegratorConfig(rtol=1e-10, atol=1e-6, t_max=2.35)
    marks = barrier.turning_points(0.98)
    a = integrate(init, model, icfg, marks)
    b = integrate(init, model, icfg, marks)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert len(a.events) == len(b.events)
    for ea, eb in zip(a.events, b.events):
        assert (ea.t, ea.kind, ea.direction, ea.marker) == (eb.t, eb.kind, eb.direction, eb.marker)
        assert ea.state == eb.state


def test_momentum_events_alternate_and_are_sharp(barrier):
    energy = 0.98
    model = ModelConfig(potential=barrier, order=2)
    packet = scenario_packet(barrier, -1.618, sigma0=0.3, energy=energy)
    init = initial_moments(packet, model)
    traj = integrate(
        init, model, IntegratorConfig(rtol=1e-10, atol=1e-6, t_max=2.35),
        mark_positions=barrier.turning_points(energy),
    )
    flips = [e for e in traj.events if e.kind == "p_zero"]
    assert len(flips) >= 2
    directions = [e.direction for e in flips]
    assert all(d1 != d2 for d1, d2 in zip(directions, directions[1:]))
    for e in flips:
        assert abs(e.state.p) <= 1e-9  # dense-output root polish
        assert traj.times[0] < e.t <= traj.times[-1]
    crossings = [e for e in traj.events if e.kind == "q_cross"]
    assert crossings
    for e in crossings:
        assert e.marker is not None
        assert abs(e.state.q - e.marker) <= 1e-9
    # Event points are merged into the sample list.
    assert np.all(np.diff(traj.times) > 0)


def test_sampling_grid_and_event_rows(barrier):
    model = ModelConfig(potential=barrier, order=0)
    init = MomentState(t=0.0, q=-50.0, p=1.0, moments=())
    traj = integrate(init, model, tight_integrator(t_max=1.0, escape_radius=1e6, sample_dt=0.25))
    assert traj.times[0] == 0.0
    grid = [0.25 * k for k in range(5)]
    for g in grid:
        assert np.min(np.abs(traj.times - g)) <= 1e-9


def test_order3_under_the_zero_convention_is_order2(barrier):
    # With every third moment zero at t = 0 the order-3 system keeps them
    # zero, and its other components follow the order-2 equations: the runs
    # differ only by the step control of the 9-component error norm.
    packet = scenario_packet(barrier, -2.5, sigma0=0.5, third_moment_convention="zero")
    runs = []
    for order in (2, 3):
        model = ModelConfig(potential=barrier, order=order)
        runs.append(integrate(initial_moments(packet, model), model, tight_integrator()))
    order2, order3 = runs
    assert order2.termination is order3.termination is Termination.ESCAPED
    third = order3.states[:, 5:]
    assert np.all(third == 0.0) and not np.signbit(third).any()
    common, i2, i3 = np.intersect1d(order2.times, order3.times, return_indices=True)
    assert len(common) > 600
    assert np.max(np.abs(order3.states[i3, :5] - order2.states[i2])) <= 1e-7


def test_constraint_violation_stops_skewed_third_order(barrier):
    packet = scenario_packet(barrier, -2.5, sigma0=0.5)  # skewed third moment
    model = ModelConfig(potential=barrier, order=3)
    init = initial_moments(packet, model)
    stops = []
    for atol in (1e-6, 1e-10):
        traj = integrate(init, model, tight_integrator(atol=atol))
        assert traj.termination is Termination.CONSTRAINT_VIOLATED
        # Stopped where G20*G02 - G11**2 turns negative, so the residual is
        # -hbar**2/4 (to roundoff) and no earlier sample is below it.
        g20, g11, g02 = traj.states[-1, 2:5]
        assert abs(g20 * g02 - g11 * g11) <= 1e-12
        assert traj.uncertainty[-1] == pytest.approx(-0.25, abs=1e-12)
        assert np.all(traj.uncertainty[:-1] > -0.25)
        assert np.all(np.diff(traj.times) > 0)
        events = [e for e in traj.events if e.kind == "constraint"]
        assert len(events) == 1 and events[0].direction == -1
        assert events[0].t == traj.times[-1]
        stops.append(events[0].t)
    # The physics sets the stop time, not the tolerance.
    assert 0.66 < stops[0] < 0.68
    assert stops[0] == pytest.approx(stops[1], abs=5e-7)


def test_step_failure_on_blowup():
    # dy/dt = y^2 from y(0) = 1 blows up at t = 1; the guards must surface a
    # step failure and return the partial trajectory.
    times, states, events, termination, stats = matches_reference(
        source("{y0} * {y0}"),
        0.0,
        np.array([1.0]),
        IntegratorConfig(rtol=1e-10, atol=1e-10, t_max=2.0, max_step=0.5, sample_dt=0.05),
    )
    assert termination is Termination.STEP_FAILURE
    assert stats["failure"] == "blowup"
    assert times[-1] < 1.0 + 1e-6
    assert states[-1][0] > 1e6
    assert all(b > a for a, b in zip(times, times[1:]))


def coupled_rhs(d, seed):
    """A nonlinear map on ``d`` float components that couples neighbours,
    as an RHS source."""
    lin, quad = rng(seed).normal(size=(2, d)).tolist()
    return source(*(f"l{i} * {{y{i}}} + q{i} * {{y{(i - 1) % d}}} * {{y{(i + 1) % d}}}"
                    for i in range(d)),
                  **{f"l{i}": lin[i] for i in range(d)}, **{f"q{i}": quad[i] for i in range(d)})


def coupled_events(d, y0):
    """A sign event on the last component, a marker just right of the start
    on the first, and a stop when ``|y0|`` rises through 3."""
    return (
        _EventSpec(f"{{y{d - 1}}}", kind="sign"),
        _EventSpec("{y0} - {c0}", kind="marker", values=(y0[0] + 0.05,)),
        _EventSpec("fabs({y0}) - {c0}", kind="stop", values=(3.0,),
                   stop=Termination.ESCAPED, direction=1),
    )


@pytest.mark.parametrize("d", STEP_DIMENSIONS)
def test_generated_step_matches_reference_bit_for_bit(d):
    # The whole loop, events included, on a coupled nonlinear map; the runs
    # reach t_max, stop at an event or blow up.
    gen = rng(100 + d)
    rhs = coupled_rhs(d, d)
    located = []
    for _ in range(8):
        y0 = (gen.normal(size=d) * 10.0 ** gen.uniform(-3, 2, size=d)).tolist()
        rtol, atol = 10.0 ** gen.uniform(-12, -4, size=2)
        icfg = IntegratorConfig(rtol=rtol, atol=atol, t_max=1.5, sample_dt=0.1)
        _, _, events, _, stats = matches_reference(rhs, 0.0, y0, icfg, coupled_events(d, y0))
        assert stats["n_steps"] > 2
        located += events
    assert located


@pytest.mark.parametrize("d", STEP_DIMENSIONS)
def test_generated_rms_matches_reference_bit_for_bit(d):
    # The starting step's three norms: one step attempt, accepted, ends at
    # the step size of the Python loop's starting-step heuristic.
    gen = rng(300 + d)
    lin = gen.normal(size=d).tolist()
    rhs = source(*(f"l{i} * {{y{i}}}" for i in range(d)), **{f"l{i}": lin[i] for i in range(d)})
    f = function(rhs, d)
    for _ in range(25):
        y0 = (gen.normal(size=d) * 10.0 ** gen.uniform(-3, 3, size=d)).tolist()
        rtol, atol = 10.0 ** gen.uniform(-12, -4, size=2)
        icfg = IntegratorConfig(rtol=rtol, atol=atol, t_max=1e3, max_step=1e3, max_steps=1)
        times, _, _, _, stats = matches_reference(rhs, 0.0, y0, icfg)
        assert stats["n_steps"] == 1 and stats["failure"] == "budget"
        h = _initial_step(f, y0, f(y0), rtol, atol, 1e3, 1e3)
        assert times[-1] == h == stats["h_max"]


def test_the_tableau_is_the_one_typed_in_the_tests():
    # The C kernel and the Python loop both read the integrator's tables, so
    # a mistyped weight runs the same in both: the copy typed in the tests
    # is what shows it, bit for bit (repr spells every float exactly).
    for name, want in TABLEAU.items():
        assert repr(getattr(integrator, name)) == repr(want), name


def poisoned(base, call, component, bad):
    """``base`` with ``component`` of its ``call``-th result set to ``bad``,
    and the list holding its call count."""
    count = [0]

    def f(y):
        count[0] += 1
        out = base(y)
        if count[0] == call:
            out[component] = bad
        return out

    return f, count


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("d", STEP_DIMENSIONS)
def test_generated_step_stops_at_a_nonfinite_stage(d, bad):
    # Position c in 1..6 poisons the c-th RHS call of the first step attempt
    # (calls 1 and 2 are k1 and the starting-step probe). For c <= 5 the next
    # stage state (after call 5, the update) is not finite and the attempt
    # ends after c calls; a poisoned k7 (call 6) leaves only err non-finite.
    # Either way the attempt is a non-finite rejection and the run goes on.
    # A poisoned callable has no C translation: this runs the Python loop.
    base = function(coupled_rhs(d, d), d)
    y0 = rng(200 + d).normal(size=d).tolist()
    icfg = IntegratorConfig(rtol=1e-10, atol=1e-6, t_max=0.05, max_step=0.01)
    for position in range(1, 7):
        for component in {0, d - 1}:
            f, count = poisoned(base, 2 + position, component, bad)
            stats = _propagate(f, 0.0, y0, icfg)[4]
            assert count == [stats["n_rhs"]]
            assert stats["n_rejected_nonfinite"] == 1
            # Two start-up calls, `position` in the poisoned attempt, six in
            # every other.
            assert stats["n_rhs"] == 2 + position + 6 * (stats["n_steps"] + stats["n_rejected_error"])


def test_nonfinite_first_derivative_fails_like_the_reference():
    # A non-finite k1 from the first RHS call ends the run at once, in both
    # loops: no starting-step probe, no step attempt, only the start row.
    icfg = IntegratorConfig(rtol=1e-10, atol=1e-6, t_max=1.0, max_steps=20)
    for bad, component in itertools.product((math.inf, -math.inf, math.nan), (0, 1)):
        weights = {"w0": 1.0, "w1": 1.0, f"w{component}": bad}
        times, states, events, termination, stats = matches_reference(
            source("w0 * {y0}", "w1 * {y1}", **weights), 0.0, [0.5, -0.2], icfg
        )
        assert termination is Termination.STEP_FAILURE
        assert stats["failure"] == "nonfinite_start"
        assert stats["n_rhs"] == 1
        assert stats["n_steps"] == stats["n_rejected"] == 0
        assert (times, events) == ([0.0], [])
        assert same_rows(states, [[0.5, -0.2]])


def test_nonfinite_starting_step_fails_like_the_reference():
    # A finite k1 at a nan state gives a nan starting step: the run ends
    # after the probe, before any step attempt, and keeps only the start
    # row, its nan and -0.0 included.
    icfg = IntegratorConfig(rtol=1e-10, atol=1e-6, t_max=1.0, max_steps=20)
    times, states, events, _, stats = matches_reference(
        source("1.0", "0.0"), 0.0, [math.nan, -0.0], icfg
    )
    assert stats["failure"] == "nonfinite_start"
    assert stats["n_rhs"] == 2
    assert stats["n_steps"] == stats["n_rejected"] == 0
    assert (times, events) == ([0.0], [])
    assert same_rows(states, [[math.nan, -0.0]])


def test_a_zero_starting_step_fails_like_the_reference():
    # k1's norm overflows, so the starting step h0 = 0.01 * norm0 / norm1
    # is 0: the run ends before the probe, whose norm divides by h0, in
    # both loops, where it used to raise ZeroDivisionError.
    times, states, events, termination, stats = matches_reference(
        FREE, 0.0, [0.0, 1e160], IntegratorConfig()
    )
    assert termination is Termination.STEP_FAILURE
    assert stats["failure"] == "nonfinite_start" and stats["n_rhs"] == 1
    assert (times, events) == ([0.0], [])


def integrate_args(barrier, order, q0, sigma0, convention, **overrides):
    """The arguments of an ``integrate`` call on the standard scenario,
    marking the classical return points."""
    model = ModelConfig(potential=barrier, order=order)
    packet = scenario_packet(barrier, q0, sigma0, third_moment_convention=convention)
    return (initial_moments(packet, model), model, tight_integrator(**overrides),
            barrier.turning_points(0.98))


def model_run(barrier, order, q0, sigma0, convention, **overrides):
    """RHS factory, the RHS source that ``integrate`` splices into its loop,
    start vector, config and event specs of the ``integrate`` call of
    :func:`integrate_args`."""
    init, model, icfg, marks = integrate_args(barrier, order, q0, sigma0, convention, **overrides)
    f = make_rhs(model)
    specs = _event_specs(model, icfg.escape_radius, marks)
    return (lambda: f), rhs_source(model), np.array(_state_row(init, model)), icfg, specs


MODEL_RUNS = [
    pytest.param(2, -1.62, 0.3, "zero", dict(atol=1e-6, t_max=2.35, sample_dt=0.1),
                 Termination.REACHED_TMAX, id="order2-coarse-samples"),
    pytest.param(2, -2.5, 0.5, "zero", dict(t_max=3.0, sample_dt=0.001),
                 Termination.REACHED_TMAX, id="order2-fine-samples"),
    pytest.param(3, -2.5, 0.5, "skewed", {},
                 Termination.CONSTRAINT_VIOLATED, id="order3-constraint"),
    pytest.param(3, -1.62, 0.3, "zero", dict(atol=1e-6, t_max=2.35),
                 Termination.REACHED_TMAX, id="order3-zero"),
    pytest.param(0, -3.0, 0.5, "zero", {},
                 Termination.ESCAPED, id="order0-escaped"),
    pytest.param(2, -12.0, 0.5, "zero", dict(t_max=40.0, escape_radius=10.0),
                 Termination.ESCAPED, id="order2-inward-then-escaped"),
]


def _a_model_kernel_loads() -> bool:
    """Whether ``native.load`` finds or builds, and loads, the kernel of an
    order-2 model run. Under ``CC=false``, say, the compiler is on the path
    but no kernel builds, and every model run takes the Python loop."""
    model = ModelConfig(potential=BarrierPotential(), order=2)
    events = _events(_event_specs(model, None, ()))
    return native.load(_c_units(5, events, rhs_source(model), series_source(model))) is not None


# Asked once, with the compiler and kernel cache of the session, before any
# test sets its own.
KERNELS_BUILD = _a_model_kernel_loads()


def assert_kernel_runs(d, specs, source):
    """Where kernels can be built, the model run of ``source`` and
    ``specs`` goes through the C kernel, not the Python loop."""
    if KERNELS_BUILD:
        assert _kernel(d, _events(specs), source) is not None


@pytest.fixture
def fresh_kernels():
    """Kernels looked up afresh in the test and after it, so the compiler
    and cache a test sets reach no other test."""
    _kernel.cache_clear()
    yield
    _kernel.cache_clear()


@pytest.mark.parametrize("order,q0,sigma0,convention,overrides,termination", MODEL_RUNS)
def test_loop_matches_reference_on_model_runs(
    request, barrier, order, q0, sigma0, convention, overrides, termination
):
    _, rhs, y0, icfg, specs = model_run(barrier, order, q0, sigma0, convention, **overrides)
    times, _, events, got, stats = matches_reference(rhs, 0.0, y0, icfg, specs)
    assert got is termination
    case = request.node.callspec.id
    if case == "order2-coarse-samples":
        assert len(times) < stats["n_steps"]
        assert {"p_zero", "q_cross"} <= {spec.kind for _, spec, _, _ in events}
    if case == "order2-fine-samples":
        assert len(times) > 10 * stats["n_steps"]
    if case == "order2-inward-then-escaped":
        # The inward crossing of the escape radius is filtered out.
        assert [d for _, spec, d, _ in events if spec.kind == "escape"] == [1]
        assert np.abs(y0[0]) > icfg.escape_radius


@pytest.mark.parametrize("order", [0, 2, 3])
def test_a_model_run_counts_every_rhs_evaluation(barrier, order):
    # The spliced RHS is no call to count: n_rhs must still be the number of
    # evaluations that a logging callable sees on the same run.
    make_f, rhs, y0, icfg, specs = model_run(barrier, order, -1.62, 0.3, "zero",
                                             atol=1e-6, t_max=2.35)
    f = make_f()
    calls = []

    def logged(y):
        calls.append(None)
        return f(y)

    stats = _propagate(rhs, 0.0, y0, icfg, specs)[4]
    assert _propagate(logged, 0.0, y0, icfg, specs)[4] == stats
    assert stats["n_rejected_nonfinite"] == 0 and stats["n_steps"] > 20
    assert stats["n_rhs"] == len(calls)


def python_loop_run(run, *args):
    """``run(*args)`` with the kernel loader failing, so that it runs the
    Python loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrator, "_kernel", lambda *args: None)
        return run(*args)


def assert_same_run(got, want):
    """Two ``_propagate`` results byte for byte: the arrays by shape and
    bytes, the raw events, termination and stats by ``repr``."""
    for got_array, want_array in zip(got[:2], want[:2]):
        assert got_array.shape == want_array.shape
        assert got_array.tobytes() == want_array.tobytes()
    assert repr(got[2:5]) == repr(want[2:5])


def assert_same_trajectory(got, want):
    """Two trajectories byte for byte: the sample arrays and the series by
    shape and bytes; the events, termination, stats (the lowest residual
    and its time included) and energy drift by ``repr``."""
    for name in ("times", "states", "h_q", "v_eff", "uncertainty"):
        got_array, want_array = getattr(got, name), getattr(want, name)
        assert got_array.shape == want_array.shape, name
        assert got_array.tobytes() == want_array.tobytes(), name
    assert repr((got.events, got.termination, got.stats, got.energy_drift)) == repr(
        (want.events, want.termination, want.stats, want.energy_drift))


def assert_kernel_integrates(init, model, icfg, marks=()):
    """``integrate``, which must run as the Python loop does, byte for byte;
    where kernels can be built, its run goes through the C kernel."""
    specs = _event_specs(model, icfg.escape_radius, marks)
    events = _events(specs)
    if KERNELS_BUILD:
        assert _kernel(len(init.moments) + 2, events, rhs_source(model),
                       series_source(model)) is not None
    got = integrate(init, model, icfg, marks)
    assert_same_trajectory(got, python_loop_run(integrate, init, model, icfg, marks))
    return got


@pytest.mark.parametrize("order,q0,sigma0,convention,overrides,termination", [
    *MODEL_RUNS,
    # CI's stop.json run: stopped on the constraint between two grid samples.
    pytest.param(3, -2.5, 0.5, "skewed", dict(t_max=2.0, sample_dt=1e-4),
                 Termination.CONSTRAINT_VIOLATED, id="ci-constraint-stop"),
    # q0**(2n) overflows: the blowup guard stops the run before any step.
    pytest.param(2, -1e40, 0.3, "zero", dict(t_max=0.5),
                 Termination.STEP_FAILURE, id="far-blowup"),
])
def test_the_kernel_runs_the_python_loop_bit_for_bit(
    barrier, order, q0, sigma0, convention, overrides, termination
):
    args = integrate_args(barrier, order, q0, sigma0, convention, **overrides)
    _, rhs, y0, icfg, specs = model_run(barrier, order, q0, sigma0, convention, **overrides)
    times, _, _, got, stats = matches_reference(rhs, 0.0, y0, icfg, specs)
    assert got is termination
    if termination is Termination.STEP_FAILURE:
        assert stats["failure"] == "blowup" and stats["n_steps"] == 0
    traj = assert_kernel_integrates(*args)
    assert traj.times.tolist() == times


def test_the_kernel_runs_an_event_that_lands_on_zero_as_the_python_loop(barrier):
    # A marker at the final position: the marker's event function is
    # exactly zero at the end of the last step, which is the event's time.
    init, model, icfg, marks = integrate_args(barrier, 2, -1.62, 0.3, "zero", atol=1e-6,
                                              t_max=2.35)
    _, rhs, y0, _, specs = model_run(barrier, 2, -1.62, 0.3, "zero", atol=1e-6, t_max=2.35)
    times, states, *_ = _propagate(rhs, 0.0, y0, icfg, specs)
    end = float(states[-1, 0])
    specs = [*specs, _EventSpec("{y0} - {c0}", kind="q_cross", values=(end,), marker=end)]
    events = matches_reference(rhs, 0.0, y0, icfg, specs)[2]
    assert [t for t, spec, _, _ in events if spec.marker == end][-1] == times[-1]
    traj = assert_kernel_integrates(init, model, icfg, (*marks, end))
    assert [e.t for e in traj.events if e.marker == end][-1] == traj.times[-1] == times[-1]


def test_the_kernel_runs_a_stop_just_before_a_sample_as_the_python_loop(barrier):
    # Sample grids whose 1000th point lies half, then twice, the grid's
    # slack (1e-9 * sample_dt) past the escape: inside the slack the sample
    # reads the stop state and is dropped as the stop row's duplicate.
    init, model, icfg, marks = integrate_args(barrier, 0, -3.0, 0.5, "zero")
    _, rhs, y0, _, specs = model_run(barrier, 0, -3.0, 0.5, "zero")
    stop = _propagate(rhs, 0.0, y0, icfg, specs)[2][-1][0]
    for share in (0.5, 2.0):
        grid = dataclasses.replace(icfg, sample_dt=stop / (1000 - share * 1e-9))
        times, _, _, termination, _ = matches_reference(rhs, 0.0, y0, grid, specs)
        assert termination is Termination.ESCAPED and times[-1] == stop
        assert times[-2] == 999 * grid.sample_dt and 1000 * grid.sample_dt > stop
        traj = assert_kernel_integrates(init, model, grid, marks)
        assert traj.times.tolist() == times


def test_the_kernel_drops_rows_within_the_window_of_an_event_as_the_python_loop(barrier):
    # Grids whose 1000th point lies 0.75 duplicate windows (1e-12 * max(t -
    # t0, 1)) before, then 0.75 and 2 windows after, the momentum reversal:
    # of two rows within a window, the later one is dropped, the event's
    # row or the grid's.
    init, model, icfg, marks = integrate_args(barrier, 0, -3.0, 0.5, "zero")
    _, rhs, y0, _, specs = model_run(barrier, 0, -3.0, 0.5, "zero")
    te = next(t for t, spec, _, _ in _propagate(rhs, 0.0, y0, icfg, specs)[2]
              if spec.kind == "p_zero")
    window = 1e-12 * max(te, 1.0)
    for share in (-0.75, 0.75, 2.0):
        grid = dataclasses.replace(icfg, sample_dt=(te + share * window) / 1000)
        rows = matches_reference(rhs, 0.0, y0, grid, specs)[0]
        sample = 1000 * grid.sample_dt
        assert abs(sample - te) > 0.5 * window
        assert (te in rows, sample in rows) == {-0.75: (False, True), 0.75: (True, False),
                                                2.0: (True, True)}[share]
        traj = assert_kernel_integrates(init, model, grid, marks)
        assert traj.times.tolist() == rows


@pytest.mark.parametrize("sample_dt, kept", [(1e-12, False), (math.nextafter(1e-12, 1.0), True)],
                         ids=["one_window", "one_float_beyond"])
def test_a_row_exactly_one_window_after_the_last_kept_is_dropped(sample_dt, kept):
    # Below t - t0 = 1 the window is 1e-12, so the first grid row, one
    # sample_dt after the start row at t0 = 0, lies exactly one window after
    # it, and is dropped, or one float step further, and is kept: in the
    # kernel and the Python loop alike.
    icfg = IntegratorConfig(t_max=4 * sample_dt, sample_dt=sample_dt)
    times = matches_reference(FREE, 0.0, [0.0, 1.0], icfg)[0]
    assert times[0] == 0.0 and (sample_dt in times) is kept


@pytest.mark.parametrize("expr,values", [
    ("{y0} - {c0}", ()),
    ("{y0} - {c0}", (1.0, 2.0)),
    ("{y0} - {c1}", (0.5,)),
], ids=["none", "one_too_many", "not_c0"])
@pytest.mark.parametrize("loop", ["kernel", "python"])
def test_event_values_that_miss_the_expression_s_fields_are_rejected(expr, values, loop):
    # One rule, in _propagate, for both loops: a spec's {c<i>} fields are
    # {c0} ... {c<n-1>} for its n values, so {c<i>} reads values[i].
    spec = _EventSpec(expr, kind="q_cross", values=values)
    args = (FREE, 0.0, [0.0, 1.0], IntegratorConfig(t_max=1.0), [spec])
    if loop == "kernel":  # kernels run for a valid spec of the same kind
        assert_kernel_runs(2, [_EventSpec("{y0} - {c0}", kind="q_cross", values=(1.0,))], FREE)
    with pytest.raises(ValueError, match=f"holds {len(values)} values, but its fields"):
        _propagate(*args) if loop == "kernel" else python_loop_run(_propagate, *args)


def test_an_event_reads_its_constants_in_the_order_of_its_fields():
    # 2 t - 1 on the free particle from y0 = 0 at speed 1 rises through zero
    # at t = 0.5; with the constants swapped, t - 2 would reach no zero
    # before t_max 1. Both loops locate it, the same bytes. 2 t - 1.5 shares
    # the first spec's kernel, and its run reads its own constants.
    specs = [_EventSpec("{c1} * {y0} - {c0}", kind="q_cross", values=values)
             for values in ((1.0, 2.0), (1.5, 2.0))]
    assert _events(specs[:1]) == _events(specs[1:])
    for spec, want in zip(specs, (0.5, 0.75)):
        events = matches_reference(FREE, 0.0, [0.0, 1.0], IntegratorConfig(t_max=1.0), [spec])[2]
        [(te, got, direction, _)] = events
        assert got is spec and direction == 1
        assert te == pytest.approx(want, abs=1e-12)


def test_the_python_norm_sums_in_numpy_s_pairwise_order():
    # Bit for bit np.sqrt(np.mean(v * v)) for every length up to 128, the
    # block beyond which numpy's pairwise sum splits in halves: model states
    # have 2, 5 or 9 components.
    gen = rng(400)
    for n in range(1, 129):
        v = gen.normal(size=n) * 10.0 ** gen.uniform(-3, 3, size=n)
        assert integrator._rms(v.tolist()) == np.sqrt(np.mean(v * v)), n


def test_the_nan_series_of_a_far_start_are_each_loop_s_own(barrier):
    # From q0 = -1e45 both q**7 and q**8 overflow, so the jet meets
    # inf * 0: the RHS is nan, so the run keeps only its start row, and so
    # are H_Q and V_eff there. The kernel and the Python loop each write
    # those nan values as they computed them, the same bytes, and nothing
    # warns.
    args = integrate_args(barrier, 2, -1e45, 0.3, "zero", t_max=0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = assert_kernel_integrates(*args)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert got.stats["failure"] == "nonfinite_start" and len(got.times) == 1
    assert np.isnan(got.h_q).all() and np.isnan(got.v_eff).all()


# The CI sweep: six points of the acceptance scenario.
CI_SWEEP = {
    "packet": {"q0": -2.5, "energy": 0.98, "sigma0": 0.3},
    "integrator": {"t_max": 2.35},
    "sweep": {"parameter": "q0", "start": -3.0, "stop": -1.5, "count": 6},
}


@pytest.mark.parametrize("setting", ["missing compiler", "failing compiler", "unwritable cache"])
def test_a_sweep_without_a_kernel_writes_the_same_bytes(
    tmp_path, monkeypatch, fresh_kernels, setting
):
    # No compiler, a compiler that fails and a cache that cannot be written
    # each leave the Python loop, silently: the same files, no temporary
    # file left in the cache and no child process left running.
    from momentous.cli import build_config, run_sweep

    cfg = build_config(CI_SWEEP)
    run_sweep(cfg, str(tmp_path / "kernel"))
    _kernel.cache_clear()
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    if setting == "missing compiler":
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    elif setting == "failing compiler":
        monkeypatch.setenv("CC", "false")
    else:
        cache.write_text("")  # a file where the cache directory would go
    run_sweep(cfg, str(tmp_path / "fallback"))
    specs = _event_specs(cfg.model, cfg.integrator.escape_radius,
                         cfg.model.potential.turning_points(0.98))
    assert _kernel(5, _events(specs), rhs_source(cfg.model)) is None
    for suffix in (".csv", ".summary.json"):
        assert (tmp_path / f"fallback{suffix}").read_bytes() == (tmp_path / f"kernel{suffix}").read_bytes()
    assert not list(tmp_path.rglob("*.tmp"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_loop_of_a_model_run_calls_no_rhs(barrier):
    # integrate runs the C kernel, whose rhs function is the RHS template,
    # jet included, called at the loop's eight RHS sites, and whose series
    # function is the series template, with its own jet, called once per
    # sample row.
    model = ModelConfig(potential=barrier, order=3)
    init = initial_moments(scenario_packet(barrier, -1.62, 0.3), model)
    icfg = tight_integrator(t_max=0.5)
    specs = _event_specs(model, icfg.escape_radius, ())
    events = _events(specs)
    _kernel.cache_clear()
    integrate(init, model, icfg)
    hits = _kernel.cache_info().hits
    ran = _kernel(9, events, rhs_source(model), series_source(model))
    assert _kernel.cache_info().hits == hits + 1  # the kernel integrate looked up
    assert (ran is not None) == KERNELS_BUILD
    c_text = "".join(_c_units(9, events, rhs_source(model), series_source(model)))
    bodies = dict(re.findall(r"\nvoid (rhs|series)\(const double \*y, [^)]*\)\n\{\n(.*?)\n\}",
                             c_text, re.S))
    jet = "_w0 = (alpha / _u0);"
    assert bodies["rhs"].count(jet) == bodies["series"].count(jet) == c_text.count(jet) / 2 == 1
    # k1, the starting-step probe, stages 2-6 and k7
    assert len(re.findall(r"\brhs\((?!const)", c_text)) == 8
    # one call per sample row kept
    assert len(re.findall(r"\bseries\((?!const)", c_text)) == 1


@pytest.mark.parametrize("order", [0, 2, 3])
def test_table_coefficient_reaches_integrate(barrier, order, monkeypatch):
    # integrate splices the RHS source of the eom_table in force: tripling
    # one coefficient of the p equation gives the run of the tampered
    # table's compiled RHS, bit for bit, not that of the loop compiled for
    # the real table before, which is untouched afterwards.
    model = ModelConfig(potential=barrier, order=order)
    init = initial_moments(scenario_packet(barrier, -2.5, 0.5, third_moment_convention="zero"),
                           model)
    icfg = tight_integrator(t_max=2.0, sample_dt=0.05)
    real = integrate(init, model, icfg)
    table = dict(dynamics.eom_table(order))
    term, coeff = next(table["p"].items())
    table["p"] = table["p"].copy().add(2 * coeff, term)
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "eom_table", lambda o: table)
        tampered = integrate(init, model, icfg)
        times, states, *_ = _propagate(make_rhs(model), 0.0, np.array(_state_row(init, model)),
                                       icfg, _event_specs(model, icfg.escape_radius, ()))
    assert same_rows(tampered.states, states.tolist()) and tampered.times.tolist() == times.tolist()
    assert tampered.states.tobytes() != real.states.tobytes()
    assert integrate(init, model, icfg).states.tobytes() == real.states.tobytes()


def test_the_kernel_cache_keeps_the_most_recently_loaded_libraries(monkeypatch, tmp_path):
    # A build deletes the least recently loaded libraries beyond
    # CACHE_SIZE, oldest mtime first, and a load from the cache refreshes
    # the loaded library's mtime.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    if not KERNELS_BUILD:
        pytest.skip("kernels cannot be built here")
    cache = tmp_path / "momentous"
    cache.mkdir()
    old = [cache / f"kernel-{i:016x}.so" for i in range(native.CACHE_SIZE + 2)]
    for i, path in enumerate(old):
        path.write_bytes(b"")
        os.utime(path, ns=(0, (i + 1) * 10**9))
    one = Path(native.load(["double one(void) { return 1.0; }"])._name)
    assert set(cache.iterdir()) == {one, *old[3:]}
    os.utime(one, ns=(0, 0))
    native.load(["double one(void) { return 1.0; }"])
    assert one.stat().st_mtime_ns > len(old) * 10**9
    two = Path(native.load(["double two(void) { return 2.0; }"])._name)
    assert set(cache.iterdir()) == {one, two, *old[4:]}
    assert len(list(cache.iterdir())) == native.CACHE_SIZE


def test_generated_names_follow_the_source_text(barrier, monkeypatch, tmp_path, fresh_kernels):
    # A kernel or RHS function compiled from a substituted eom_table gets a
    # file of its own, named by its text: the cached kernel library, and the
    # name under which linecache keeps the real source for warnings and
    # tracebacks from the real code. The real table's files are untouched.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    model = ModelConfig(potential=barrier, order=2)
    events = _events(_event_specs(model, None, ()))

    def compiled():
        library = native.load(_c_units(5, events, rhs_source(model)))
        return make_rhs(model).__code__.co_filename, library and library._name

    real = compiled()
    real_lines = linecache.getlines(real[0])
    real_library = real[1] and (Path(real[1]).read_bytes(), os.stat(real[1]).st_mtime_ns)
    # The function's dp/dt line, r1 = ...
    dp_dt = next(line for line in real_lines if line.strip().startswith("r1 = "))
    table = dict(dynamics.eom_table(2))
    term, coeff = next(table["p"].items())
    table["p"] = table["p"].copy().add(2 * coeff, term)
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "eom_table", lambda o: table)
        tampered = compiled()
    assert real[0] != tampered[0]
    assert linecache.getlines(real[0]) == real_lines
    assert dp_dt not in linecache.getlines(tampered[0])
    assert tampered[0].startswith("<order-2 rhs kernel n=4 #")
    if KERNELS_BUILD:
        libraries = sorted(p.name for p in (tmp_path / "momentous").iterdir())
        assert libraries == sorted(Path(name).name for name in (real[1], tampered[1]))
        assert all(re.fullmatch(r"kernel-[0-9a-f]{16}\.so", name) for name in libraries)
        assert (Path(real[1]).read_bytes(), os.stat(real[1]).st_mtime_ns) == real_library


def test_the_escape_radius_defaults_to_a_multiple_of_the_half_width():
    for a in (1.0, 0.37, 2.5):
        assert resolve_escape_radius(None, a) == 10.0 * a
        model = ModelConfig(potential=BarrierPotential(a=a), order=2)
        escape = [s for s in _event_specs(model, None, ()) if s.kind == "escape"]
        assert escape[0].values == (10.0 * a,)
    for given in (0.5, 3.0, 40.0):
        assert resolve_escape_radius(given, 2.0) == given


def test_a_marker_keeps_its_sign_through_the_plan_cache():
    # 0.0 == -0.0, so a plan keyed on the marker values would hand a run
    # marked at 0.0 the q_cross events of one marked at -0.0 before it.
    from momentous.cli import build_config

    cfg = build_config({"packet": {"q0": -2.5, "energy": 3.0, "sigma0": 0.3},
                        "integrator": {"t_max": 2.0, "escape_radius": 50.0}})
    init = initial_moments(cfg.packet, cfg.model)
    _plan.cache_clear()
    for marker in (-0.0, 0.0, -0.0):
        traj = integrate(init, cfg.model, cfg.integrator, (marker,))
        crossings = [e.marker for e in traj.events if e.kind == "q_cross"]
        assert crossings and all(repr(m) == repr(marker) for m in crossings)
    assert _plan.cache_info().currsize == 2


def test_interleaved_run_families_run_as_on_fresh_plans(barrier):
    # Two models, two escape radii and two marker sets, each family run
    # twice in an interleaved order: every run is the bytes of the same
    # call on an empty plan cache.
    runs = []
    for model in (ModelConfig(potential=barrier, order=2),
                  ModelConfig(potential=BarrierPotential(alpha=2.0, a=0.8), order=3)):
        packet = scenario_packet(model.potential, -2.0, 0.3, third_moment_convention="zero")
        init = initial_moments(packet, model)
        for radius in (None, 2.5):
            icfg = tight_integrator(t_max=1.0, escape_radius=radius)
            for marks in ((), model.potential.turning_points(0.98)):
                runs.append((init, model, icfg, marks))
    order = [*range(len(runs)), *reversed(range(len(runs)))]
    _plan.cache_clear()
    warm = [integrate(*runs[i]) for i in order]
    assert _plan.cache_info().currsize == len(runs)
    for i, got in zip(order, warm):
        _plan.cache_clear()
        assert_same_trajectory(got, integrate(*runs[i]))


def test_a_p0_sweep_runs_as_without_the_plan_cache(tmp_path, monkeypatch):
    # The energy, and so the return points the runs mark, change at every
    # point of a p0 sweep: more families than the cache keeps, which stays
    # within its bound, and the bytes of plans derived afresh for each run.
    from momentous.cli import build_config, run_sweep

    cfg = build_config({
        "packet": {"q0": -2.5, "p0": 1.0, "sigma0": 0.3},
        "integrator": {"atol": 1e-6, "t_max": 1.0},
        "sweep": {"parameter": "p0", "start": 0.6, "stop": 1.4, "count": PLAN_CACHE_SIZE + 6},
    })
    _plan.cache_clear()
    run_sweep(cfg, str(tmp_path / "cached"))
    assert _plan.cache_info().misses == PLAN_CACHE_SIZE + 6
    assert _plan.cache_info().currsize == _plan.cache_info().maxsize == PLAN_CACHE_SIZE
    monkeypatch.setattr(integrator, "_plan", _plan.__wrapped__)
    run_sweep(cfg, str(tmp_path / "fresh"))
    for suffix in (".csv", ".summary.json"):
        assert ((tmp_path / f"cached{suffix}").read_bytes()
                == (tmp_path / f"fresh{suffix}").read_bytes())


def test_loop_matches_reference_on_step_failures():
    # Underflow: an RHS that turns infinite past y = 1.5, a callable with no
    # C translation, so only the Python loop runs it.
    icfg = IntegratorConfig(rtol=1e-6, atol=1e-6, t_max=2.0, max_step=0.5, sample_dt=0.05)
    times, _, _, termination, stats = _propagate(
        lambda y: [math.inf if y[0] > 1.5 else 1.0], 0.0, [0.0], icfg
    )[:5]
    assert termination is Termination.STEP_FAILURE and stats["failure"] == "underflow"
    assert stats["n_rejected"] == stats["n_rejected_nonfinite"] > 0
    assert 1.5 - 1e-6 < times[-1] <= 1.5
    # Budget: a stiff oscillator with five attempts.
    icfg = IntegratorConfig(rtol=1e-6, atol=1e-6, t_max=2.0, max_steps=5)
    stats = matches_reference(source("{y1}", "-400.0 * {y0}"), 0.0, [1.0, 0.0], icfg)[4]
    assert stats["failure"] == "budget"
    assert stats["n_steps"] + stats["n_rejected"] == 5


def test_loop_matches_reference_on_a_landing_step():
    # The last step is cut to about 1e-9 to land on t_end.
    icfg = IntegratorConfig(rtol=1e-6, atol=1e-6, t_max=10.0 + 1e-9, max_step=0.1, sample_dt=0.05)
    times, _, _, termination, stats = matches_reference(
        source("1.0", "-{y0}"), 0.0, [0.0, 1.0], icfg
    )
    assert termination is Termination.REACHED_TMAX
    assert times[-1] == 10.0 + 1e-9 and stats["h_min"] > 1e-3


def test_loop_matches_reference_on_an_event_landing_exactly_on_zero():
    # Markers placed on the end state of the third step: both event values
    # (one rising, one falling) are exactly 0.0 there, so the event time is
    # that step's end, unbisected. Starting at t0 = 1000, (t + h - t) / h is
    # not exactly 1, so the event state is the interpolant's, not y1's.
    rhs = coupled_rhs(2, 7)
    base = function(rhs, 2)
    icfg = IntegratorConfig(rtol=1e-6, atol=1e-6, t_max=1.0, sample_dt=0.3)
    calls = []

    def logged(y):
        calls.append(list(y))
        return base(y)

    assert _propagate(logged, 1000.0, [0.3, -0.4], icfg)[4]["n_rejected"] == 0
    end3 = calls[2 + 3 * 6 - 1][0]  # the third attempt's k7 is f at its end state
    specs = (
        _EventSpec("{y0} - {c0}", kind="above", values=(end3,)),
        _EventSpec("{c0} - {y0}", kind="below", values=(end3,)),
    )
    events = matches_reference(rhs, 1000.0, [0.3, -0.4], icfg, specs)[2]
    assert sorted(direction for _, _, direction, _ in events) == [-1, 1]
    assert events[0][0] == events[1][0]
    assert events[0][3][0] == pytest.approx(end3, abs=1e-12)


def test_loop_matches_reference_on_an_event_value_from_nan_to_zero():
    # y0 == y1 throughout: y0 * c - y1 * c is nan (inf - inf) while y exceeds
    # about 1.8e8 and exactly 0.0 below; the list loop counts that change as
    # a falling crossing.
    spec = _EventSpec("{y0} * {c0} - {y1} * {c0}", kind="nan", values=(1e300,))
    icfg = IntegratorConfig(rtol=1e-6, atol=1e-6, t_max=3.0)
    events = matches_reference(source("-{y0}", "-{y1}"), 0.0, [1e9, 1e9], icfg, (spec,))[2]
    assert [(direction, y[0] < 1.8e8) for _, _, direction, y in events] == [(-1, True)]


def test_loop_matches_reference_on_a_stop_just_before_a_sample():
    # q = t stops at 0.5 - 1e-12, within 1e-9 * sample_dt of the grid time
    # 0.5: that sample is clipped to the stop and merges with its row.
    spec = _EventSpec("fabs({y0}) - {c0}", kind="stop", values=(0.5 - 1e-12,),
                      stop=Termination.ESCAPED, direction=1)
    icfg = IntegratorConfig(rtol=1e-10, atol=1e-10, t_max=1.0, sample_dt=0.25)
    times, _, events, termination, _ = matches_reference(
        source("1.0", "0.0"), 0.0, [0.0, 0.0], icfg, (spec,)
    )
    assert termination is Termination.ESCAPED
    assert times == [0.0, 0.25, events[0][0]]
    assert events[0][0] == pytest.approx(0.5 - 1e-12, abs=1e-13)


def test_loop_matches_reference_on_event_rows_next_to_samples():
    # q = t: an event 5e-12 after the sample at 0.5 is a row of its own; one
    # 5e-13 after the sample at 0.75 is within 1e-12 of it and is not. Both
    # are events.
    specs = tuple(
        _EventSpec("{y0} - {c0}", kind="marker", values=(mark,)) for mark in (0.5 + 5e-12, 0.75 + 5e-13)
    )
    icfg = IntegratorConfig(rtol=1e-10, atol=1e-10, t_max=1.0, sample_dt=0.25)
    times, _, events, _, _ = matches_reference(source("1.0", "0.0"), 0.0, [0.0, 0.0], icfg, specs)
    assert [te for te, _, _, _ in events] == [pytest.approx(0.5 + 5e-12, abs=1e-13),
                                              pytest.approx(0.75 + 5e-13, abs=1e-13)]
    assert times == [0.0, 0.25, 0.5, events[0][0], 0.75, 1.0]


def test_a_sample_within_the_slack_after_a_step_end_takes_its_end_state():
    # The first step ends at t0 + h, and the grid time t0 + sample_dt lies
    # 4e-12 after it, inside the 1e-9 * sample_dt slack: that sample becomes
    # the step's end row and takes the end state z. At t0 = 1000 the
    # interpolant there is not z (theta is not exactly 1).
    rhs = coupled_rhs(2, 7)
    f = function(rhs, 2)
    t0, y0, tol = 1000.0, [0.3, -0.4], 1e-6
    h = _initial_step(f, y0, f(y0), tol, tol, 1.0, 0.1)
    _, err, z, k = _step(f, tol, tol, h, y0, f(y0))
    assert err <= 1.0  # the first attempt is accepted
    icfg = IntegratorConfig(rtol=tol, atol=tol, t_max=1.0, sample_dt=h * (1 + 1e-10))
    assert t0 + h < t0 + icfg.sample_dt <= t0 + h + 1e-9 * icfg.sample_dt
    times, states, _, _, _ = matches_reference(rhs, t0, y0, icfg)
    assert times[1] == t0 + h
    assert same_rows(states[1:2], [z])
    assert _dense(t0, h, y0, z, k)(t0 + h) != z


def test_a_sample_step_beyond_the_horizon_keeps_the_first_and_last_rows():
    # Both rows are exact states; the start's -0.0 stays -0.0.
    y0 = [0.2, -0.0, 0.4]
    icfg = IntegratorConfig(rtol=1e-8, atol=1e-8, t_max=1.5, sample_dt=2.0)
    times, states, _, termination, stats = matches_reference(coupled_rhs(3, 3), 0.0, y0, icfg)
    assert termination is Termination.REACHED_TMAX
    assert stats["n_steps"] > 2
    assert times == [0.0, 1.5]
    assert same_rows(states[:1], [y0])


@pytest.mark.parametrize(
    "sample_dt,t_max,max_step,steps",
    [
        # Five samples per window, over five steps.
        pytest.param(2e-13, 1e-10, 2.1e-11, 5, id="chains-over-steps"),
        # Half an ulp of t0 apart: runs of equal sample times, one step.
        pytest.param(1.2e-16, 2e-12, 0.1, 1, id="equal-sample-times"),
    ],
)
def test_grid_samples_within_the_duplicate_window_form_chains(sample_dt, t_max, max_step, steps):
    # Within the first unit of elapsed time the window is 1e-12: a sample
    # within it of the last kept row is dropped, so each run of such
    # samples is a chain of dropped rows, and the first sample beyond the
    # window is kept against the row before the chain, not against its own
    # predecessor.
    t0 = 1.0
    icfg = IntegratorConfig(rtol=1e-6, atol=1e-6, t_max=t_max, max_step=max_step,
                            sample_dt=sample_dt)
    times, _, _, termination, stats = matches_reference(
        source("1.0", "-{y0}"), t0, [0.0, 1.0], icfg
    )
    assert termination is Termination.REACHED_TMAX
    assert stats["n_steps"] == steps
    gaps = np.diff(times)
    window = 1e-12 * np.maximum(np.subtract(times[1:], t0), 1.0)
    assert np.all(gaps > window)
    assert np.all(gaps < 2 * window)  # no kept row is a whole window late
    assert len(times) < t_max / sample_dt / 4


@pytest.mark.parametrize("sample_dt,every", [(1.5e-12, 1), (8e-13, 2)])
def test_samples_near_the_duplicate_window_keep_each_row_beyond_it(sample_dt, every):
    # The window is 1e-12 within the first unit of elapsed time: samples
    # 1.5e-12 apart all stay, and of samples 8e-13 apart every second one
    # falls inside it and is dropped.
    icfg = IntegratorConfig(rtol=1e-6, atol=1e-6, t_max=200 * sample_dt, sample_dt=sample_dt)
    times = matches_reference(source("1.0", "-{y0}"), 1.0, [0.0, 1.0], icfg)[0]
    assert len(times) == 200 // every + 1
    assert np.allclose(np.diff(times), every * sample_dt, rtol=1e-3)


_REGULAR = (1000.0, 0.001, 5.0, 0.1)
# A twelfth of an ulp of t0: t0 + i * sample_dt rounds to runs of equal
# values.
_SUB_ULP = (1e6, 1.3e-11, 1.5e-6, 1e-7)
# A span below 1e-12 * t0, one sample per step of max_step.
_LATE = (1e6, 1e-7, 1.5e-6, 1e-7)


@pytest.mark.parametrize(
    "t0,sample_dt,t_max,max_step,events",
    [
        pytest.param(*_REGULAR, "none", id="regular"),
        pytest.param(*_SUB_ULP, "none", id="sub-ulp"),
        pytest.param(*_REGULAR, "p_zero", id="regular-p_zero"),
        pytest.param(*_SUB_ULP, "p_zero", id="sub-ulp-p_zero"),
        pytest.param(*_REGULAR, "stop", id="regular-stop"),
        pytest.param(*_SUB_ULP, "stop", id="sub-ulp-stop"),
        pytest.param(*_LATE, "none", id="late-start"),
    ],
)
def test_each_grid_index_is_recorded_by_the_first_step_that_reaches_it(
    t0, sample_dt, t_max, max_step, events
):
    # A step writes each grid index up to the last whose time is within the
    # 1e-9 * sample_dt slack after its end, or after the time of the event
    # that stops the run, merged by time with its events, an event first on
    # a tie. The Python loop over an opaque callable and over the source
    # writes the C kernel's rows and events bit for bit.
    # On the oscillator p = w cos s - sin s: p_zero at s = atan(w) and pi
    # later, and the stop where p falls through -w / 2.
    w = 0.1 * t_max
    p_zero = _EventSpec("{y1}", kind="p_zero")
    specs = {
        "none": (),
        "p_zero": (p_zero,),
        "stop": (p_zero, _EventSpec("{y1} + {c0}", kind="stop", values=(0.5 * w,),
                                    stop=Termination.ESCAPED, direction=-1)),
    }[events]
    icfg = IntegratorConfig(rtol=1e-6, atol=1e-6, t_max=t_max, max_step=max_step,
                            sample_dt=sample_dt)
    times, _, raw_events, termination, stats = matches_reference(
        OSCILLATOR, t0, [1.0, w], icfg, specs)
    assert_same_run(_propagate(lambda y: [y[1], -y[0]], t0, [1.0, w], icfg, specs),
                    _propagate(OSCILLATOR, t0, [1.0, w], icfg, specs))
    assert len(raw_events) >= {"none": 0, "p_zero": 1, "stop": 2}[events]
    if events == "stop":
        assert termination is Termination.ESCAPED and times[-1] == raw_events[-1][0]
        assert raw_events[-1][1].kind == "stop"
    else:
        assert termination is Termination.REACHED_TMAX and times[-1] == t0 + t_max
    assert stats["n_steps"] > (2 if events == "stop" else 5)
    if (t0, sample_dt, t_max, max_step) == _LATE:
        # The horizon and the duplicate window are measured from the
        # elapsed time: all 15 steps run, each keeps its sample, and the
        # last row is at t_end, as from t0 = 0.
        assert stats["n_steps"] == 15
        assert len(times) == 16
        assert times[-1] == t0 + t_max


@pytest.mark.parametrize("sample_dt,t_max", [(0.125, 2.0), (0.1, 0.7)])
def test_a_horizon_on_the_sample_grid_keeps_one_last_row(sample_dt, t_max):
    # The last grid sample lands on t_end (0.125 * 16 == 2.0) or within the
    # slack after it (0.1 * 7 > 0.7), so the t_end row repeats it and is
    # dropped.
    icfg = IntegratorConfig(rtol=1e-6, atol=1e-6, t_max=t_max, sample_dt=sample_dt)
    times, _, _, _, stats = matches_reference(coupled_rhs(2, 7), 0.0, [0.3, -0.4], icfg)
    assert stats["n_steps"] > 2
    assert times[-1] == t_max
    assert len(times) == round(t_max / sample_dt) + 1


def test_grid_times_that_collide_keep_one_row_per_time():
    # At t0 = 2**30 the floats lie 2**-22 (about 2.4e-7) apart, so the 100
    # grid indices of sample_dt = 1e-7 round onto 42 times past t0, the
    # first index onto t0 itself. Both loops walk every index and keep one
    # row per distinct time: the start row and 42 samples.
    t0 = 2.0**30
    icfg = IntegratorConfig(t_max=1e-5, sample_dt=1e-7)
    grid = [t0 + i * icfg.sample_dt for i in range(101)]
    assert grid[1] == t0 and len(set(grid)) == 43
    times = matches_reference(OSCILLATOR, t0, [1.0, 0.5], icfg,
                              (_EventSpec("{y1}", kind="p_zero"),))[0]
    assert times == sorted(set(grid))


def test_a_sample_on_a_step_end_closes_a_run_of_samples():
    # The first step holds three samples; the third lands on the step's end
    # (within the 1e-9 * sample_dt slack) and takes the end state z, the
    # first two take the interpolant. At t0 = 1000 the interpolant at the
    # step's end is not z.
    rhs = coupled_rhs(2, 7)
    f = function(rhs, 2)
    t0, y0, tol = 1000.0, [0.3, -0.4], 1e-6
    h = _initial_step(f, y0, f(y0), tol, tol, 1.0, 0.1)
    _, err, z, k = _step(f, tol, tol, h, y0, f(y0))
    assert err <= 1.0  # the first attempt is accepted
    icfg = IntegratorConfig(rtol=tol, atol=tol, t_max=1.0, sample_dt=h / 3 * (1 + 1e-12))
    dt = icfg.sample_dt
    assert t0 + 2 * dt < t0 + h <= t0 + 3 * dt <= t0 + h + 1e-9 * dt
    times, states, _, _, _ = matches_reference(rhs, t0, y0, icfg)
    assert times[1:4] == [t0 + dt, t0 + 2 * dt, t0 + h]
    dense = _dense(t0, h, y0, z, k)
    assert same_rows(states[1:4], [dense(t0 + dt), dense(t0 + 2 * dt), z])
    assert dense(t0 + h) != z


@pytest.mark.parametrize(
    "order,q0,sigma0,convention,icfg,termination",
    [
        pytest.param(2, -1.62, 0.3, "zero", IntegratorConfig(rtol=1e-10, atol=1e-6, t_max=2.35),
                     Termination.REACHED_TMAX, id="order2-return-points"),
        pytest.param(3, -2.5, 0.5, "skewed", tight_integrator(),
                     Termination.CONSTRAINT_VIOLATED, id="order3-constraint-stop"),
        pytest.param(0, -3.0, 0.5, "zero", tight_integrator(),
                     Termination.ESCAPED, id="order0-escape-stop"),
    ],
)
def test_event_states_equal_their_rows_bit_for_bit(
    barrier, order, q0, sigma0, convention, icfg, termination
):
    # Event states come from the loop's interpolant and sample rows from the
    # array pass after it; an event with a row of its own has that row's
    # state, bit for bit. The times, the (n, d) states and the series are
    # float64 columns of one (n, 1 + d + n_series) table over a shared base,
    # in that order; at order 0 there is no residual column.
    model = ModelConfig(potential=barrier, order=order)
    packet = scenario_packet(barrier, q0, sigma0, third_moment_convention=convention)
    init = initial_moments(packet, model)
    traj = integrate(init, model, icfg, barrier.turning_points(0.98))
    assert traj.termination is termination
    states = traj.states
    n, d = len(traj.times), len(_state_row(init, model))
    assert states.shape == (n, d)
    columns = [traj.times, states, traj.h_q, traj.v_eff]
    if order >= 2:
        columns.append(traj.uncertainty)
    n_series = len(columns) - 2
    width = 1 + d + n_series
    table = traj.times.base
    assert table.dtype == np.float64 and table.shape == (n * width,)
    start = table.__array_interface__["data"][0]
    for column, array in zip([0, 1, *range(1 + d, width)], columns):
        assert array.dtype == np.float64 and array.base is table
        assert array.strides[0] == 8 * width
        assert array.__array_interface__["data"][0] == start + 8 * column
    rows = {t: i for i, t in enumerate(traj.times.tolist())}
    matched = [e for e in traj.events if e.t in rows]
    assert matched
    if termination is not Termination.REACHED_TMAX:
        assert matched[-1].t == traj.times[-1]  # the stop event's row ends the run
    for event in matched:
        assert same_rows(states[rows[event.t]][None], [_state_row(event.state, model)])


def test_a_blowup_with_overflowing_coefficients_raises_no_numpy_warning():
    # Huge tolerances accept every step, so y' = 1e308 past y = 3 makes one
    # step with coefficients near the float limit before the 1e12 guard
    # stops the run. The interpolant then meets inf - inf: Python floats
    # give nan silently, and nothing may raise a numpy warning either, with
    # warnings as errors. The RHS has no C translation: the Python loop runs.
    icfg = IntegratorConfig(rtol=1e300, atol=1e300, t_max=10.0, max_step=2.0, sample_dt=2.0 / 13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, states, _, termination, stats, _ = _propagate(
            lambda y: [1.0 if y[0] < 3.0 else 1e308], 0.0, [0.0], icfg
        )
    assert termination is Termination.STEP_FAILURE and stats["failure"] == "blowup"
    assert np.isnan(states).any()


def core_stats(rhs, y0, t_end, max_step=0.5):
    """The stats of a run of an RHS source in both loops, or of a callable
    with no C translation in the Python loop."""
    icfg = IntegratorConfig(rtol=1e-6, atol=1e-6, t_max=t_end, max_step=max_step, sample_dt=0.05)
    if isinstance(rhs, RhsSource):
        return matches_reference(rhs, 0.0, y0, icfg)[4]
    return _propagate(rhs, 0.0, y0, icfg)[4]


def test_sample_pass_memory_is_bounded_by_its_outputs(monkeypatch):
    # CI's order-3 run (63,290 rows), through the Python loop: the kernel's
    # table is C memory, which tracemalloc does not see. The loop appends
    # the rows and their series to one buffer that numpy wraps without a
    # copy, so the traced peak of the run stays near the bytes of its five
    # output arrays, the table's columns; rows kept as lists of floats peak
    # at about 4 times them.
    from momentous.cli import _trajectory, build_config

    cfg = build_config({
        "model": {"order": 3},
        "packet": {"q0": -2.5, "energy": 0.98, "sigma0": 0.5, "third_moment_convention": "zero"},
        "integrator": {"t_max": 20.0, "sample_dt": 1e-4},
    })
    monkeypatch.setattr(integrator, "_kernel", lambda *args: None)
    _trajectory(cfg)  # compile the RHS and series functions outside the trace
    tracemalloc.start()
    try:
        traj = _trajectory(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = (traj.times, traj.states, traj.h_q, traj.v_eff, traj.uncertainty)
    assert len(traj.times) == 63_290
    assert peak <= 1.25 * sum(a.nbytes for a in outputs)


def test_step_statistics_split_rejections_by_cause():
    # A stiff oscillator: every rejection is an error rejection, and each of
    # the attempts costs six RHS calls after the two start-up calls.
    stats = core_stats(source("{y1}", "-400.0 * {y0}"), [1.0, 0.0], 2.0)
    assert stats["n_rejected"] == stats["n_rejected_error"] > 0
    assert stats["n_rejected_nonfinite"] == 0
    assert stats["n_rhs"] == 2 + 6 * (stats["n_steps"] + stats["n_rejected"])
    assert 0 < stats["h_min"] < stats["h_max"] <= 0.5
    # An RHS that turns infinite past y = 1.5: every rejection is non-finite.
    stats = core_stats(lambda y: [math.inf if y[0] > 1.5 else 1.0], [0.0], 2.0)
    assert stats["failure"] == "underflow"
    assert stats["n_rejected"] == stats["n_rejected_nonfinite"] > 0
    assert stats["n_rejected_error"] == 0


def test_step_size_range_leaves_out_the_landing_step():
    # The last step is cut to about 1e-9 to land on t_end; the range is that
    # of the other accepted steps, which grow to max_step.
    stats = core_stats(source("1.0", "-{y0}"), [0.0, 1.0], 10.0 + 1e-9, max_step=0.1)
    assert stats["h_max"] == 0.1
    assert stats["h_min"] > 1e-3
    # No accepted step at all: no range.
    stats = core_stats(source("{y0} * {y0}"), [2e12], 1.0)
    assert stats["n_steps"] == 0 and stats["h_min"] is None and stats["h_max"] is None


def test_uncertainty_residual_values(barrier):
    model = ModelConfig(potential=barrier, order=2)
    state = MomentState(t=0.0, q=0.0, p=0.0, moments=(1.0, 0.0, 0.1))
    assert uncertainty_residual(state, model) == pytest.approx(-0.15, rel=1e-15)
    packet = GaussianPacket(q0=-3.0, p0=1.0, sigma0=0.5)
    assert uncertainty_residual(initial_moments(packet, model), model) == 0.0
    with pytest.raises(ValueError):
        uncertainty_residual(MomentState(t=0.0, q=0.0, p=0.0, moments=()), model)


def test_a_run_starts_saturated_under_its_model_s_hbar(barrier):
    # The packet takes hbar from the model it starts in, so the run's first
    # residual is exactly zero at hbar = 0.5 too.
    packet = scenario_packet(barrier, -2.5, sigma0=0.5)
    for order in (2, 3):
        model = ModelConfig(potential=barrier, hbar=0.5, order=order)
        traj = integrate(initial_moments(packet, model), model, tight_integrator(t_max=0.5))
        assert traj.uncertainty[0] == 0.0
        assert uncertainty_residual(traj.state(0), model) == 0.0


def test_residual_stays_small_along_order2_run(barrier):
    model = ModelConfig(potential=barrier, order=2)
    packet = scenario_packet(barrier, -2.5, sigma0=0.5)
    traj = integrate(initial_moments(packet, model), model, tight_integrator())
    assert np.nanmax(np.abs(traj.uncertainty)) <= 1e-8
    for i in (0, len(traj.times) // 2, -1):
        state = traj.state(i)
        assert traj.uncertainty[i] == pytest.approx(
            uncertainty_residual(state, model), abs=1e-15
        )


def test_escape_requires_outbound_motion(barrier):
    # Inbound start exactly on the escape radius must not trigger the stop.
    model = ModelConfig(potential=barrier, order=0)
    init = MomentState(t=0.0, q=-10.0, p=0.5, moments=())
    traj = integrate(init, model, tight_integrator(t_max=1.0))
    assert traj.termination is Termination.REACHED_TMAX
    assert traj.q[-1] > -10.0


def test_escape_ignores_the_inward_crossing(barrier):
    # Starting outside the radius, the packet crosses it inward at t ~ 1.4
    # (|q| - radius falls through zero), is reflected, and escapes outward.
    packet = scenario_packet(barrier, -12.0, sigma0=0.5)
    model = ModelConfig(potential=barrier, order=2)
    icfg = tight_integrator(t_max=40.0, escape_radius=10.0)
    traj = integrate(initial_moments(packet, model), model, icfg)
    inward = np.flatnonzero(np.abs(traj.q) < 10.0)[0]
    assert traj.times[inward] == pytest.approx(1.4, abs=0.1)
    escapes = [e for e in traj.events if e.kind == "escape"]
    assert [(e.direction, round(e.t, 1)) for e in escapes] == [(1, 12.7)]
    assert traj.termination is Termination.ESCAPED
    assert traj.times[-1] == escapes[0].t
    assert abs(traj.q[-1]) == pytest.approx(10.0, abs=1e-9)


def test_series_lengths_and_order0_nan_residual(barrier):
    model = ModelConfig(potential=barrier, order=0)
    init = MomentState(t=0.0, q=-3.0, p=1.0, moments=())
    traj = integrate(init, model, tight_integrator(t_max=0.5))
    n = len(traj.times)
    assert traj.states.shape == (n, 2)
    assert len(traj.h_q) == n and len(traj.v_eff) == n
    assert np.all(np.isnan(traj.uncertainty))
    # With no moments the effective potential along the path is the bare one.
    assert traj.v_eff[0] == pytest.approx(barrier(-3.0), rel=1e-15)


@pytest.mark.parametrize("order", [0, 2, 3])
def test_a_trajectory_is_its_table(barrier, order):
    # The columns are views of the table, (t, state, H_Q, V_eff) plus the
    # residual at orders >= 2; a table of another width or with times that
    # do not strictly increase is rejected.
    model = ModelConfig(potential=barrier, order=order)
    d = 2 + len(dynamics.MOMENTS_BY_ORDER[order])
    width = d + 3 + (order >= 2)
    table = rng(order).uniform(-1.0, 1.0, size=(4, width))
    table[:, 0] = [0.0, 0.5, 1.0, 1.5]
    traj = Trajectory(model, table, Termination.REACHED_TMAX)
    columns = [traj.times, traj.states, traj.h_q, traj.v_eff]
    assert all(np.shares_memory(column, table) for column in columns)
    assert traj.states.tolist() == table[:, 1:1 + d].tolist()
    assert traj.h_q.tolist() == table[:, 1 + d].tolist()
    assert traj.v_eff.tolist() == table[:, 2 + d].tolist()
    if order >= 2:
        assert traj.uncertainty.tolist() == table[:, -1].tolist()
    else:
        assert np.isnan(traj.uncertainty).all() and len(traj.uncertainty) == 4
    for bad in (width - 1, width + 1):
        with pytest.raises(ValueError, match=f"order-{order} sample table has {width} columns"):
            Trajectory(model, np.zeros((4, bad)), Termination.REACHED_TMAX)
    for times in ([0.0, 0.5, 0.5, 1.5], [0.0, 1.0, 0.5, 1.5]):
        table[:, 0] = times
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(model, table, Termination.REACHED_TMAX)


def test_the_uncertainty_residual_rejects_a_state_of_another_order(barrier):
    # As effective_hamiltonian does: an order-2 state under an order-3 model.
    state = MomentState(t=0.0, q=0.0, p=0.0, moments=(1.0, 0.0, 0.1))
    model = ModelConfig(potential=barrier, order=3)
    for fn in (uncertainty_residual, effective_hamiltonian):
        with pytest.raises(ValueError, match="state order 2 does not match model order 3"):
            fn(state, model)


@pytest.mark.parametrize("order", [0, 2, 3])
def test_series_match_scalar_functions(barrier, order):
    # The series the loop writes per row and the public scalar functions
    # evaluate the same expressions, so they agree bit for bit at every
    # sample, the uncertainty residual at orders 2 and 3 included.
    model = ModelConfig(potential=barrier, order=order)
    packet = scenario_packet(barrier, -1.62, sigma0=0.3, third_moment_convention="zero")
    init = initial_moments(packet, model)
    if order == 3:
        # A skewed packet, so that the G30 terms are nonzero.
        init = MomentState(
            t=0.0, q=init.q, p=init.p, moments=init.moments[:3] + (0.02, 0.0, 0.0, 0.0)
        )
    traj = integrate(
        init, model, IntegratorConfig(rtol=1e-10, atol=1e-6, t_max=2.35),
        barrier.turning_points(0.98),
    )
    assert len(traj.times) > 100
    h_q = [effective_hamiltonian(traj.state(i), model) for i in range(len(traj.times))]
    v_eff = [
        effective_potential(traj.q[i], traj.state(i), model)
        for i in range(len(traj.times))
    ]
    assert traj.h_q.tolist() == h_q
    assert traj.v_eff.tolist() == v_eff
    if order >= 2:
        residual = [uncertainty_residual(traj.state(i), model) for i in range(len(traj.times))]
        assert traj.uncertainty.tolist() == residual


def test_dop853_cross_check(barrier):
    # An independent stepper (scipy's DOP853 at tighter tolerances) agrees
    # with the Dormand-Prince 5(4) run on the standard scenario.
    integrate_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    model = ModelConfig(potential=barrier, order=2)
    init = initial_moments(scenario_packet(barrier, -2.5, sigma0=0.5), model)
    traj = integrate(init, model, tight_integrator(t_max=2.0))
    assert traj.termination is Termination.REACHED_TMAX
    f = make_rhs(model)
    ref = integrate_ivp(
        lambda t, y: f(list(y)), (0.0, traj.times[-1]), np.array(_state_row(init, model)),
        method="DOP853", rtol=1e-13, atol=1e-13,
    )
    assert ref.success
    assert np.max(np.abs(traj.states[-1] - ref.y[:, -1])) <= 1e-8


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(sample_dt=-0.1)
    with pytest.raises(ValueError):
        IntegratorConfig(escape_radius=0.0)
    for bad in (0, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="max_steps must be a positive integer"):
            IntegratorConfig(max_steps=bad)
    # Grid indices are floats in the loop; i + 1.0 == i from 2**53 on.
    IntegratorConfig(t_max=1.0, sample_dt=2.0**-52)
    with pytest.raises(ValueError, match=r"fewer than 2\*\*53 samples"):
        IntegratorConfig(t_max=1.0, sample_dt=2.0**-53)


@pytest.mark.parametrize("order,stops", [(0, False), (2, True), (3, True)])
def test_every_order_with_moments_stops_where_the_product_turns_negative(barrier, order, stops):
    # G20*G02 - G11**2 >= 0 holds for every state; a run with moments stops
    # where the product falls through zero, at order 2 as at order 3.
    model = ModelConfig(potential=barrier, order=order)
    specs = _event_specs(model, None, ())
    constraint = [spec for spec in specs if spec.kind == "constraint"]
    assert constraint == ([_EventSpec("{y2} * {y4} - {y3} * {y3}", kind="constraint",
                                      stop=Termination.CONSTRAINT_VIOLATED, direction=-1)]
                          if stops else [])


def test_a_remainder_of_a_few_ulps_is_stepped_to_t_end():
    # At t0 = 1e6 a step of max_step ends 5 ulps short of t_end. The horizon
    # is met within 1e-12 of the span, and the smallest step the underflow
    # guard allows scales with the elapsed time, not with t, so the 5-ulp
    # remainder is one more step that lands on t_end exactly.
    t0, ulp = 1e6, math.ulp(1e6)
    icfg = IntegratorConfig(rtol=1e-6, atol=1e-6, t_max=1e-7 + 5 * ulp, max_step=1e-7,
                            sample_dt=1e-7)
    times, _, _, termination, stats = matches_reference(
        source("1.0", "-{y0}"), t0, [0.0, 1.0], icfg
    )
    assert termination is Termination.REACHED_TMAX
    assert stats["n_steps"] == 2
    assert times == [t0, t0 + 1e-7, t0 + icfg.t_max]


def test_a_late_start_steps_as_an_early_one():
    # Step sizes of 1e-9 are 9 ulps at t0 = 1e6, below 1e-14 * t0 but far
    # above 1e-14 times the elapsed time: the run from t0 = 1e6 takes the
    # same 10 steps and keeps the same 11 rows as the run from t0 = 0.
    icfg = IntegratorConfig(rtol=1e-6, atol=1e-6, t_max=1e-8, max_step=1e-9, sample_dt=1e-9)
    for t0 in (0.0, 1e6):
        times, _, _, termination, stats = matches_reference(
            source("1.0", "-{y0}"), t0, [0.0, 1.0], icfg
        )
        assert termination is Termination.REACHED_TMAX
        assert "failure" not in stats
        assert stats["n_steps"] == 10
        assert len(times) == 11
        assert times[-1] == t0 + icfg.t_max
    # A step too small to move t is an underflow failure too. An RHS that
    # turns infinite past y = 1.5 shrinks the step tenfold per attempt: from
    # t0 = 0 down to 1e-14 * 1.5, from t0 = 1e6 only until t + h == t (about
    # 6e-11), so the late run fails after fewer attempts. The RHS has no C
    # translation: the Python loop runs.
    icfg = IntegratorConfig(rtol=1e-6, atol=1e-6, t_max=2.0, max_step=0.5, sample_dt=0.05)
    early, late = (
        _propagate(lambda y: [math.inf if y[0] > 1.5 else 1.0], t0, [0.0], icfg)[4]
        for t0 in (0.0, 1e6)
    )
    assert early["failure"] == late["failure"] == "underflow"
    assert early["n_steps"] == late["n_steps"]
    assert late["n_rejected_nonfinite"] < early["n_rejected_nonfinite"]


def test_an_event_at_a_late_start_is_located_to_the_float_spacing():
    # p = cos s on the oscillator turns negative at s = pi/2. The bisection
    # stops at 1e-13 of the elapsed time, which at t0 = 1e6 is finer than
    # the float spacing: there it stops where the midpoint rounds onto an
    # end, within a few ulps of t0 + pi/2, where a width of 1e-13 * t would
    # leave it about 20 ulps off. From t0 = 0 the rule is unchanged.
    spec = _EventSpec("{y1}", kind="p_zero")
    icfg = IntegratorConfig(rtol=1e-10, atol=1e-10, t_max=2.0)
    located = []
    for t0 in (0.0, 1e6):
        events = matches_reference(OSCILLATOR, t0, [0.0, 1.0], icfg, (spec,))[2]
        [(te, _, direction, _)] = events
        assert direction == -1
        located.append(te)
    early, late = located
    assert abs(early - math.pi / 2) < 1e-11
    assert abs(late - (1e6 + math.pi / 2)) <= 3 * math.ulp(1e6)
    assert abs(late - 1e6 - early) <= 3 * math.ulp(1e6)


def test_int_and_numpy_numbers_run_the_kernel_as_their_floats(monkeypatch, barrier):
    # An int start time, int and numpy settings and model constants are
    # read as the floats they equal: the run finds the kernel where kernels
    # can be built, and writes the bytes of the run in floats.
    model = ModelConfig(potential=barrier, order=2)
    init = initial_moments(scenario_packet(barrier, -1.62, 0.3), model)
    want = integrate(init, model, IntegratorConfig(atol=1e-6, t_max=2.0, max_steps=1_000_000))
    numbers = ModelConfig(potential=BarrierPotential(alpha=np.float64(1.0), a=1, n=4),
                          mass=np.float64(1.0), hbar=1, order=2)
    icfg = IntegratorConfig(atol=np.float64(1e-6), t_max=2, max_steps=1e6)
    assert (type(icfg.atol), type(icfg.t_max), type(icfg.max_steps)) == (float, float, int)
    if KERNELS_BUILD:
        monkeypatch.setattr(integrator, "_python_loop", None)  # the Python loop is not called
    got = integrate(dataclasses.replace(init, t=0), numbers, icfg)
    assert_same_trajectory(got, want)


def test_a_column_kept_alone_outlives_its_trajectory(barrier):
    # A kernel run's arrays are columns of one table in the kernel's own
    # memory, freed with the last of them: h_q, kept alone while the
    # trajectory is collected and another run allocates its table, still
    # reads its values.
    model = ModelConfig(potential=barrier, order=2)
    icfg = IntegratorConfig(atol=1e-6, t_max=2.0)
    specs = _event_specs(model, icfg.escape_radius, ())
    if KERNELS_BUILD:
        assert _kernel(5, _events(specs), rhs_source(model), series_source(model)) is not None
    traj = integrate(initial_moments(scenario_packet(barrier, -1.62, 0.3), model), model, icfg)
    h_q, want = traj.h_q, traj.h_q.copy()
    del traj
    gc.collect()
    other = integrate(initial_moments(scenario_packet(barrier, -2.0, 0.4), model), model, icfg)
    assert other.h_q.tobytes() != want.tobytes()
    assert h_q.tobytes() == want.tobytes()


def test_order_mismatch_rejected(barrier):
    model = ModelConfig(potential=barrier, order=2)
    with pytest.raises(ValueError):
        integrate(MomentState(t=0.0, q=0.0, p=0.0, moments=()), model, IntegratorConfig())


# Builds the C kernel's units for d = 2, 5 and 9 with and without markers
# and the constraint, each over its model's RHS and series sources, and the
# RHS and series functions of orders 0, 2 and 3; prints the text of every
# generated source, a kernel's as the list of its units.
GENERATED_SOURCES = """
import json, linecache
from momentous import BarrierPotential, IntegratorConfig, ModelConfig
from momentous.dynamics import _series, make_rhs, rhs_source, series_source
from momentous.integrator import _c_units, _event_specs, _events

pot = BarrierPotential(alpha=1.0, a=1.0, n=4)
icfg = IntegratorConfig()
kernels = {}
for order, d in ((0, 2), (2, 5), (3, 9)):
    model = ModelConfig(potential=pot, order=order)
    make_rhs(model)
    _series(model)
    for marks in ((), pot.turning_points(0.98)):
        specs = _event_specs(model, icfg.escape_radius, marks)
        for kept in (specs, [s for s in specs if s.kind != "constraint"]):
            events = _events(kept)
            series = series_source(model)
            kernels[f"C kernel {d} {events}"] = _c_units(d, events, rhs_source(model), series)
texts = {k: "".join(v[2]) for k, v in linecache.cache.items() if k.startswith("<")}
print(json.dumps({**texts, **kernels}))
"""


def generated_sources(seed: str) -> dict:
    """What GENERATED_SOURCES prints, run in a fresh interpreter under the
    hash seed ``seed``."""
    src = str(Path(momentous.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", GENERATED_SOURCES],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(run.stdout)


def test_generated_source_ignores_the_hash_seed():
    texts = [generated_sources(seed) for seed in ("0", "4242")]
    assert texts[0] == texts[1]
    assert len([name for name in texts[0] if name.startswith("C kernel")]) == 10
    assert any(name.startswith("<order-3 rhs kernel") for name in texts[0])


@pytest.mark.skipif(not KERNELS_BUILD, reason="kernels cannot be built here")
def test_the_generated_c_compiles_without_warnings(tmp_path):
    # Each distinct unit of the kernels of GENERATED_SOURCES, compiled as a
    # translation unit of its own with every common warning an error: a
    # leftover unused function, variable or parameter in the C text fails.
    # The units are compiled to object files, as GCC checks for unused
    # static functions and variables only then, not under -fsyntax-only.
    units = sorted({unit for name, kernel in generated_sources("0").items()
                    if name.startswith("C kernel") for unit in kernel})
    paths = []
    for n, unit in enumerate(units):
        paths.append(str(tmp_path / f"unit{n}.c"))
        Path(paths[-1]).write_text(unit)
    command = shlex.split(os.environ.get("CC") or "cc")
    done = subprocess.run(
        [*command, "-Wall", "-Wextra", "-Werror", "-ffp-contract=off", "-c", *paths],
        cwd=tmp_path, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
