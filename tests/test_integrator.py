import math

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
from momentous.dynamics import make_rhs, state_to_vector
from momentous.integrator import _EventSpec, _integrate_core, _rms_kernel, _step_kernel

from conftest import reference_rms, reference_step, rng, scenario_packet, tight_integrator

# Both branches of the error norm's summation (below 8 terms and the 8-lane
# tree), a remainder after the tree, and a second 8-lane block.
STEP_DIMENSIONS = (1, 2, 5, 8, 9, 17)


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
    packet = GaussianPacket(q0=-50.0, p0=1.0, sigma0=sigma0, hbar=hbar)
    model = ModelConfig(potential=barrier, mass=mass, hbar=hbar, order=2)
    traj = integrate(
        initial_moments(packet, 2), model, tight_integrator(t_max=10.0, escape_radius=1e6)
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
        traj = integrate(initial_moments(packet, 2), model, tight_integrator())
        assert traj.energy_drift <= 1e-8


def test_tolerance_convergence(barrier):
    # Halving the tolerances moves the endpoint by less than 10x the new
    # tolerance on the standard scenario.
    model = ModelConfig(potential=barrier, order=2)
    packet = scenario_packet(barrier, -2.5, sigma0=0.5)
    init = initial_moments(packet, 2)

    def endpoint(tol):
        icfg = IntegratorConfig(rtol=tol, atol=tol, t_max=3.0, escape_radius=1e6)
        return integrate(init, model, icfg).q[-1]

    tol = 1e-10
    assert abs(endpoint(tol) - endpoint(tol / 2)) < 10 * (tol / 2)


def test_determinism_bit_identical(barrier):
    model = ModelConfig(potential=barrier, order=2)
    packet = scenario_packet(barrier, -1.62, sigma0=0.3)
    init = initial_moments(packet, 2)
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
    init = initial_moments(packet, 2)
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


def test_constraint_violation_stops_skewed_third_order(barrier):
    packet = scenario_packet(barrier, -2.5, sigma0=0.5)
    init = initial_moments(packet, 3)  # skewed third moment
    model = ModelConfig(potential=barrier, order=3)
    traj = integrate(init, model, tight_integrator())
    assert traj.termination is Termination.CONSTRAINT_VIOLATED
    assert traj.times[-1] < 1.0
    # Flagged just past the tolerated band around the roundoff floor.
    assert traj.uncertainty[-1] == pytest.approx(-10 * 1e-10, rel=1e-3)
    assert np.all(np.diff(traj.times) > 0)
    events = [e for e in traj.events if e.kind == "constraint"]
    assert len(events) == 1 and events[0].direction == -1


def test_step_failure_on_blowup():
    # dy/dt = y^2 from y(0) = 1 blows up at t = 1; the guards must surface a
    # step failure and return the partial trajectory.
    times, states, events, termination, stats = _integrate_core(
        lambda y: [y[0] * y[0]],
        0.0,
        np.array([1.0]),
        2.0,
        rtol=1e-10,
        atol=1e-10,
        max_step=0.5,
        sample_dt=0.05,
    )
    assert termination is Termination.STEP_FAILURE
    assert stats["failure"] == "blowup"
    assert times[-1] < 1.0 + 1e-6
    assert states[-1][0] > 1e6
    assert all(b > a for a, b in zip(times, times[1:]))


def coupled_rhs(d, seed):
    """A nonlinear map on ``d`` float components that couples neighbours."""
    lin, quad = rng(seed).normal(size=(2, d)).tolist()
    return lambda y: [
        lin[i] * y[i] + quad[i] * y[i - 1] * y[(i + 1) % d] for i in range(d)
    ]


@pytest.mark.parametrize("d", STEP_DIMENSIONS)
def test_generated_step_matches_reference_bit_for_bit(d):
    gen = rng(100 + d)
    f = coupled_rhs(d, d)
    for _ in range(25):
        y = (gen.normal(size=d) * 10.0 ** gen.uniform(-3, 2, size=d)).tolist()
        h = 10.0 ** gen.uniform(-4, -0.5)
        rtol, atol = 10.0 ** gen.uniform(-12, -4, size=2)
        k1 = f(y)
        step = _step_kernel(d)(f, rtol, atol)
        assert step(h, y, k1) == reference_step(f, rtol, atol, h, y, k1)


@pytest.mark.parametrize("d", STEP_DIMENSIONS)
def test_generated_rms_matches_reference_bit_for_bit(d):
    # The starting step's norm, which the step kernel's comparison misses.
    gen = rng(300 + d)
    for _ in range(25):
        v = (gen.normal(size=d) * 10.0 ** gen.uniform(-3, 3, size=d)).tolist()
        assert _rms_kernel(d)(v) == reference_rms(v)


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
    # Position 0 poisons k1, position c the c-th RHS call. For c <= 5 the next
    # stage state (after call 5, the update) is not finite and the step
    # returns after c calls; a poisoned k7 (call 6) leaves only err non-finite.
    base = coupled_rhs(d, d)
    y = rng(200 + d).normal(size=d).tolist()
    for position in range(7):
        for component in {0, d - 1}:
            k1 = base(y)
            if position == 0:
                k1[component] = bad
            f, count = poisoned(base, position, component, bad)
            calls, err, out = _step_kernel(d)(f, 1e-10, 1e-6)(0.01, y, k1)
            assert calls == count[0] == position
            f, count = poisoned(base, position, component, bad)
            ref_calls, ref_err, ref_out = reference_step(f, 1e-10, 1e-6, 0.01, y, k1)
            assert ref_calls == count[0] == position
            assert not math.isfinite(err)
            if position < 6:
                assert out is None and ref_out is None and ref_err is None
            else:
                assert not math.isfinite(ref_err) and out[0] == ref_out[0]


def core_stats(f, y0, t_end, max_step=0.5):
    return _integrate_core(
        f, 0.0, y0, t_end, rtol=1e-6, atol=1e-6, max_step=max_step, sample_dt=0.05
    )[4]


def test_step_statistics_split_rejections_by_cause():
    # A stiff oscillator: every rejection is an error rejection, and each of
    # the attempts costs six RHS calls after the two start-up calls.
    stats = core_stats(lambda y: [y[1], -400.0 * y[0]], [1.0, 0.0], 2.0)
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
    stats = core_stats(lambda y: [1.0, -y[0]], [0.0, 1.0], 10.0 + 1e-9, max_step=0.1)
    assert stats["h_max"] == 0.1
    assert stats["h_min"] > 1e-3
    # No accepted step at all: no range.
    stats = core_stats(lambda y: [y[0] * y[0]], [2e12], 1.0)
    assert stats["n_steps"] == 0 and stats["h_min"] is None and stats["h_max"] is None


def test_uncertainty_residual_values(barrier):
    state = MomentState(t=0.0, q=0.0, p=0.0, moments=(1.0, 0.0, 0.1))
    assert uncertainty_residual(state, 1.0) == pytest.approx(-0.15, rel=1e-15)
    packet = GaussianPacket(q0=-3.0, p0=1.0, sigma0=0.5, hbar=1.0)
    assert uncertainty_residual(initial_moments(packet, 2), 1.0) == 0.0
    with pytest.raises(ValueError):
        uncertainty_residual(MomentState(t=0.0, q=0.0, p=0.0, moments=()), 1.0)


def test_residual_stays_small_along_order2_run(barrier):
    model = ModelConfig(potential=barrier, order=2)
    packet = scenario_packet(barrier, -2.5, sigma0=0.5)
    traj = integrate(initial_moments(packet, 2), model, tight_integrator())
    assert np.nanmax(np.abs(traj.uncertainty)) <= 1e-8
    for i in (0, len(traj.times) // 2, -1):
        state = traj.state(i)
        assert traj.uncertainty[i] == pytest.approx(
            uncertainty_residual(state, model.hbar), abs=1e-15
        )


def test_escape_requires_outbound_motion(barrier):
    # Inbound start exactly on the escape radius must not trigger the stop.
    model = ModelConfig(potential=barrier, order=0)
    init = MomentState(t=0.0, q=-10.0, p=0.5, moments=())
    traj = integrate(init, model, tight_integrator(t_max=1.0))
    assert traj.termination is Termination.REACHED_TMAX
    assert traj.q[-1] > -10.0


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


@pytest.mark.parametrize(
    "order,veff_third_moment", [(0, True), (2, True), (3, True), (3, False)]
)
def test_series_match_scalar_functions(barrier, order, veff_third_moment):
    # The array post-processing and the public scalar functions run one
    # compiled expression, so they agree bit for bit at every sample.
    model = ModelConfig(
        potential=barrier, order=order, veff_third_moment=veff_third_moment
    )
    packet = scenario_packet(barrier, -1.62, sigma0=0.3)
    if order == 0:
        init = MomentState(t=0.0, q=packet.q0, p=packet.p0, moments=())
    else:
        init = initial_moments(packet, order, "zero")
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


def test_dop853_cross_check(barrier):
    # An independent stepper (scipy's DOP853 at tighter tolerances) agrees
    # with the Dormand-Prince 5(4) run on the standard scenario.
    integrate_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    model = ModelConfig(potential=barrier, order=2)
    init = initial_moments(scenario_packet(barrier, -2.5, sigma0=0.5), 2)
    traj = integrate(init, model, tight_integrator(t_max=2.0))
    assert traj.termination is Termination.REACHED_TMAX
    f = make_rhs(model)
    ref = integrate_ivp(
        lambda t, y: f(list(y)), (0.0, traj.times[-1]), state_to_vector(init),
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
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)


def test_order_mismatch_rejected(barrier):
    model = ModelConfig(potential=barrier, order=2)
    with pytest.raises(ValueError):
        integrate(MomentState(t=0.0, q=0.0, p=0.0, moments=()), model, IntegratorConfig())
