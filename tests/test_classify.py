import math
from dataclasses import replace

import numpy as np
import pytest

from momentous import (
    BarrierPotential,
    IntegratorConfig,
    InvalidEnergy,
    InvalidMargin,
    ModelConfig,
    MomentState,
    Tag,
    Termination,
    classify,
    initial_moments,
    integrate,
)
from momentous.classify import resolve_margin
from momentous.integrator import Event, Trajectory

from conftest import rng, scenario_packet, tight_integrator


def make_synthetic(barrier, times, q, p, termination=Termination.REACHED_TMAX, events=()):
    times = np.asarray(times, dtype=float)
    states = np.column_stack([q, p])
    n = len(times)
    model = ModelConfig(potential=barrier, order=0)
    return Trajectory(
        model=model,
        times=times,
        states=states,
        h_q=np.zeros(n),
        v_eff=np.zeros(n),
        uncertainty=np.full(n, np.nan),
        termination=termination,
        events=tuple(events),
    )


def p_zero(t, q, direction):
    """A momentum flip as the integrator records it."""
    return Event(t=t, kind="p_zero", direction=direction,
                 state=MomentState(t=t, q=q, p=0.0, moments=()))


def test_classical_reflection_tagged(barrier):
    energy = barrier.height / 1.46484
    p0 = math.sqrt(2 * (energy - barrier(-10.0)))
    init = MomentState(t=0.0, q=-10.0, p=p0, moments=())
    model = ModelConfig(potential=barrier, order=0)
    traj = integrate(init, model, tight_integrator(t_max=40.0),
                     mark_positions=barrier.turning_points(energy))
    outcome = classify(traj, energy)
    assert outcome.tag is Tag.REFLECTED
    assert outcome.evidence.final_p < 0
    assert outcome.evidence.time_horizon == pytest.approx(traj.times[-1])


def test_synthetic_monotone_crossing_is_tunneled(barrier):
    t = np.linspace(0, 10, 201)
    q = -5.0 + t  # crosses the barrier and keeps going
    p = np.ones_like(t)
    traj = make_synthetic(barrier, t, q, p)
    outcome = classify(traj, 0.98)
    assert outcome.tag is Tag.TUNNELED
    assert outcome.evidence.barrier_entry_time is not None
    assert outcome.evidence.barrier_exit_side == 1


def oscillation_inside(barrier):
    """Samples of an oscillation deep inside the window, q = A sin(2 pi t),
    and its 16 momentum flips at t = 1/4, 3/4, ..., alternately at q = A, -A."""
    amplitude = 0.4 * barrier.turning_points(0.98)[1]
    t = np.linspace(0, 8, 401)
    q = amplitude * np.sin(2 * np.pi * t)
    p = amplitude * 2 * np.pi * np.cos(2 * np.pi * t)
    flips = [p_zero(0.25 + k / 2, amplitude * (-1) ** k, (-1) ** (k + 1)) for k in range(16)]
    return t, q, p, flips


def test_synthetic_trapped_needs_two_flips(barrier):
    t, q, p, flips = oscillation_inside(barrier)
    traj = make_synthetic(barrier, t, q, p, events=flips)
    outcome = classify(traj, 0.98)
    assert outcome.tag is Tag.TRAPPED
    assert outcome.evidence.sign_changes_inside == 16
    # A single turnaround inside is not trapping.
    x = barrier.turning_points(0.98)[1]
    t1 = np.linspace(0, 1, 101)
    q1 = 0.4 * x * np.sin(0.5 * np.pi * t1)
    p1 = np.cos(0.5 * np.pi * t1)
    single = make_synthetic(barrier, t1, q1, p1, events=[p_zero(1.0, 0.4 * x, -1)])
    outcome = classify(single, 0.98)
    assert outcome.tag is Tag.UNDETERMINED
    assert outcome.evidence.sign_changes_inside == 1


def test_sampled_sign_changes_are_not_flips(barrier):
    # The momentum samples change sign 16 times, but only the integrator's
    # p_zero events count: with none (a q_cross event is not a flip) there
    # are no flips, and the oscillation is not trapped.
    t, q, p, flips = oscillation_inside(barrier)
    assert np.count_nonzero(p[:-1] * p[1:] < 0) == 16
    cross = replace(flips[0], kind="q_cross", marker=float(flips[0].state.q))
    for events in ((), (cross,)):
        outcome = classify(make_synthetic(barrier, t, q, p, events=events), 0.98)
        assert outcome.evidence.sign_changes_inside == 0
        assert outcome.tag is Tag.UNDETERMINED
        assert outcome.evidence.reason == "inside the window with fewer than two momentum flips"


def test_the_barrier_is_the_trajectory_s(barrier):
    # The same samples, integrated over a barrier ten times wider (the same
    # height), end inside its window: the return points and the default
    # margin are those of the model the trajectory carries.
    t = np.linspace(0, 10, 201)
    wide = BarrierPotential(alpha=1e8, a=10.0, n=4)
    assert wide.height == barrier.height
    narrow = classify(make_synthetic(barrier, t, -5.0 + t, np.ones_like(t)), 0.98)
    outcome = classify(make_synthetic(wide, t, -5.0 + t, np.ones_like(t)), 0.98)
    assert narrow.tag is Tag.TUNNELED
    assert outcome.tag is Tag.UNDETERMINED
    assert outcome.evidence.reason == "inside the window with fewer than two momentum flips"
    assert outcome.evidence.barrier_entry_time < narrow.evidence.barrier_entry_time


def test_above_barrier_undetermined(barrier):
    t = np.linspace(0, 1, 11)
    traj = make_synthetic(barrier, t, -5 + t, np.ones_like(t))
    outcome = classify(traj, 2.0 * barrier.height)
    assert outcome.tag is Tag.UNDETERMINED
    assert "barrier top" in outcome.evidence.reason


def test_constraint_violated_is_undetermined(barrier):
    packet = scenario_packet(barrier, -2.5, sigma0=0.5)
    model = ModelConfig(potential=barrier, order=3)
    init = initial_moments(packet, model)
    traj = integrate(init, model, tight_integrator())
    assert traj.termination is Termination.CONSTRAINT_VIOLATED
    outcome = classify(traj, 0.98)
    assert outcome.tag is Tag.UNDETERMINED
    assert "constraint" in outcome.evidence.reason


def test_margin_validation(barrier):
    t = np.linspace(0, 1, 11)
    traj = make_synthetic(barrier, t, -5 + t, np.ones_like(t))
    with pytest.raises(InvalidMargin):
        classify(traj, 0.98, margin=-0.1)
    with pytest.raises(InvalidEnergy):
        classify(traj, 0.0)


def test_the_margin_defaults_to_a_share_of_the_half_width():
    for a in (1.0, 0.37, 2.5):
        assert resolve_margin(None, a) == 0.05 * a
    for given in (0.0, 0.123, 7.5):
        assert resolve_margin(given, 2.0) == given
    with pytest.raises(InvalidMargin, match="margin must be non-negative"):
        resolve_margin(-0.01, 1.0)


def test_reflection_requires_approach(barrier):
    # Turns around far from the barrier: not a barrier reflection.
    t = np.linspace(0, 10, 201)
    q = -3.0 - np.abs(t - 5.0)  # comes no closer than 3
    p = np.sign(5.0 - t)
    traj = make_synthetic(barrier, t, q, p)
    assert classify(traj, 0.98).tag is Tag.UNDETERMINED


@pytest.mark.parametrize("index, reason", [
    (140, "inside the window with fewer than two momentum flips"),
    (139, "outside the window, not moving away"),
    (0, "moving away without having come within 2x of the barrier centre"),
])
def test_undetermined_reason_on_the_acceptance_grid(barrier, index, reason):
    # One point of the 151-point acceptance q0 grid per reason.
    energy = 0.98
    q0 = float(np.linspace(-3.72638, -1.36634, 151)[index])
    packet = scenario_packet(barrier, q0, sigma0=0.3, energy=energy)
    icfg = IntegratorConfig(rtol=1e-10, atol=1e-6, t_max=2.35)
    model = ModelConfig(potential=barrier, order=2)
    traj = integrate(initial_moments(packet, model), model, icfg, barrier.turning_points(energy))
    outcome = classify(traj, energy)
    assert outcome.tag is Tag.UNDETERMINED
    assert traj.termination is Termination.REACHED_TMAX
    assert outcome.evidence.reason == reason


def test_margin_monotonicity(barrier):
    energy = 0.98
    model = ModelConfig(potential=barrier, order=2)
    icfg = IntegratorConfig(rtol=1e-10, atol=1e-6, t_max=2.35)
    marks = barrier.turning_points(energy)
    tags = {}
    for q0 in np.linspace(-3.72638, -1.36634, 25):
        packet = scenario_packet(barrier, float(q0), sigma0=0.3, energy=energy)
        traj = integrate(initial_moments(packet, model), model, icfg, marks)
        per_margin = [
            classify(traj, energy, margin=m).tag
            for m in (0.0, 0.05, 0.15, 0.4)
        ]
        tags[q0] = per_margin
        for earlier, later in zip(per_margin, per_margin[1:]):
            if earlier is Tag.REFLECTED:
                assert later is not Tag.TUNNELED
            if earlier is Tag.TUNNELED:
                assert later is not Tag.REFLECTED


def test_classical_limit_random_inbound(barrier):
    # Below the barrier top every classical inbound run reflects.
    gen = rng(17)
    model = ModelConfig(potential=barrier, order=0)
    x_max = barrier.turning_points(barrier.height / 10.0)[1]
    for _ in range(100):
        gamma = 1.0 + 9.0 * float(gen.random())
        energy = barrier.height / gamma
        x = barrier.turning_points(energy)[1]
        q0 = float(gen.uniform(-6.0, -max(2 * x, 1.0) - 0.5))
        p0 = math.sqrt(2 * (energy - barrier(q0)))
        init = MomentState(t=0.0, q=q0, p=p0, moments=())
        icfg = IntegratorConfig(
            rtol=1e-8, atol=1e-8, t_max=6 * abs(q0) / p0 + 10.0,
            escape_radius=abs(q0), max_step=0.2,
        )
        traj = integrate(init, model, icfg)
        outcome = classify(traj, energy)
        assert outcome.tag is Tag.REFLECTED, (gamma, q0, outcome)
    assert x_max < 2.0  # sanity: the sampled starts sit outside 2x


def mirror(event):
    """The event of the mirror-image run: q -> -q, p -> -p, so each event
    function crosses zero the other way."""
    state = replace(event.state, q=-event.state.q, p=-event.state.p)
    marker = None if event.marker is None else -event.marker
    return replace(event, direction=-event.direction, state=state, marker=marker)


def test_mirror_symmetry_swaps_reflected_and_tunneled(barrier):
    energy = 0.98
    model = ModelConfig(potential=barrier, order=2)
    icfg = IntegratorConfig(rtol=1e-10, atol=1e-6, t_max=2.35)
    marks = barrier.turning_points(energy)
    seen = set()
    for q0 in np.linspace(-1.8, -1.4, 21):
        packet = scenario_packet(barrier, float(q0), sigma0=0.3, energy=energy)
        traj = integrate(initial_moments(packet, model), model, icfg, marks)
        outcome = classify(traj, energy)
        mirrored = Trajectory(
            model=model,
            times=traj.times,
            states=np.column_stack([-traj.q, -traj.p, traj.states[:, 2:]]),
            h_q=traj.h_q,
            v_eff=traj.v_eff,
            uncertainty=traj.uncertainty,
            termination=traj.termination,
            events=tuple(mirror(e) for e in traj.events),
        )
        swapped = classify(mirrored, energy)
        assert swapped.evidence.sign_changes_inside == outcome.evidence.sign_changes_inside
        expected = {
            Tag.REFLECTED: Tag.TUNNELED,
            Tag.TUNNELED: Tag.REFLECTED,
            Tag.TRAPPED: Tag.TRAPPED,
            Tag.UNDETERMINED: Tag.UNDETERMINED,
        }[outcome.tag]
        assert swapped.tag is expected
        seen.add(outcome.tag)
    assert Tag.REFLECTED in seen  # the band contains real reflections


def test_single_tag_exhaustive(barrier):
    energy = 0.98
    model = ModelConfig(potential=barrier, order=2)
    icfg = IntegratorConfig(rtol=1e-10, atol=1e-6, t_max=2.35)
    for q0 in np.linspace(-3.0, -1.4, 9):
        packet = scenario_packet(barrier, float(q0), sigma0=0.3, energy=energy)
        traj = integrate(initial_moments(packet, model), model, icfg)
        outcome = classify(traj, energy)
        assert outcome.tag in Tag
        assert isinstance(outcome.evidence.sign_changes_inside, int)
