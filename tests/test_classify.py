import math

import numpy as np
import pytest

from momentous import (
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
from momentous.integrator import Trajectory

from conftest import rng, scenario_packet, tight_integrator


def make_synthetic(barrier, times, q, p, termination=Termination.REACHED_TMAX):
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
    )


def test_classical_reflection_tagged(barrier):
    energy = barrier.height / 1.46484
    p0 = math.sqrt(2 * (energy - barrier(-10.0)))
    init = MomentState(t=0.0, q=-10.0, p=p0, moments=())
    model = ModelConfig(potential=barrier, order=0)
    traj = integrate(init, model, tight_integrator(t_max=40.0),
                     mark_positions=barrier.turning_points(energy))
    outcome = classify(traj, barrier, energy)
    assert outcome.tag is Tag.REFLECTED
    assert outcome.evidence.final_p < 0
    assert outcome.evidence.time_horizon == pytest.approx(traj.times[-1])


def test_synthetic_monotone_crossing_is_tunneled(barrier):
    t = np.linspace(0, 10, 201)
    q = -5.0 + t  # crosses the barrier and keeps going
    p = np.ones_like(t)
    traj = make_synthetic(barrier, t, q, p)
    outcome = classify(traj, barrier, 0.98)
    assert outcome.tag is Tag.TUNNELED
    assert outcome.evidence.barrier_entry_time is not None
    assert outcome.evidence.barrier_exit_side == 1


def test_synthetic_trapped_needs_two_flips(barrier):
    x = barrier.turning_points(0.98)[1]
    t = np.linspace(0, 8, 401)
    q = 0.4 * x * np.sin(2 * np.pi * t)  # oscillates deep inside
    p = 0.4 * x * 2 * np.pi * np.cos(2 * np.pi * t)
    traj = make_synthetic(barrier, t, q, p)
    outcome = classify(traj, barrier, 0.98)
    assert outcome.tag is Tag.TRAPPED
    assert outcome.evidence.sign_changes_inside >= 2
    # A single turnaround inside is not trapping.
    t1 = np.linspace(0, 1, 101)
    q1 = 0.4 * x * np.sin(0.5 * np.pi * t1)
    p1 = np.cos(0.5 * np.pi * t1)
    single = make_synthetic(barrier, t1, q1, p1)
    assert classify(single, barrier, 0.98).tag is Tag.UNDETERMINED


def test_above_barrier_undetermined(barrier):
    t = np.linspace(0, 1, 11)
    traj = make_synthetic(barrier, t, -5 + t, np.ones_like(t))
    outcome = classify(traj, barrier, 2.0 * barrier.height)
    assert outcome.tag is Tag.UNDETERMINED
    assert "barrier top" in outcome.evidence.reason


def test_constraint_violated_is_undetermined(barrier):
    packet = scenario_packet(barrier, -2.5, sigma0=0.5)
    init = initial_moments(packet, 3)
    model = ModelConfig(potential=barrier, order=3)
    traj = integrate(init, model, tight_integrator())
    assert traj.termination is Termination.CONSTRAINT_VIOLATED
    outcome = classify(traj, barrier, 0.98)
    assert outcome.tag is Tag.UNDETERMINED
    assert "constraint" in outcome.evidence.reason


def test_margin_validation(barrier):
    t = np.linspace(0, 1, 11)
    traj = make_synthetic(barrier, t, -5 + t, np.ones_like(t))
    with pytest.raises(InvalidMargin):
        classify(traj, barrier, 0.98, margin=-0.1)
    with pytest.raises(InvalidEnergy):
        classify(traj, barrier, 0.0)


def test_reflection_requires_approach(barrier):
    # Turns around far from the barrier: not a barrier reflection.
    t = np.linspace(0, 10, 201)
    q = -3.0 - np.abs(t - 5.0)  # comes no closer than 3
    p = np.sign(5.0 - t)
    traj = make_synthetic(barrier, t, q, p)
    assert classify(traj, barrier, 0.98).tag is Tag.UNDETERMINED


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
    traj = integrate(initial_moments(packet, 2), ModelConfig(potential=barrier, order=2),
                     icfg, barrier.turning_points(energy))
    outcome = classify(traj, barrier, energy)
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
        traj = integrate(initial_moments(packet, 2), model, icfg, marks)
        per_margin = [
            classify(traj, barrier, energy, margin=m).tag
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
        outcome = classify(traj, barrier, energy)
        assert outcome.tag is Tag.REFLECTED, (gamma, q0, outcome)
    assert x_max < 2.0  # sanity: the sampled starts sit outside 2x


def test_mirror_symmetry_swaps_reflected_and_tunneled(barrier):
    energy = 0.98
    model = ModelConfig(potential=barrier, order=2)
    icfg = IntegratorConfig(rtol=1e-10, atol=1e-6, t_max=2.35)
    marks = barrier.turning_points(energy)
    seen = set()
    for q0 in np.linspace(-1.8, -1.4, 21):
        packet = scenario_packet(barrier, float(q0), sigma0=0.3, energy=energy)
        traj = integrate(initial_moments(packet, 2), model, icfg, marks)
        outcome = classify(traj, barrier, energy)
        mirrored = Trajectory(
            model=model,
            times=traj.times,
            states=np.column_stack([-traj.q, -traj.p, traj.states[:, 2:]]),
            h_q=traj.h_q,
            v_eff=traj.v_eff,
            uncertainty=traj.uncertainty,
            termination=traj.termination,
        )
        swapped = classify(mirrored, barrier, energy)
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
        traj = integrate(initial_moments(packet, 2), model, icfg)
        outcome = classify(traj, barrier, energy)
        assert outcome.tag in Tag
        assert isinstance(outcome.evidence.sign_changes_inside, int)
