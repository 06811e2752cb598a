"""The moment system against exact quantum moments.

:func:`conftest.split_operator_moments` solves the Schrödinger equation for
the Gaussian that ``initial_moments`` describes (hbar = m = 1, box 40, 8192
points, dt 2e-4). At t <= 0.2 the packet from q0 = -2.5 (sigma0 0.3,
energy 0.98) is still narrow against the barrier's shoulder, so order 2 must
follow the exact moments closely: measured |d<q>| 8.5e-6 at t = 0.1 and
8.6e-5 at t = 0.2, |dG20| 2.1e-4 at t = 0.2.
"""

import numpy as np
import pytest

from momentous import GaussianPacket, IntegratorConfig, ModelConfig, initial_moments, integrate

from conftest import scenario_packet, split_operator_moments

TIMES = (0.0, 0.1, 0.2)


@pytest.fixture(scope="module")
def early(barrier):
    """(exact moments, order-2 states) at ``TIMES`` from q0 = -2.5."""
    packet = scenario_packet(barrier, -2.5, 0.3)
    model = ModelConfig(potential=barrier, order=2)
    icfg = IntegratorConfig(rtol=1e-12, atol=1e-12, t_max=TIMES[-1], sample_dt=0.1)
    traj = integrate(initial_moments(packet, model), model, icfg)
    assert traj.times.tolist() == list(TIMES)
    return split_operator_moments(barrier, packet, TIMES), traj.states


def test_order2_follows_the_exact_moments_at_early_times(early):
    exact, states = early
    for moments, (q, _, g20, _, _) in zip(exact, states):
        assert abs(q - moments["q"]) < 1e-4
        assert abs(g20 - moments["qq"]) < 3e-4


def test_minus_g11_has_the_sign_of_the_exact_covariance(early):
    # README: G11 is minus the usual position-momentum covariance.
    exact, states = early
    for moments, g11 in zip(exact[1:], states[1:, 3]):
        assert moments["qp"] > 0.25 and g11 < -0.25
        assert -g11 == pytest.approx(moments["qp"], rel=1e-2)


def test_the_initial_weyl_third_moments_are_zero(barrier, early):
    # The Gaussian's Weyl third moments vanish, the "zero" convention's
    # values; its second moments are those initial_moments gives.
    exact = early[0][0]
    assert max(abs(exact[key]) for key in ("qqq", "qqp", "qpp", "ppp")) < 1e-12
    packet = scenario_packet(barrier, -2.5, 0.3, third_moment_convention="zero")
    init = initial_moments(packet, ModelConfig(potential=barrier, order=3))
    g20, g11, g02, *third = init.moments
    assert third == [0.0] * 4
    assert (exact["q"], exact["p"]) == pytest.approx((init.q, init.p), abs=1e-12)
    assert (exact["qq"], -exact["qp"], exact["pp"]) == pytest.approx((g20, g11, g02), abs=1e-12)


def test_a_free_packet_spreads_as_the_closed_form():
    # Criterion 5's G20(t) = sigma0**2 + hbar**2 t**2 / (4 m**2 sigma0**2);
    # with no potential the kinetic step is exact, so dt can be large.
    sigma0, p0 = 0.5, 1.0
    times = (0.0, 0.5, 1.0, 1.5, 2.0)
    exact = split_operator_moments(lambda x: np.zeros_like(x),
                                   GaussianPacket(q0=0.0, p0=p0, sigma0=sigma0), times, dt=0.5)
    for t, moments in zip(times, exact):
        assert moments["qq"] == pytest.approx(sigma0**2 + t**2 / (4 * sigma0**2), rel=1e-12)
        assert moments["q"] == pytest.approx(p0 * t, abs=1e-12)
